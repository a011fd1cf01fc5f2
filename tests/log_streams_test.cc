#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concurrency_workload.h"
#include "core/database.h"
#include "core/log_streams.h"
#include "obs/export.h"
#include "obs/json.h"
#include "test_util.h"
#include "txn/executor.h"

namespace mmdb {
namespace {

using testing::ConcurrencyWorkload;

struct RunFingerprint {
  std::vector<uint64_t> commit_order;
  std::vector<ScriptResult> results;
  uint64_t completion_ns = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  std::map<int64_t, int64_t> rows;
  std::string metrics_json;
  std::string trace_json;
  bool every_stream_flushed = false;
};

/// Stream `s`'s name for a per-stream series: stream 0 keeps the bare
/// name, stream s > 0 appends ".<s>".
std::string StreamSeries(const std::string& name, uint32_t s) {
  return s == 0 ? name : name + "." + std::to_string(s);
}

bool EveryStreamFlushed(const Database& db) {
  for (uint32_t s = 0; s < db.log_streams(); ++s) {
    if (db.metrics().counter_value(StreamSeries("log.pages_flushed", s)) ==
        0) {
      return false;
    }
  }
  return true;
}

/// Runs the seeded workload on `w` once or, with
/// `until_every_stream_flushed`, in waves (seeds seed, seed + 1, ...)
/// until every log stream has written a log page.
Status RunWaves(ConcurrencyWorkload* w, uint64_t seed,
                bool until_every_stream_flushed, RunFingerprint* out) {
  for (uint64_t wave = 0; wave < 200; ++wave) {
    ConcurrentExecutor ex(w->db.get());
    for (TxnScript& s : w->MakeScripts(seed + wave)) ex.Submit(std::move(s));
    MMDB_RETURN_IF_ERROR(ex.Run());
    out->commit_order.insert(out->commit_order.end(),
                             ex.commit_order().begin(),
                             ex.commit_order().end());
    out->results.insert(out->results.end(), ex.results().begin(),
                        ex.results().end());
    out->completion_ns = ex.completion_ns();
    out->waits += ex.waits();
    out->deadlocks += ex.deadlocks();
    out->every_stream_flushed = EveryStreamFlushed(*w->db);
    if (!until_every_stream_flushed || out->every_stream_flushed) break;
    w->db->AdvanceClockTo(ex.completion_ns());
  }
  return Status::OK();
}

/// RunWaves on a fresh workload, traced when it runs until every stream
/// has flushed.
Status RunOnce(uint64_t seed, uint32_t workers, uint32_t streams,
               RunFingerprint* out, bool until_every_stream_flushed = false) {
  ConcurrencyWorkload w;
  MMDB_RETURN_IF_ERROR(
      w.Setup(workers, /*trace=*/until_every_stream_flushed, streams));
  MMDB_RETURN_IF_ERROR(RunWaves(&w, seed, until_every_stream_flushed, out));
  auto rows = w.LogicalRows();
  MMDB_RETURN_IF_ERROR(rows.status());
  out->rows = rows.value();
  out->metrics_json = obs::RegistryToJsonValue(w.db->metrics()).Dump();
  out->trace_json = w.db->tracer().ToJson();
  return Status::OK();
}

/// Same seed + same worker count + same stream count => byte-identical
/// runs. Partitioned logging adds per-stream devices and epoch fences to
/// the schedule; none of it may introduce nondeterminism, in the results
/// or in any stream's metrics and trace tracks.
TEST(LogStreamsTest, IdenticalMultiStreamRunsAreByteIdentical) {
  RunFingerprint a, b;
  ASSERT_OK(RunOnce(7, /*workers=*/4, /*streams=*/4, &a,
                    /*until_every_stream_flushed=*/true));
  ASSERT_OK(RunOnce(7, /*workers=*/4, /*streams=*/4, &b,
                    /*until_every_stream_flushed=*/true));
  ASSERT_TRUE(a.every_stream_flushed);
  EXPECT_EQ(a.commit_order, b.commit_order);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].commit_epoch, b.results[i].commit_epoch);
    EXPECT_EQ(a.results[i].commit_csn, b.results[i].commit_csn);
  }
}

/// log_streams=1 is the exact-parity ablation: it must reproduce the
/// legacy single-stream schedule byte for byte (no epoch framing, no
/// fences, no gate changes).
TEST(LogStreamsTest, SingleStreamMatchesLegacyExactly) {
  // Legacy path: Setup without the streams parameter.
  RunFingerprint legacy;
  {
    ConcurrencyWorkload w;
    ASSERT_OK(w.Setup(/*workers=*/4));
    ConcurrentExecutor ex(w.db.get());
    for (TxnScript& s : w.MakeScripts(7)) ex.Submit(std::move(s));
    ASSERT_OK(ex.Run());
    legacy.commit_order = ex.commit_order();
    legacy.completion_ns = ex.completion_ns();
    legacy.waits = ex.waits();
    legacy.deadlocks = ex.deadlocks();
    auto rows = w.LogicalRows();
    ASSERT_OK(rows.status());
    legacy.rows = rows.value();
    legacy.metrics_json = obs::RegistryToJsonValue(w.db->metrics()).Dump();
  }
  RunFingerprint one;
  ASSERT_OK(RunOnce(7, /*workers=*/4, /*streams=*/1, &one));
  EXPECT_EQ(legacy.commit_order, one.commit_order);
  EXPECT_EQ(legacy.completion_ns, one.completion_ns);
  EXPECT_EQ(legacy.waits, one.waits);
  EXPECT_EQ(legacy.deadlocks, one.deadlocks);
  EXPECT_EQ(legacy.rows, one.rows);
  EXPECT_EQ(legacy.metrics_json, one.metrics_json);
  // Single-stream commits carry no group-commit stamp.
  for (const ScriptResult& r : one.results) {
    if (r.outcome == ScriptOutcome::kCommitted) {
      EXPECT_EQ(r.commit_epoch, 0u);
      EXPECT_EQ(r.commit_csn, 0u);
    }
  }
}

/// Serializability of commit visibility under partitioned logging:
/// (epoch, csn) stamps are assigned at the commit point under the global
/// scheduler, so sorting committed transactions by their stamp must
/// reproduce the executor's commit order exactly — the group-commit
/// batching may delay durability, but never reorders visibility against
/// the conflict (commit) order.
TEST(LogStreamsTest, EpochOrderMatchesCommitOrder) {
  RunFingerprint f;
  ASSERT_OK(RunOnce(11, /*workers=*/8, /*streams=*/4, &f));
  ASSERT_FALSE(f.commit_order.empty());

  // Map committed txn id -> stamp.
  std::map<uint64_t, std::pair<uint32_t, uint64_t>> stamp;
  for (const ScriptResult& r : f.results) {
    if (r.outcome != ScriptOutcome::kCommitted) continue;
    EXPECT_GT(r.commit_epoch, 0u);
    EXPECT_GT(r.commit_csn, 0u);
    stamp[r.txn_id] = {r.commit_epoch, r.commit_csn};
  }
  ASSERT_EQ(stamp.size(), f.commit_order.size());

  // Along commit order: epochs nondecreasing, csns strictly increasing.
  for (size_t i = 1; i < f.commit_order.size(); ++i) {
    auto prev = stamp.at(f.commit_order[i - 1]);
    auto cur = stamp.at(f.commit_order[i]);
    EXPECT_LE(prev.first, cur.first)
        << "epoch regressed at commit index " << i;
    EXPECT_LT(prev.second, cur.second)
        << "csn not strictly increasing at commit index " << i;
  }

  // Sorting by (epoch, csn) reproduces commit order exactly.
  std::vector<uint64_t> by_stamp = f.commit_order;
  std::sort(by_stamp.begin(), by_stamp.end(),
            [&](uint64_t x, uint64_t y) { return stamp.at(x) < stamp.at(y); });
  EXPECT_EQ(by_stamp, f.commit_order);
}

/// Every stream is built and attached the same way: at 4 workers over 4
/// streams each stream logs, sorts and flushes under its own series, its
/// series sum to the GetStats() totals, and its flushes land on its own
/// log-disk track with its own SLB occupancy curve.
TEST(LogStreamsTest, EveryStreamIsObservable) {
  ConcurrencyWorkload w;
  ASSERT_OK(w.Setup(/*workers=*/4, /*trace=*/true, /*streams=*/4));
  RunFingerprint f;
  ASSERT_OK(RunWaves(&w, 7, /*until_every_stream_flushed=*/true, &f));
  ASSERT_TRUE(f.every_stream_flushed);

  const obs::MetricsRegistry& reg = w.db->metrics();
  uint64_t appended = 0, sorted = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    uint64_t a = reg.counter_value(StreamSeries("slb.records_appended", s));
    uint64_t r = reg.counter_value(StreamSeries("recovery.records_sorted", s));
    EXPECT_GT(a, 0u);
    EXPECT_GT(r, 0u);
    appended += a;
    sorted += r;
    const std::string disk = s == 0 ? "log" : "log" + std::to_string(s);
    EXPECT_GT(reg.counter_value("disk." + disk + "-a.pages_written"), 0u);
  }
  DatabaseStats stats = w.db->GetStats();
  EXPECT_EQ(appended, stats.records_logged);
  EXPECT_EQ(sorted, stats.records_sorted);

  ASSERT_OK_AND_ASSIGN(obs::JsonValue doc,
                       obs::ParseJson(w.db->tracer().ToJson()));
  std::map<std::string, uint32_t> track_pid;    // process name -> pid
  std::map<std::string, int> counter_samples;  // counter name -> samples
  std::map<uint32_t, std::vector<std::pair<double, double>>> spans;
  for (const obs::JsonValue& e : doc.Find("traceEvents")->as_array()) {
    const std::string ph = e.Find("ph")->as_string();
    const auto pid = static_cast<uint32_t>(e.Find("pid")->as_number());
    if (ph == "M") {
      track_pid[e.Find("args")->Find("name")->as_string()] = pid;
    } else if (ph == "C") {
      ++counter_samples[e.Find("name")->as_string()];
    } else if (ph == "X") {
      double ts = e.Find("ts")->as_number();
      spans[pid].emplace_back(ts, ts + e.Find("dur")->as_number());
    }
  }
  for (uint32_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const std::string track =
        s == 0 ? "log-disk" : "log-disk-" + std::to_string(s);
    ASSERT_TRUE(track_pid.count(track));
    std::vector<std::pair<double, double>>& list = spans[track_pid[track]];
    EXPECT_FALSE(list.empty());
    std::sort(list.begin(), list.end());
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i].first + 1e-6, list[i - 1].second)
          << "overlapping spans on " << track;
    }
    EXPECT_GT(counter_samples[StreamSeries("slb.occupancy_bytes", s)], 0);
  }
}

/// Crash + restart with four streams: ConcurrentExecutor::Run fences all
/// epochs on completion, so every committed script is durable; restart
/// merges the per-stream bins by (epoch, csn) and must rebuild the same
/// logical table.
TEST(LogStreamsTest, MultiStreamCrashRestartPreservesCommittedState) {
  ConcurrencyWorkload w;
  ASSERT_OK(w.Setup(/*workers=*/4, /*trace=*/false, /*streams=*/4));
  ConcurrentExecutor ex(w.db.get());
  for (TxnScript& s : w.MakeScripts(7)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  auto before = w.LogicalRows();
  ASSERT_OK(before.status());

  w.db->Crash();
  ASSERT_OK(w.db->Restart());

  auto after = w.LogicalRows();
  ASSERT_OK(after.status());
  EXPECT_EQ(before.value(), after.value());
}

/// LogStreams on its own, with the options, CPUs, stable-memory meter,
/// fault injector and registries a Database would lend it.
struct StreamsRig {
  explicit StreamsRig(uint32_t streams) {
    opts.log_streams = streams;
    meter.SetFaultInjector(&fault);
    log = std::make_unique<LogStreams>(opts, main_cpu, &recovery_cpu, &meter,
                                       &fault, &metrics, &tracer);
  }

  /// Logs one record for a fresh transaction on stream `s` and commits it
  /// at `now_ns`.
  Result<LogStreams::Stamp> CommitOne(uint32_t s, uint64_t now_ns,
                                      TxnKind kind = TxnKind::kUser) {
    Transaction txn(next_txn++, kind);
    txn.set_log_stream(s);
    LogRecord rec;
    rec.op = LogOp::kInsert;
    rec.txn_id = txn.id();
    rec.partition = PartitionId{1, 0};
    rec.data = {1, 2, 3};
    MMDB_RETURN_IF_ERROR(log->Append(&txn, rec, nullptr, now_ns));
    return log->Commit(&txn, nullptr, now_ns);
  }

  std::vector<uint32_t> Markers() {
    std::vector<uint32_t> out;
    for (uint32_t s = 0; s < log->size(); ++s) {
      out.push_back(log->stream(s).flushed_epoch());
    }
    return out;
  }

  /// Arms a crash at the `nth` stable-memory charge from now on.
  void CrashAtCharge(uint64_t nth) {
    fault::FaultPlan plan;
    plan.CrashAtVisit(fault::Site::kStableMemAccess, nth);
    fault.Arm(plan);
  }

  /// Delivers a crash to the streams, as Database::Crash() does.
  void Crash() {
    log->OnCrash();
    fault.OnCrashDelivered();
  }

  DatabaseOptions opts;
  sim::CpuModel main_cpu{"main", 6.0};
  sim::CpuModel recovery_cpu{"recovery", 1.0};
  sim::StableMemoryMeter meter{16ull * 1024 * 1024};
  fault::FaultInjector fault;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  std::unique_ptr<LogStreams> log;
  uint64_t next_txn = 1;
};

/// One stream: commits carry no stamp, but the csn latch the version
/// store orders by still advances; there is no marker to fence, and the
/// sort process is not bounded by one.
TEST(LogStreamsLedgerTest, SingleStreamOnlyAdvancesTheCsnLatch) {
  StreamsRig rig(1);
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_OK_AND_ASSIGN(LogStreams::Stamp st, rig.CommitOne(0, i * 250'000));
    EXPECT_EQ(st.epoch, 0u);
    EXPECT_EQ(st.csn, i);
    EXPECT_EQ(rig.log->last_csn(), i);
  }
  ASSERT_OK_AND_ASSIGN(LogStreams::Stamp sys,
                       rig.CommitOne(0, 900'000, TxnKind::kSystem));
  EXPECT_EQ(sys.epoch, 0u);
  EXPECT_EQ(sys.csn, 4u);
  EXPECT_EQ(rig.log->last_commit().epoch, 0u);
  EXPECT_EQ(rig.log->last_commit().csn, 0u);

  const uint64_t written = rig.meter.bytes_written();
  ASSERT_OK(rig.log->Fence());
  EXPECT_EQ(rig.meter.bytes_written(), written);
  EXPECT_EQ(rig.Markers(), std::vector<uint32_t>{0});
  EXPECT_EQ(rig.log->PumpBound(rig.log->stream(0)), UINT32_MAX);

  rig.Crash();
  EXPECT_EQ(rig.log->discard_frontier(), UINT32_MAX);
  EXPECT_EQ(rig.log->stream(0).slb().committed_backlog_records(), 4u);
}

/// Several streams: epoch = max(now / interval + 1, last stamped), so
/// commits from workers whose clocks lag never lower it, and the csn
/// strictly increases across streams. User commits leave the markers
/// behind; the fence moves every marker to the stamp high-water, and a
/// non-user commit fences on the spot.
TEST(LogStreamsLedgerTest, StampsOrderCommitsAcrossStreams) {
  StreamsRig rig(3);
  const uint64_t interval = rig.opts.epoch_interval_ns;
  const uint64_t times[] = {250'000, 120'000, 900'000, 400'000, 50'000};
  LogStreams::Stamp prev;
  for (uint32_t i = 0; i < 5; ++i) {
    SCOPED_TRACE("commit " + std::to_string(i));
    ASSERT_OK_AND_ASSIGN(LogStreams::Stamp st, rig.CommitOne(i % 3, times[i]));
    EXPECT_EQ(st.epoch, std::max<uint32_t>(
                            static_cast<uint32_t>(times[i] / interval) + 1,
                            prev.epoch));
    EXPECT_GE(st.epoch, prev.epoch);
    EXPECT_GT(st.csn, prev.csn);
    EXPECT_EQ(rig.log->last_commit().epoch, st.epoch);
    EXPECT_EQ(rig.log->last_commit().csn, st.csn);
    EXPECT_EQ(rig.log->last_csn(), st.csn);
    prev = st;
  }
  EXPECT_EQ(prev.epoch, 10u);
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{0, 0, 0}));
  ASSERT_OK(rig.log->Fence());
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{10, 10, 10}));
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rig.log->PumpBound(rig.log->stream(s)), 10u);
  }

  ASSERT_OK_AND_ASSIGN(LogStreams::Stamp sys,
                       rig.CommitOne(1, 1'300'000, TxnKind::kSystem));
  EXPECT_EQ(sys.epoch, 14u);
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{14, 14, 14}));
}

/// The discard frontier: a crash inside a fence latches the minimum
/// marker, and every stream drops its commits stamped past it. Later
/// crashes keep that frontier even once the markers have moved past it,
/// until a completed restart retires it.
TEST(LogStreamsLedgerTest, CrashLatchesTheFrontierUntilRestartRetiresIt) {
  StreamsRig rig(3);
  ASSERT_OK_AND_ASSIGN(LogStreams::Stamp first, rig.CommitOne(0, 100'000));
  ASSERT_OK(rig.log->Fence());
  ASSERT_OK_AND_ASSIGN(LogStreams::Stamp second, rig.CommitOne(1, 500'000));
  ASSERT_EQ(first.epoch, 2u);
  ASSERT_EQ(second.epoch, 6u);

  // The crash lands on stream 1's marker write: only stream 0 has
  // acknowledged epoch 6.
  rig.CrashAtCharge(2);
  EXPECT_TRUE(rig.log->Fence().IsFault());
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{6, 2, 2}));
  rig.Crash();
  EXPECT_EQ(rig.log->discard_frontier(), 2u);
  EXPECT_EQ(rig.log->stream(0).slb().committed_backlog_records(), 1u);
  EXPECT_EQ(rig.log->stream(1).slb().committed_backlog_records(), 0u);

  // A crash inside the restart's closing fence keeps the first frontier.
  rig.CrashAtCharge(2);
  EXPECT_TRUE(rig.log->RetireFrontier().IsFault());
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{6, 6, 2}));
  rig.Crash();
  EXPECT_EQ(rig.log->discard_frontier(), 2u);

  // So does a crash after every marker has passed the frontier.
  for (uint32_t s = 0; s < 3; ++s) rig.log->stream(s).set_flushed_epoch(6);
  rig.Crash();
  EXPECT_EQ(rig.log->discard_frontier(), 2u);

  // A restart that completes retires it.
  rig.fault.Disarm();
  ASSERT_OK(rig.log->RetireFrontier());
  EXPECT_EQ(rig.log->discard_frontier(), UINT32_MAX);
  EXPECT_EQ(rig.Markers(), (std::vector<uint32_t>{6, 6, 6}));
}

/// A partition gets one bin index on every stream. When a later stream
/// cannot fit the info block, the earlier streams give theirs back, so
/// the bin tables never disagree.
TEST(LogStreamsBinTest, FailedRegistrationLeavesNoStreamHoldingABin) {
  StreamsRig rig(3);
  const uint64_t ballast = rig.meter.capacity_bytes() -
                           rig.meter.allocated_bytes() -
                           StableLogTail::kInfoBlockBytes;
  rig.meter.Allocate(ballast);
  const PartitionId pid{7, 0};
  auto failed = rig.log->RegisterPartition(pid);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsFull()) << failed.status().ToString();
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(rig.log->stream(s).slt().FindBin(pid).ok()) << "stream " << s;
  }

  rig.meter.Release(ballast);
  for (PartitionId p : {pid, PartitionId{7, 1}}) {
    ASSERT_OK_AND_ASSIGN(uint32_t bin, rig.log->RegisterPartition(p));
    for (uint32_t s = 0; s < 3; ++s) {
      ASSERT_OK_AND_ASSIGN(uint32_t got, rig.log->stream(s).slt().FindBin(p));
      EXPECT_EQ(got, bin) << "stream " << s;
    }
  }
}

}  // namespace
}  // namespace mmdb
