#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "concurrency_workload.h"
#include "core/database.h"
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

}  // namespace
}  // namespace mmdb
