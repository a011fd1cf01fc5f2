// Interleaved-sweep tests: the heat-ordered background recovery sweep
// running as scheduler events between transaction operations, and the
// loop statistics that count them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "obs/export.h"
#include "test_util.h"
#include "txn/executor.h"

namespace mmdb {
namespace {

// --- interleaved heat-ordered sweep ------------------------------------------

/// Post-crash rig with enough partitions for the sweep to matter: small
/// partitions, many rows, kOnDemand restart.
struct SweepRig {
  /// At least this many rows, and as many more as it takes to span
  /// kMinPartitions partitions: the sweep tests need a first, a middle
  /// and a last partition that differ.
  static constexpr int64_t kMinRows = 600;
  static constexpr size_t kMinPartitions = 4;

  std::unique_ptr<Database> db;
  std::vector<EntityAddr> addrs;

  int64_t row_count() const { return static_cast<int64_t>(addrs.size()); }

  Status Setup(uint32_t workers) {
    DatabaseOptions o;
    o.partition_size_bytes = 4096;
    o.log_page_bytes = 1024;
    o.txn_workers = workers;
    o.restart_policy = RestartPolicy::kOnDemand;
    o.recovery_parallelism = 2;
    db = std::make_unique<Database>(o);
    Schema schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
    MMDB_RETURN_IF_ERROR(db->CreateRelation("r", schema));
    auto t = db->Begin();
    MMDB_RETURN_IF_ERROR(t.status());
    auto rel = db->catalog().GetRelation("r");
    MMDB_RETURN_IF_ERROR(rel.status());
    for (int64_t k = 0;
         k < kMinRows || rel.value()->partitions.size() < kMinPartitions;
         ++k) {
      auto a = db->Insert(t.value(), "r", Tuple{k, k});
      MMDB_RETURN_IF_ERROR(a.status());
      addrs.push_back(a.value());
    }
    MMDB_RETURN_IF_ERROR(db->Commit(t.value()));
    MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
    db->Crash();
    return db->Restart();
  }

  /// Scripts touching a narrow stripe of rows, so most partitions are
  /// left to the sweep rather than recovered on demand.
  std::vector<TxnScript> MakeScripts(int count) const {
    std::vector<TxnScript> scripts;
    for (int s = 0; s < count; ++s) {
      TxnScript ts;
      ts.label = "post-crash-" + std::to_string(s);
      for (int j = 0; j < 3; ++j) {
        int64_t row = (s * 3 + j) % 40;  // first few partitions only
        EntityAddr addr = addrs[row];
        ts.ops.push_back([addr, row](Database& d, Transaction* t) -> Status {
          return d.Update(t, "r", addr, Tuple{row, row + 1});
        });
      }
      scripts.push_back(std::move(ts));
    }
    return scripts;
  }

  Result<std::map<int64_t, int64_t>> Rows() {
    std::map<int64_t, int64_t> out;
    auto t = db->Begin();
    MMDB_RETURN_IF_ERROR(t.status());
    auto scan = db->Scan(t.value(), "r");
    MMDB_RETURN_IF_ERROR(scan.status());
    for (const auto& [addr, tuple] : scan.value()) {
      out[std::get<int64_t>(tuple[0])] = std::get<int64_t>(tuple[1]);
    }
    MMDB_RETURN_IF_ERROR(db->Commit(t.value()));
    return out;
  }
};

/// The sweep must genuinely interleave with transaction execution on the
/// shared virtual clock: installs happen while commits are still being
/// produced, not after the workload drains.
TEST(EventLoopTest, SweepInterleavesWithTransactions) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(4));
  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  ConcurrentExecutor ex(rig.db.get(), eo);
  for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  EXPECT_GT(ex.sweep_recovered(), 0u);
  // Interleaving proof: at least one commit lands before the last sweep
  // install, and at least one sweep install lands before the last commit.
  uint64_t first_commit = ~0ull, last_commit = 0;
  for (const ScriptResult& r : ex.results()) {
    ASSERT_EQ(r.outcome, ScriptOutcome::kCommitted);
    first_commit = std::min(first_commit, r.commit_ns);
    last_commit = std::max(last_commit, r.commit_ns);
  }
  EXPECT_GT(ex.last_sweep_install_ns(), first_commit);
  // The executor keeps sweeping after the last commit until the queue
  // drains; everything must be resident by the end.
  EXPECT_TRUE(rig.db->FullyResident());
}

TEST(EventLoopTest, SchedulerStatsExposed) {
  constexpr int kScripts = 24;
  SweepRig rig;
  ASSERT_OK(rig.Setup(4));
  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  ConcurrentExecutor ex(rig.db.get(), eo);
  for (TxnScript& s : rig.MakeScripts(kScripts)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  // Worker steps count too: each script is three ops plus its commit,
  // and every sweep install is one more event.
  EXPECT_GE(ex.scheduler_events_run(), 4u * kScripts + ex.sweep_recovered());
  EXPECT_GE(ex.scheduler_peak_depth(), 1u);
  // The background hot path must be allocation-free: every event
  // callback fits SmallFn's inline buffer.
  EXPECT_EQ(ex.scheduler_heap_fallbacks(), 0u);
  EXPECT_EQ(rig.db->metrics().counter_value("scheduler.events_run"),
            ex.scheduler_events_run());
  EXPECT_GE(rig.db->metrics().gauge_value("scheduler.peak_heap_depth"), 1.0);
}

/// Different sweep lane counts change virtual timings but never the
/// final logical state: every partition resident, every row intact.
TEST(EventLoopTest, SweepLaneCountPreservesFinalState) {
  std::map<int64_t, int64_t> rows1, rows4;
  for (uint32_t lanes : {1u, 4u}) {
    SweepRig rig;
    ASSERT_OK(rig.Setup(4));
    ConcurrentExecutor::Options eo;
    eo.background_sweep = true;
    eo.sweep_lanes = lanes;
    ConcurrentExecutor ex(rig.db.get(), eo);
    for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
    ASSERT_OK(ex.Run());
    EXPECT_TRUE(rig.db->FullyResident());
    auto rows = rig.Rows();
    ASSERT_OK(rows.status());
    (lanes == 1 ? rows1 : rows4) = rows.value();
  }
  EXPECT_EQ(rows1, rows4);
}

/// Sweep-during-transactions is deterministic: two identical runs agree
/// byte-for-byte on commit order, timings, metrics, and sweep progress.
TEST(EventLoopTest, SweepDuringTransactionsIsDeterministic) {
  std::vector<std::string> metrics(2), traces(2);
  std::vector<std::vector<uint64_t>> orders(2);
  std::vector<uint64_t> installs(2), recovered(2);
  for (int run = 0; run < 2; ++run) {
    SweepRig rig;
    ASSERT_OK(rig.Setup(4));
    ConcurrentExecutor::Options eo;
    eo.background_sweep = true;
    ConcurrentExecutor ex(rig.db.get(), eo);
    for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
    ASSERT_OK(ex.Run());
    orders[run] = ex.commit_order();
    installs[run] = ex.last_sweep_install_ns();
    recovered[run] = ex.sweep_recovered();
    metrics[run] = obs::RegistryToJsonValue(rig.db->metrics()).Dump();
    traces[run] = rig.db->tracer().ToJson();
  }
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(installs[0], installs[1]);
  EXPECT_EQ(recovered[0], recovered[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

/// Crash heat harvesting orders the sweep queue hottest-first: the
/// partition whose rows were read the most recovers ahead of colder
/// catalog-order predecessors.
TEST(EventLoopTest, SweepQueueIsHeatOrdered) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(1));
  // Warm a late partition hard, then crash again so the heat harvest
  // includes the reads (Setup's crash only saw the uniform population).
  const int64_t hot_row = rig.row_count() - 1;
  auto t = rig.db->Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.db->Read(t.value(), "r", rig.addrs[hot_row]).status());
  }
  ASSERT_OK(rig.db->Commit(t.value()));
  rig.db->Crash();
  ASSERT_OK(rig.db->Restart());

  PartitionId first;
  ASSERT_TRUE(rig.db->NextSweepItem(&first));
  // The hot row's partition is nowhere near the catalog scan's start, so
  // catalog order would not put it first — heat order must.
  EXPECT_EQ(first, rig.addrs[hot_row].partition);
}

/// A fault on a partition a sweep lane is rebuilding takes that lane's
/// copy: it installs as the on-demand recovery, no second checkpoint
/// image is read, and no rebuild is wasted.
TEST(EventLoopTest, FaultAdoptsTheSweepsInFlightCopy) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(1));
  // Heat the last row's partition so the sweep's one lane takes it first.
  const int64_t hot_row = rig.row_count() - 1;
  const int64_t middle_row = rig.row_count() / 2;
  const PartitionId hot = rig.addrs[hot_row].partition;
  ASSERT_NE(rig.addrs[0].partition, hot);
  ASSERT_NE(rig.addrs[middle_row].partition, hot);
  ASSERT_NE(rig.addrs[middle_row].partition, rig.addrs[0].partition);
  auto t = rig.db->Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.db->Read(t.value(), "r", rig.addrs[hot_row]).status());
  }
  ASSERT_OK(rig.db->Commit(t.value()));
  rig.db->Crash();
  ASSERT_OK(rig.db->Restart());

  // The sweep lane takes the hot partition before the worker's first
  // step, so the worker's first read faults on it while it is in flight.
  // When that copy lands, the lane pulls the next partition in catalog
  // order (row 0's); the worker's second read faults a middle partition,
  // which no lane holds.
  const obs::MetricsRegistry& m = rig.db->metrics();
  const uint64_t pages_before = m.counter_value("disk.ckpt.pages_read");
  const uint64_t faults_before = m.counter_value("recovery.on_demand");
  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  eo.sweep_lanes = 1;
  ConcurrentExecutor ex(rig.db.get(), eo);
  TxnScript ts;
  ts.label = "hot-then-cold";
  for (int64_t row : {hot_row, middle_row}) {
    ts.ops.push_back([addr = rig.addrs[row]](Database& d, Transaction* tx) {
      return d.Read(tx, "r", addr).status();
    });
  }
  ex.Submit(std::move(ts));
  ASSERT_OK(ex.Run());
  ASSERT_EQ(ex.results().size(), 1u);
  EXPECT_EQ(ex.results()[0].outcome, ScriptOutcome::kCommitted);

  EXPECT_EQ(m.counter_value("recovery.adopted_rebuilds"), 1u);
  EXPECT_EQ(m.counter_value("recovery.stale_rebuilds"), 0u);
  const uint64_t faults = m.counter_value("recovery.on_demand") - faults_before;
  EXPECT_EQ(faults, 2u);
  // One image per partition recovered during the run, of 4 pages each.
  EXPECT_EQ(m.counter_value("disk.ckpt.pages_read") - pages_before,
            4 * (faults + ex.sweep_recovered()));
  EXPECT_TRUE(rig.db->FullyResident());
  auto rows = rig.Rows();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows.value().size(), rig.addrs.size());
}

/// Explicit BackgroundRecoveryStep still drains everything under the
/// heat-ordered queue (shared with the executor's sweep).
TEST(EventLoopTest, BackgroundStepsDrainHeatOrderedQueue) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(1));
  bool done = false;
  while (!done) {
    ASSERT_OK(rig.db->BackgroundRecoveryStep(&done));
  }
  EXPECT_TRUE(rig.db->FullyResident());
  auto rows = rig.Rows();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows.value().size(), rig.addrs.size());
}

}  // namespace
}  // namespace mmdb
