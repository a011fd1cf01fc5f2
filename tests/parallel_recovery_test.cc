// Parallel (multi-lane, pipelined) recovery: determinism across lane
// counts and log-stream counts, on-demand recovery racing the background
// sweep, DDL invalidating the sweep queue, a stale rebuilt copy dropped
// at install, and crash-again-during-recovery.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kInt64},
                 {"owner", ColumnType::kString}});
}

Tuple Account(int64_t id, int64_t balance, const std::string& owner) {
  return Tuple{id, balance, owner};
}

DatabaseOptions LaneOptions(uint32_t lanes, bool pipelined = true,
                            uint32_t log_streams = 1) {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  o.recovery_parallelism = lanes;
  o.pipelined_recovery = pipelined;
  o.log_streams = log_streams;
  return o;
}

/// The stream counts every full-reload test runs at: the single log, and
/// a partitioned log whose rebuilds merge four chains per partition.
constexpr uint32_t kStreamCounts[] = {1, 4};

constexpr int kRelations = 4;
constexpr int kRowsPerRelation = 150;

std::string Rel(int r) { return "rel" + std::to_string(r); }

/// Deterministic workload: populate several relations, checkpoint, then
/// apply post-checkpoint updates (so recovery must replay log), crash.
void BuildAndCrash(Database* db) {
  for (int r = 0; r < kRelations; ++r) {
    ASSERT_OK(db->CreateRelation(Rel(r), AccountSchema()));
    auto t = db->Begin();
    ASSERT_OK(t.status());
    for (int i = 0; i < kRowsPerRelation; ++i) {
      ASSERT_OK(db->Insert(t.value(), Rel(r), Account(i, i * 10, "u"))
                    .status());
    }
    ASSERT_OK(db->Commit(t.value()));
  }
  ASSERT_OK(db->CheckpointEverything());
  Random rng(7);
  for (int r = 0; r < kRelations; ++r) {
    auto t = db->Begin();
    ASSERT_OK(t.status());
    auto rows = db->Scan(t.value(), Rel(r));
    ASSERT_OK(rows.status());
    for (int k = 0; k < 25; ++k) {
      auto& [a, tuple] = rows.value()[rng.Uniform(rows.value().size())];
      Tuple t2 = tuple;
      t2[1] = std::get<int64_t>(t2[1]) + 3;
      ASSERT_OK(db->Update(t.value(), Rel(r), a, t2));
    }
    ASSERT_OK(db->Commit(t.value()));
  }
  db->Crash();
}

std::map<int64_t, Tuple> Snapshot(Database* db, const std::string& rel) {
  auto txn = db->Begin();
  EXPECT_TRUE(txn.ok());
  auto rows = db->Scan(txn.value(), rel);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<int64_t, Tuple> out;
  for (auto& [addr, tuple] : rows.value()) {
    out[std::get<int64_t>(tuple[0])] = tuple;
  }
  EXPECT_TRUE(db->Commit(txn.value()).ok());
  return out;
}

/// Raw bytes of every resident partition, keyed by partition id.
std::map<PartitionId, std::vector<uint8_t>> ImageMap(Database* db) {
  std::map<PartitionId, std::vector<uint8_t>> out;
  for (Partition* p : db->partitions().AllPartitions()) {
    out[p->id()] = p->image();
  }
  return out;
}

void RunSweep(Database* db) {
  bool done = false;
  int steps = 0;
  while (!done) {
    ASSERT_OK(db->BackgroundRecoveryStep(&done));
    ASSERT_LT(++steps, 1000);
  }
}

TEST(ParallelRecoveryTest, LaneCountsProduceByteIdenticalState) {
  // The same crash recovered with 1 lane and with 4 lanes must yield
  // byte-identical partitions — parallelism reorders device traffic, not
  // record application.
  for (uint32_t streams : kStreamCounts) {
    SCOPED_TRACE("log_streams=" + std::to_string(streams));
    std::map<PartitionId, std::vector<uint8_t>> images[2];
    std::map<int64_t, Tuple> snaps[2];
    const uint32_t lane_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions o = LaneOptions(lane_counts[i], true, streams);
      o.restart_policy = RestartPolicy::kFullReload;
      Database db(o);
      BuildAndCrash(&db);
      ASSERT_OK(db.Restart());
      ASSERT_TRUE(db.FullyResident());
      images[i] = ImageMap(&db);
      snaps[i] = Snapshot(&db, Rel(0));
    }
    EXPECT_EQ(snaps[0], snaps[1]);
    ASSERT_EQ(images[0].size(), images[1].size());
    EXPECT_EQ(images[0], images[1]);
  }
}

TEST(ParallelRecoveryTest, ReplayBooksNoMainCpuInstructions) {
  // A rebuild's record applies (and, with several streams, its merge)
  // run on a recovery lane, whose CPU timeline carries their time. The
  // main CPU did none of that work, so its instruction total stays put.
  for (uint32_t streams : kStreamCounts) {
    SCOPED_TRACE("log_streams=" + std::to_string(streams));
    DatabaseOptions o = LaneOptions(2, true, streams);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    const double before = db.main_cpu().total_instructions();
    ASSERT_OK(db.Restart());
    ASSERT_GT(db.last_restart().records_applied, 0u);
    EXPECT_EQ(db.main_cpu().total_instructions(), before);
  }
}

TEST(ParallelRecoveryTest, SameLaneCountIsFullyDeterministic) {
  // Same seed + same lane count: identical virtual end timestamps on
  // repeated runs, down to the nanosecond.
  double total_ms[2] = {0, 0}, end_ms[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    DatabaseOptions o = LaneOptions(4);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    ASSERT_OK(db.Restart());
    total_ms[run] = db.last_restart().total_ms;
    end_ms[run] = db.now_ms();
  }
  EXPECT_EQ(total_ms[0], total_ms[1]);
  EXPECT_EQ(end_ms[0], end_ms[1]);
}

TEST(ParallelRecoveryTest, MoreLanesRecoverFaster) {
  // With post-checkpoint log to apply, four lanes amortize the exposed
  // per-partition apply time; full reload must get strictly faster.
  for (uint32_t streams : kStreamCounts) {
    SCOPED_TRACE("log_streams=" + std::to_string(streams));
    double t_lanes[2] = {0, 0};
    const uint32_t lane_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions o = LaneOptions(lane_counts[i], true, streams);
      o.restart_policy = RestartPolicy::kFullReload;
      Database db(o);
      BuildAndCrash(&db);
      ASSERT_OK(db.Restart());
      t_lanes[i] = db.last_restart().total_ms;
    }
    EXPECT_LT(t_lanes[1], t_lanes[0]);
  }
}

TEST(ParallelRecoveryTest, SerialAblationMatchesPipelinedState) {
  // Without pipelining the same rebuild runs with no overlap (the walk
  // waits for the image, the apply for the last read); the recovered
  // state must match the pipelined result.
  for (uint32_t streams : kStreamCounts) {
    SCOPED_TRACE("log_streams=" + std::to_string(streams));
    std::map<PartitionId, std::vector<uint8_t>> images[2];
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions o = LaneOptions(1, /*pipelined=*/i == 1, streams);
      o.restart_policy = RestartPolicy::kFullReload;
      Database db(o);
      BuildAndCrash(&db);
      ASSERT_OK(db.Restart());
      images[i] = ImageMap(&db);
    }
    EXPECT_EQ(images[0], images[1]);
  }
}

TEST(ParallelRecoveryTest, OnDemandRecoveryRacesBackgroundSweep) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);  // kOnDemand
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());
  EXPECT_FALSE(db.FullyResident());

  // One background batch, then a transaction demands a relation the sweep
  // may or may not have reached — on-demand and the sweep must agree.
  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  auto hot = Snapshot(&db, Rel(kRelations - 1));
  EXPECT_TRUE(db.IsRelationResident(Rel(kRelations - 1)));
  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  for (int r = 0; r < kRelations; ++r) {
    EXPECT_EQ(Snapshot(&db, Rel(r)).size(), size_t(kRowsPerRelation));
  }
  EXPECT_EQ(Snapshot(&db, Rel(kRelations - 1)), hot);
}

TEST(ParallelRecoveryTest, DdlMidSweepRebuildsQueue) {
  DatabaseOptions o = LaneOptions(2);
  Database db(o);
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());

  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  ASSERT_FALSE(done);
  // DDL between sweep steps changes which partitions exist, so the sweep
  // queue is rebuilt — and the sweep still terminates with everything
  // resident.
  ASSERT_OK(db.CreateRelation("fresh", AccountSchema()));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK(db.Insert(t.value(), "fresh", Account(1, 1, "n")).status());
  ASSERT_OK(db.Commit(t.value()));

  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  EXPECT_EQ(Snapshot(&db, "fresh").size(), 1u);
  for (int r = 0; r < kRelations; ++r) {
    EXPECT_EQ(Snapshot(&db, Rel(r)).size(), size_t(kRowsPerRelation));
  }
}

TEST(ParallelRecoveryTest, InstallDropsCopyMadeStaleByOnDemandFault) {
  Database db(LaneOptions(1));  // kOnDemand
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());

  // Rebuild a cold partition off to the side, as a sweep lane would.
  PartitionId pid;
  ASSERT_TRUE(db.NextSweepItem(&pid));
  Database::RecoveryLane lane(0);
  ASSERT_OK_AND_ASSIGN(
      Database::RebuiltPartition rebuilt,
      db.RebuildPartition(pid, db.now_ns(), &lane,
                          Database::LogReads::kPrimary));

  // Before it installs, a transaction faults the same partition in on
  // demand and updates a row in it.
  std::string rel;
  for (int r = 0; r < kRelations && rel.empty(); ++r) {
    for (const PartitionDescriptor& d :
         db.catalog().GetRelation(Rel(r)).value()->partitions) {
      if (d.id == pid) rel = Rel(r);
    }
  }
  ASSERT_FALSE(rel.empty());
  auto t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(t.value(), rel));
  EntityAddr addr;
  Tuple updated;
  for (auto& [a, tuple] : rows) {
    if (a.partition == pid) {
      addr = a;
      updated = tuple;
      break;
    }
  }
  ASSERT_EQ(addr.partition, pid);
  updated[1] = int64_t{-1};
  ASSERT_OK(db.Update(t.value(), rel, addr, updated));
  ASSERT_OK(db.Commit(t.value()));
  ASSERT_OK_AND_ASSIGN(Partition * faulted, db.partitions().Get(pid));

  // The rebuilt copy predates the update: Install must drop it, and
  // counts the wasted rebuild.
  const uint64_t stale_before =
      db.metrics().counter_value("recovery.stale_rebuilds");
  ASSERT_OK_AND_ASSIGN(
      bool installed,
      db.Install(std::move(rebuilt), RecoverySource::kBackground));
  EXPECT_FALSE(installed);
  EXPECT_EQ(db.metrics().counter_value("recovery.stale_rebuilds"),
            stale_before + 1);
  ASSERT_OK_AND_ASSIGN(Partition * resident, db.partitions().Get(pid));
  EXPECT_EQ(resident, faulted);
  auto t2 = db.Begin();
  ASSERT_OK(t2.status());
  ASSERT_OK_AND_ASSIGN(Tuple read, db.Read(t2.value(), rel, addr));
  EXPECT_EQ(read, updated);
  ASSERT_OK(db.Commit(t2.value()));
}

TEST(ParallelRecoveryTest, CrashDuringParallelRestartRecoversAgain) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());

  // Partially through the parallel background sweep, crash again.
  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  db.Crash();
  ASSERT_OK(db.Restart());
  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  for (int r = 0; r < kRelations; ++r) {
    auto snap = Snapshot(&db, Rel(r));
    ASSERT_EQ(snap.size(), size_t(kRowsPerRelation));
    // Spot-check a recovered post-checkpoint update survived both
    // crashes: balances are id*10 plus multiples of 3.
    for (auto& [id, tuple] : snap) {
      int64_t delta = std::get<int64_t>(tuple[1]) - id * 10;
      EXPECT_GE(delta, 0);
      EXPECT_EQ(delta % 3, 0);
    }
  }
}

TEST(ParallelRecoveryTest, RecoverRelationUsesLanes) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db.CreateIndex("by_id", "acct", "id", IndexType::kTTree));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(db.Insert(t.value(), "acct", Account(i, i, "u")).status());
  }
  ASSERT_OK(db.Commit(t.value()));
  auto before = Snapshot(&db, "acct");

  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_OK(db.RecoverRelation("acct"));
  EXPECT_TRUE(db.IsRelationResident("acct"));
  EXPECT_EQ(Snapshot(&db, "acct"), before);
  auto t2 = db.Begin();
  ASSERT_OK(t2.status());
  ASSERT_OK_AND_ASSIGN(auto hits, db.IndexLookup(t2.value(), "by_id", 200));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db.Commit(t2.value()));
}

}  // namespace
}  // namespace mmdb
