#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "core/database.h"
#include "fault/fault.h"
#include "index/linear_hash.h"
#include "index/ttree.h"
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

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

// Reads all rows of `rel` into an id -> tuple map.
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

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : db_(SmallOptions()) {}

  Transaction* MustBegin() {
    auto t = db_.Begin();
    EXPECT_TRUE(t.ok());
    return t.value();
  }

  void InsertAccounts(const std::string& rel, int from, int to) {
    Transaction* t = MustBegin();
    for (int i = from; i < to; ++i) {
      ASSERT_OK(db_.Insert(t, rel, Account(i, i * 10, "u")).status());
    }
    ASSERT_OK(db_.Commit(t));
  }

  Database db_;
};

TEST_F(RecoveryTest, CrashWithoutAnyCheckpointRecoversFromLogAlone) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 100);
  auto before = Snapshot(&db_, "acct");

  db_.Crash();
  // The database refuses work until restarted.
  EXPECT_TRUE(db_.Begin().status().IsInvalidArgument());
  ASSERT_OK(db_.Restart());

  auto after = Snapshot(&db_, "acct");
  EXPECT_EQ(after, before);
}

TEST_F(RecoveryTest, CrashAfterCheckpointsRecoversImagePlusLog) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 200);
  ASSERT_OK(db_.CheckpointEverything());
  // Post-checkpoint mutations live only in the log.
  InsertAccounts("acct", 200, 260);
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.Scan(t, "acct"));
  EntityAddr victim = hits[5].first;
  ASSERT_OK(db_.Delete(t, "acct", victim));
  ASSERT_OK(db_.Commit(t));
  auto before = Snapshot(&db_, "acct");
  ASSERT_EQ(before.size(), 259u);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, UncommittedWorkIsNotRecovered) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 10);
  auto committed = Snapshot(&db_, "acct");

  // In-flight transaction at crash time: all its effects must vanish.
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(999, 1, "ghost")).status());
  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), committed);
}

TEST_F(RecoveryTest, AbortedTransactionStaysAborted) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 10);
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(500, 5, "gone")).status());
  ASSERT_OK(db_.Abort(t));
  auto before = Snapshot(&db_, "acct");

  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, OnDemandRecoveryRestoresLazily) {
  ASSERT_OK(db_.CreateRelation("hot", AccountSchema()));
  ASSERT_OK(db_.CreateRelation("cold", AccountSchema()));
  InsertAccounts("hot", 0, 150);
  InsertAccounts("cold", 0, 150);
  auto hot_before = Snapshot(&db_, "hot");
  auto cold_before = Snapshot(&db_, "cold");

  db_.Crash();
  ASSERT_OK(db_.Restart());
  // Catalogs recovered; data partitions are not yet resident.
  EXPECT_FALSE(db_.FullyResident());
  EXPECT_FALSE(db_.IsRelationResident("hot"));

  // Touching "hot" recovers its partitions on demand; "cold" stays cold.
  EXPECT_EQ(Snapshot(&db_, "hot"), hot_before);
  EXPECT_TRUE(db_.IsRelationResident("hot"));
  EXPECT_FALSE(db_.IsRelationResident("cold"));
  EXPECT_GT(db_.GetStats().on_demand_recoveries, 0u);

  // Background recovery finishes the rest.
  bool done = false;
  int steps = 0;
  while (!done) {
    ASSERT_OK(db_.BackgroundRecoveryStep(&done));
    ASSERT_LT(++steps, 1000);
  }
  EXPECT_TRUE(db_.FullyResident());
  EXPECT_EQ(Snapshot(&db_, "cold"), cold_before);
}

TEST_F(RecoveryTest, PredeclaredRecoveryRestoresWholeRelation) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kTTree));
  InsertAccounts("acct", 0, 100);
  auto before = Snapshot(&db_, "acct");

  db_.Crash();
  ASSERT_OK(db_.Restart());
  ASSERT_OK(db_.RecoverRelation("acct"));
  EXPECT_TRUE(db_.IsRelationResident("acct"));
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, FullReloadPolicyRecoversEverythingAtRestart) {
  DatabaseOptions o = SmallOptions();
  o.restart_policy = RestartPolicy::kFullReload;
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db.Insert(t.value(), "acct", Account(i, i, "u")).status());
  }
  ASSERT_OK(db.Commit(t.value()));
  auto before = Snapshot(&db, "acct");

  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_TRUE(db.FullyResident());
  EXPECT_EQ(db.GetStats().on_demand_recoveries, 0u);
  EXPECT_EQ(Snapshot(&db, "acct"), before);
  // Full reload takes at least as long as the catalog phase alone.
  EXPECT_GE(db.last_restart().total_ms, db.last_restart().catalog_ms);
}

TEST_F(RecoveryTest, IndexesRecoverAndStayConsistent) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("by_bal", "acct", "balance", IndexType::kTTree));
  ASSERT_OK(db_.CreateIndex("by_id", "acct", "id", IndexType::kLinearHash));
  InsertAccounts("acct", 0, 120);
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto addrs, db_.IndexLookup(t, "by_id", 60));
  ASSERT_EQ(addrs.size(), 1u);
  ASSERT_OK(db_.Update(t, "acct", addrs[0], Account(60, 777, "u")));
  ASSERT_OK(db_.Commit(t));

  db_.Crash();
  ASSERT_OK(db_.Restart());

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "by_bal", 777));
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Tuple tuple, db_.Read(t, "acct", hits[0]));
  EXPECT_EQ(std::get<int64_t>(tuple[0]), 60);
  ASSERT_OK_AND_ASSIGN(auto by_id, db_.IndexLookup(t, "by_id", 60));
  ASSERT_EQ(by_id.size(), 1u);
  EXPECT_EQ(by_id[0], hits[0]);
  // The old key must be gone from the T-Tree.
  ASSERT_OK_AND_ASSIGN(auto old_key, db_.IndexLookup(t, "by_bal", 600));
  EXPECT_TRUE(old_key.empty());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(RecoveryTest, RepeatedCrashRestartCycles) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  std::map<int64_t, Tuple> expect;
  for (int cycle = 0; cycle < 5; ++cycle) {
    InsertAccounts("acct", cycle * 20, cycle * 20 + 20);
    if (cycle % 2 == 0) ASSERT_OK(db_.CheckpointEverything());
    auto before = Snapshot(&db_, "acct");
    db_.Crash();
    ASSERT_OK(db_.Restart());
    EXPECT_EQ(Snapshot(&db_, "acct"), before) << "cycle " << cycle;
  }
  EXPECT_EQ(Snapshot(&db_, "acct").size(), 100u);
}

TEST_F(RecoveryTest, WritesAfterRecoveryAreDurable) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 50);
  db_.Crash();
  ASSERT_OK(db_.Restart());
  InsertAccounts("acct", 50, 80);
  auto before = Snapshot(&db_, "acct");
  ASSERT_EQ(before.size(), 80u);
  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, AgeCheckpointsTriggerWithTinyLogWindow) {
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 24;
  o.grace_pages = 8;
  o.n_update = 1000000;  // update-count trigger effectively off
  Database db(o);
  ASSERT_OK(db.CreateRelation("a", AccountSchema()));
  ASSERT_OK(db.CreateRelation("b", AccountSchema()));
  // Interleave: "a" gets lots of traffic, "b" trickles, so b's pages age
  // out of the window. Rounds run until an age checkpoint has completed.
  int rounds = 0;
  for (; rounds < 1000; ++rounds) {
    const DatabaseStats stats = db.GetStats();
    if (stats.checkpoints_age > 0 && stats.checkpoints_completed > 0) break;
    auto t = db.Begin();
    ASSERT_OK(t.status());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          db.Insert(t.value(), "a", Account(rounds * 100 + i, 0, "hot"))
              .status());
    }
    ASSERT_OK(db.Insert(t.value(), "b", Account(rounds, 0, "cool")).status());
    ASSERT_OK(db.Commit(t.value()));
  }
  auto stats = db.GetStats();
  ASSERT_GT(stats.checkpoints_age, 0u);
  ASSERT_GT(stats.checkpoints_completed, 0u);
  // Data still correct afterwards.
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(Snapshot(&db, "b").size(), static_cast<size_t>(rounds));
  EXPECT_EQ(Snapshot(&db, "a").size(), static_cast<size_t>(rounds) * 20);
}

TEST_F(RecoveryTest, MediaFailureRecoveredFromArchive) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 120);
  ASSERT_OK(db_.CheckpointEverything());
  InsertAccounts("acct", 120, 150);
  auto before = Snapshot(&db_, "acct");

  // Checkpoint disk dies and is rebuilt from the archive; then a crash
  // exercises the restored images.
  ASSERT_OK(db_.FailAndRecoverCheckpointDisk());
  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, LogWindowRollReadsNothingFromTheLogDisks) {
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 4;
  o.grace_pages = 0;
  Database db(o);
  ASSERT_OK(db.CreateRelation("a", AccountSchema()));
  for (int round = 0; round < 60; ++round) {
    auto t = db.Begin();
    ASSERT_OK(t.status());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          db.Insert(t.value(), "a", Account(round * 100 + i, 0, "hot"))
              .status());
    }
    ASSERT_OK(db.Commit(t.value()));
  }
  // The window rolled pages onto the archive, but a run without a
  // restart never reads its log: the roll takes each page by reference.
  ASSERT_GT(db.archive().archived_log_pages(), 0u);
  EXPECT_EQ(db.metrics().counter_value("disk.log-a.pages_read"), 0u);
  EXPECT_EQ(db.metrics().find_histogram("disk.log-a.read_ns")->count(), 0u);
  const sim::DuplexedDisk& log = db.log_disks();
  EXPECT_EQ(log.primary().pages_read(), 0u);
  // Both members served the same writes and nothing else.
  EXPECT_EQ(log.primary().busy_ms_total(), log.mirror().busy_ms_total());
}

TEST_F(RecoveryTest, RestartReportsTimings) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 200);
  ASSERT_OK(db_.CheckpointEverything());
  db_.Crash();
  ASSERT_OK(db_.Restart());
  const RestartReport& r = db_.last_restart();
  EXPECT_GT(r.catalog_partitions, 0u);
  EXPECT_GT(r.catalog_ms, 0.0);
  EXPECT_GE(r.total_ms, r.catalog_ms);
}

TEST_F(RecoveryTest, RestartWithoutCrashRejected) {
  EXPECT_TRUE(db_.Restart().IsInvalidArgument());
}

TEST_F(RecoveryTest, CrashOnEmptyDatabaseRestartsClean) {
  db_.Crash();
  ASSERT_OK(db_.Restart());
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 5);
  EXPECT_EQ(Snapshot(&db_, "acct").size(), 5u);
}

TEST_F(RecoveryTest, DmlBeforeRestartRejected) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  db_.Crash();
  EXPECT_TRUE(db_.CreateRelation("x", AccountSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_.Begin().status().IsInvalidArgument());
  ASSERT_OK(db_.Restart());
}

TEST_F(RecoveryTest, TransactionIdsNeverReusedAcrossCrash) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 5);
  uint64_t max_before = db_.slb().max_txn_id();
  db_.Crash();
  ASSERT_OK(db_.Restart());
  Transaction* t = MustBegin();
  EXPECT_GT(t->id(), max_before);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(RecoveryTest, LotsOfPartitionsRecoverCorrectly) {
  // Big enough to span many partitions and exercise the log page
  // directory's anchor walk (directory_entries defaults to 8).
  // Batches run until the relation spans more than three partitions.
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  int batches = 0;
  for (; batches < 200 && rel->partitions.size() <= 3; ++batches) {
    InsertAccounts("acct", batches * 100, batches * 100 + 100);
  }
  ASSERT_GT(rel->partitions.size(), 3u);
  auto before = Snapshot(&db_, "acct");
  ASSERT_EQ(before.size(), static_cast<size_t>(batches) * 100);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

// --- bulk-built indexes ----------------------------------------------------

/// Ids [from, to).
std::vector<int64_t> Ids(int64_t from, int64_t to) {
  std::vector<int64_t> ids(static_cast<size_t>(to - from));
  std::iota(ids.begin(), ids.end(), from);
  return ids;
}

/// Inserts accounts with `ids`, in that order, in 100-row transactions.
void Populate(Database* db, const std::vector<int64_t>& ids) {
  for (size_t next = 0; next < ids.size();) {
    ASSERT_OK_AND_ASSIGN(Transaction * t, db->Begin());
    for (int k = 0; k < 100 && next < ids.size(); ++k, ++next) {
      const int64_t id = ids[next];
      ASSERT_OK(db->Insert(t, "acct", Account(id, id * 10, "u")).status());
    }
    ASSERT_OK(db->Commit(t));
  }
}

/// Key -> the single address its index lookup returns, for keys [lo, hi).
std::map<int64_t, EntityAddr> IndexLookups(Database* db, int64_t lo,
                                           int64_t hi) {
  std::map<int64_t, EntityAddr> out;
  auto t = db->Begin();
  EXPECT_TRUE(t.ok());
  for (int64_t k = lo; k < hi; ++k) {
    auto hits = db->IndexLookup(t.value(), "by_id", k);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (hits.ok() && hits.value().size() == 1) out[k] = hits.value()[0];
  }
  EXPECT_TRUE(db->Commit(t.value()).ok());
  return out;
}

class BulkBuildRecoveryTest
    : public ::testing::TestWithParam<std::tuple<IndexType, RestartPolicy>> {
};

TEST_P(BulkBuildRecoveryTest, BulkBuiltIndexSurvivesCrash) {
  const auto [type, policy] = GetParam();
  DatabaseOptions o = SmallOptions();
  o.restart_policy = policy;
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  Populate(&db, Ids(0, 2000));
  ASSERT_OK(db.CreateIndex("by_id", "acct", "id", type));
  ASSERT_OK(db.CheckpointEverything());
  // Past the images: keys below and above the built range in a shuffled
  // order, so inserts land inside full hash chains and split their nodes
  // and buckets, or overflow the packed T-tree nodes; then deletes.
  std::vector<int64_t> later = Ids(-300, 0);
  for (int64_t id : Ids(2000, 2300)) later.push_back(id);
  Random rng(7);
  for (size_t i = later.size(); i > 1; --i) {
    std::swap(later[i - 1], later[rng.Uniform(i)]);
  }
  Populate(&db, later);
  {
    ASSERT_OK_AND_ASSIGN(Transaction * t, db.Begin());
    for (int64_t k = -300; k < 2300; k += 50) {
      ASSERT_OK_AND_ASSIGN(auto hits, db.IndexLookup(t, "by_id", k));
      ASSERT_EQ(hits.size(), 1u);
      ASSERT_OK(db.Delete(t, "acct", hits[0]));
    }
    ASSERT_OK(db.Commit(t));
  }
  auto before = IndexLookups(&db, -300, 2300);
  ASSERT_EQ(before.size(), 2600u - 52u);
  auto rows = Snapshot(&db, "acct");

  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(db.FullyResident(), policy == RestartPolicy::kFullReload);
  EXPECT_EQ(IndexLookups(&db, -300, 2300), before);
  EXPECT_EQ(Snapshot(&db, "acct"), rows);
  // The restored index still holds its invariants (a hash's chain order
  // included) and every entry.
  ASSERT_OK_AND_ASSIGN(auto* idx, db.catalog().GetIndex("by_id"));
  Database::TxnEntityStore store(&db, nullptr);
  auto expect_intact = [&](const auto& index) {
    EXPECT_OK(index.CheckInvariants(store));
    ASSERT_OK_AND_ASSIGN(size_t n, index.Size(store));
    EXPECT_EQ(n, before.size());
  };
  if (type == IndexType::kTTree) {
    ASSERT_OK_AND_ASSIGN(TTree tree, TTree::Attach(store, idx->segment));
    expect_intact(tree);
  } else {
    ASSERT_OK_AND_ASSIGN(LinearHash hash,
                         LinearHash::Attach(store, idx->segment));
    expect_intact(hash);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndPolicies, BulkBuildRecoveryTest,
    ::testing::Combine(::testing::Values(IndexType::kLinearHash,
                                         IndexType::kTTree),
                       ::testing::Values(RestartPolicy::kOnDemand,
                                         RestartPolicy::kFullReload)));

class WholeIndexFaultTest : public RecoveryTest,
                            public ::testing::WithParamInterface<IndexType> {};

TEST_P(WholeIndexFaultTest, FirstLookupAfterCrashRestoresTheWholeIndex) {
  // A hash keyed on id; a T-tree keyed on balance (id × 10), over enough
  // rows that one root-to-leaf path misses most of its partitions.
  const bool hash = GetParam() == IndexType::kLinearHash;
  const int rows = hash ? 2000 : 13000;
  const int64_t scale = hash ? 1 : 10;
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Populate(&db_, Ids(0, rows));
  ASSERT_OK(db_.CreateIndex("by_key", "acct", hash ? "id" : "balance",
                            GetParam()));
  ASSERT_OK(db_.CheckpointEverything());
  Populate(&db_, Ids(rows, rows + 100));
  ASSERT_OK_AND_ASSIGN(auto* idx, db_.catalog().GetIndex("by_key"));
  const size_t index_partitions = idx->partitions.size();
  ASSERT_GT(index_partitions, hash ? 2u : 12u);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  const uint64_t faults = db_.GetStats().on_demand_recoveries;
  Transaction* t = MustBegin();
  const int64_t logged = rows + 50;  // inserted after the checkpoint
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "by_key", logged * scale));
  // One fault restored every partition of the index, and nothing else.
  EXPECT_EQ(db_.GetStats().on_demand_recoveries - faults, index_partitions);
  ASSERT_OK_AND_ASSIGN(idx, db_.catalog().GetIndex("by_key"));
  for (const PartitionDescriptor& d : idx->partitions) {
    EXPECT_TRUE(d.resident) << d.id.ToString();
  }
  EXPECT_FALSE(db_.IsRelationResident("acct"));
  ASSERT_OK_AND_ASSIGN(auto low, db_.IndexLookup(t, "by_key", 3 * scale));
  EXPECT_EQ(db_.GetStats().on_demand_recoveries - faults, index_partitions);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_EQ(low.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Tuple row, db_.Read(t, "acct", hits[0]));
  EXPECT_EQ(row, Account(logged, logged * 10, "u"));
  ASSERT_OK_AND_ASSIGN(row, db_.Read(t, "acct", low[0]));
  EXPECT_EQ(row, Account(3, 30, "u"));
  ASSERT_OK(db_.Commit(t));
}

INSTANTIATE_TEST_SUITE_P(IndexTypes, WholeIndexFaultTest,
                         ::testing::Values(IndexType::kLinearHash,
                                           IndexType::kTTree));

class IndexBuildCrashTest : public RecoveryTest,
                            public ::testing::WithParamInterface<IndexType> {};

TEST_P(IndexBuildCrashTest, CrashInsideIndexBuildLeavesNoIndex) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Populate(&db_, Ids(0, 2000));
  // The same build in a twin database, counting the stable-memory
  // charges of its log appends; the crash lands half-way through them,
  // once the build has spread over several index partitions.
  uint64_t build_visits = 0;
  std::vector<PartitionId> index_partitions;
  {
    Database twin(SmallOptions());
    ASSERT_OK(twin.CreateRelation("acct", AccountSchema()));
    Populate(&twin, Ids(0, 2000));
    twin.ArmFaultPlan(fault::FaultPlan{});
    ASSERT_OK(twin.CreateIndex("by_id", "acct", "id", GetParam()));
    build_visits = twin.fault_injector().visits(fault::Site::kStableMemAccess);
    ASSERT_OK_AND_ASSIGN(auto* idx, twin.catalog().GetIndex("by_id"));
    ASSERT_GT(idx->partitions.size(), 2u);
    for (const PartitionDescriptor& d : idx->partitions) {
      index_partitions.push_back(d.id);
    }
  }
  auto rows = Snapshot(&db_, "acct");
  fault::FaultPlan plan;
  plan.CrashAtVisit(fault::Site::kStableMemAccess, build_visits / 2);
  db_.ArmFaultPlan(plan);
  Status st = db_.CreateIndex("by_id", "acct", "id", GetParam());
  ASSERT_TRUE(st.IsFault()) << st.ToString();

  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_TRUE(db_.catalog().GetIndex("by_id").status().IsNotFound());
  // The Stable Log Tail bins the build registered are released too.
  for (const PartitionId& pid : index_partitions) {
    EXPECT_TRUE(db_.slt().FindBin(pid).status().IsNotFound())
        << pid.ToString();
  }
  Transaction* t = MustBegin();
  EXPECT_TRUE(db_.IndexLookup(t, "by_id", 5).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));
  EXPECT_EQ(Snapshot(&db_, "acct"), rows);
  // The name is free again and a fresh build works.
  ASSERT_OK(db_.CreateIndex("by_id", "acct", "id", GetParam()));
  EXPECT_EQ(IndexLookups(&db_, 0, 2000).size(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(IndexTypes, IndexBuildCrashTest,
                         ::testing::Values(IndexType::kLinearHash,
                                           IndexType::kTTree));

// --- byte-range REDO records ------------------------------------------------

/// Raw bytes of every resident partition, keyed by partition id.
std::map<PartitionId, std::vector<uint8_t>> ImageMap(Database* db) {
  std::map<PartitionId, std::vector<uint8_t>> out;
  for (Partition* p : db->partitions().AllPartitions()) {
    out[p->id()] = p->image();
  }
  return out;
}

class PatchRecoveryTest
    : public ::testing::TestWithParam<std::tuple<RestartPolicy, uint32_t>> {};

TEST_P(PatchRecoveryTest, CrashAfterPatchedUpdatesRebuildsTheSameBytes) {
  // Same-length updates log only their changed span (kPatch): tuple
  // fields, the T-tree nodes the balance bumps rewrite, and the hash
  // nodes and directory the later inserts rewrite. Replaying the spans
  // onto the checkpoint images must rebuild every partition byte for
  // byte.
  const auto [policy, streams] = GetParam();
  DatabaseOptions o = SmallOptions();
  o.restart_policy = policy;
  o.log_streams = streams;
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  Populate(&db, Ids(0, 600));
  ASSERT_OK(db.CreateIndex("by_id", "acct", "id", IndexType::kLinearHash));
  ASSERT_OK(db.CreateIndex("by_balance", "acct", "balance", IndexType::kTTree));
  ASSERT_OK(db.CheckpointEverything());

  auto rows = Snapshot(&db, "acct");
  for (int round = 0; round < 4; ++round) {
    ASSERT_OK_AND_ASSIGN(Transaction * t, db.Begin());
    ASSERT_OK_AND_ASSIGN(auto hits, db.IndexLookup(t, "by_id", 7));
    ASSERT_EQ(hits.size(), 1u);
    // A one-letter owner change touches no index: one record, one byte.
    ASSERT_OK(db.Update(t, "acct", hits[0],
                        Account(7, 70, round % 2 == 0 ? "v" : "u")));
    ASSERT_OK_AND_ASSIGN(Partition * part,
                         db.partitions().Get(hits[0].partition));
    EXPECT_EQ(t->redo_bytes(),
              testing::RedoSize(LogOp::kPatch, t->id(), *part, hits[0].slot,
                                /*offset=*/20, /*payload=*/1));
    // Balance bumps also move their keys in the T-tree.
    for (int k = 100 + round; k < 600; k += 37) {
      ASSERT_OK_AND_ASSIGN(auto h, db.IndexLookup(t, "by_id", k));
      ASSERT_EQ(h.size(), 1u);
      ASSERT_OK_AND_ASSIGN(Tuple row, db.Read(t, "acct", h[0]));
      row[1] = std::get<int64_t>(row[1]) + 1;
      ASSERT_OK(db.Update(t, "acct", h[0], row));
    }
    ASSERT_OK(db.Commit(t));
  }
  Populate(&db, Ids(600, 700));
  auto after = Snapshot(&db, "acct");
  EXPECT_NE(after, rows);
  auto images = ImageMap(&db);

  db.Crash();
  ASSERT_OK(db.Restart());
  bool done = false;
  while (!done) ASSERT_OK(db.BackgroundRecoveryStep(&done));
  ASSERT_TRUE(db.FullyResident());
  EXPECT_EQ(Snapshot(&db, "acct"), after);
  EXPECT_EQ(IndexLookups(&db, 0, 700).size(), 700u);
  auto recovered = ImageMap(&db);
  ASSERT_EQ(recovered.size(), images.size());
  for (const auto& [pid, bytes] : images) {
    auto it = recovered.find(pid);
    ASSERT_NE(it, recovered.end()) << pid.ToString();
    EXPECT_TRUE(it->second == bytes) << pid.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndStreams, PatchRecoveryTest,
    ::testing::Combine(::testing::Values(RestartPolicy::kOnDemand,
                                         RestartPolicy::kFullReload),
                       ::testing::Values(1u, 4u)));

TEST_F(RecoveryTest, LengthChangingUpdateLogsTheFullImageAndSurvivesRestart) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  InsertAccounts("acct", 0, 50);
  ASSERT_OK(db_.CheckpointEverything());
  auto rows = Snapshot(&db_, "acct");
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.Scan(t, "acct"));
  const EntityAddr addr = hits[5].first;
  const int64_t id = std::get<int64_t>(hits[5].second[0]);
  const Tuple longer = Account(id, 1, "a much longer owner");
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  ASSERT_OK_AND_ASSIGN(auto image, rel->schema.Encode(longer));
  ASSERT_OK(db_.Update(t, "acct", addr, longer));
  ASSERT_OK_AND_ASSIGN(Partition * part, db_.partitions().Get(addr.partition));
  EXPECT_EQ(t->redo_bytes(), testing::RedoSize(LogOp::kUpdate, t->id(), *part,
                                               addr.slot, 0, image.size()));
  ASSERT_OK(db_.Commit(t));
  rows[id] = longer;

  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), rows);
}

// --- checkpoint-disk page ownership ----------------------------------------

namespace {

/// First checkpoint-disk page of the image of `rel`'s first partition.
uint64_t FirstImagePage(Database* db, const std::string& rel) {
  auto r = db->catalog().GetRelation(rel);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.value()->partitions.empty());
  return r.value()->partitions[0].checkpoint_page;
}

/// Pages of every image a committed descriptor names, catalog included.
uint64_t LiveImagePages(Database* db) {
  uint64_t images = 0;
  for (const PartitionDescriptor* d : db->catalog().DataPartitions()) {
    images += d->has_checkpoint() ? 1 : 0;
  }
  auto catalog = db->catalog().PartitionsOf(db->catalog().catalog_segment());
  EXPECT_TRUE(catalog.ok());
  for (const PartitionDescriptor& d : *catalog.value()) {
    images += d.has_checkpoint() ? 1 : 0;
  }
  const DatabaseOptions& o = db->options();
  return images * (o.partition_size_bytes / o.log_page_bytes);
}

/// A crash on the checkpoint disk's first write after arming.
fault::FaultSpec CheckpointWriteCrash() {
  fault::FaultSpec crash;
  crash.site = fault::Site::kDiskWrite;
  crash.kind = fault::FaultKind::kCrash;
  crash.device = "ckpt";
  crash.nth_visit = 1;
  return crash;
}

DatabaseOptions ManualCheckpointOptions() {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  return o;
}

/// Creates "acct" with 150 rows, checkpoints it, then commits one more
/// row, so a restart replays the log over that image. Sets `*image` to
/// the image's first page and `*rows` to the committed rows.
void ImageThenOneMoreRow(Database* db, uint64_t* image,
                         std::map<int64_t, Tuple>* rows) {
  ASSERT_OK(db->CreateRelation("acct", AccountSchema()));
  Transaction* t = db->Begin().value();
  for (int i = 0; i < 150; ++i) {
    ASSERT_OK(db->Insert(t, "acct", Account(i, i, "u")).status());
  }
  ASSERT_OK(db->Commit(t));
  ASSERT_OK(db->ForceCheckpointRelation("acct"));
  *image = FirstImagePage(db, "acct");
  t = db->Begin().value();
  ASSERT_OK(db->Insert(t, "acct", Account(150, 0, "late")).status());
  ASSERT_OK(db->Commit(t));
  *rows = Snapshot(db, "acct");
}

}  // namespace

TEST_F(RecoveryTest, CheckpointDiskKeepsOnlyCommittedImages) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateRelation("gone", AccountSchema()));
  InsertAccounts("acct", 0, 120);
  InsertAccounts("gone", 0, 120);
  ASSERT_OK(db_.CheckpointEverything());
  const uint64_t superseded = FirstImagePage(&db_, "acct");
  const uint64_t dropped = FirstImagePage(&db_, "gone");
  InsertAccounts("acct", 120, 150);
  ASSERT_OK(db_.ForceCheckpointRelation("acct"));
  ASSERT_NE(FirstImagePage(&db_, "acct"), superseded);
  ASSERT_OK(db_.DropRelation("gone"));

  // A committed checkpoint releases the image it superseded, and a
  // committed drop its relation's images: both read as never written.
  sim::Page page;
  EXPECT_TRUE(db_.checkpoint_disk().StoredPage(superseded, &page).IsNotFound());
  EXPECT_TRUE(db_.checkpoint_disk().StoredPage(dropped, &page).IsNotFound());
  EXPECT_EQ(db_.checkpoint_disk().StoredPageNumbers().size(),
            LiveImagePages(&db_));

  auto before = Snapshot(&db_, "acct");
  db_.Crash();
  ASSERT_OK(db_.Restart());
  EXPECT_EQ(Snapshot(&db_, "acct"), before);
}

TEST_F(RecoveryTest, TornCheckpointTrackLeavesTheArchivedImageIntact) {
  Database db(ManualCheckpointOptions());
  uint64_t previous = 0;
  std::map<int64_t, Tuple> rows;
  ASSERT_NO_FATAL_FAILURE(ImageThenOneMoreRow(&db, &previous, &rows));

  // Tear the next image's track and crash on the same visit.
  fault::FaultPlan plan;
  plan.TornWrite("ckpt", 1);
  plan.specs.push_back(CheckpointWriteCrash());
  db.ArmFaultPlan(plan);
  ASSERT_TRUE(db.ForceCheckpointRelation("acct").IsFault());
  db.Crash();
  ASSERT_OK(db.Restart());

  // Media recovery rewrites the checkpoint disk from the archive, whose
  // copy of the previous image the torn track did not touch.
  ASSERT_OK(db.FailAndRecoverCheckpointDisk());
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(FirstImagePage(&db, "acct"), previous);
  EXPECT_EQ(Snapshot(&db, "acct"), rows);
}

TEST_F(RecoveryTest, MediaRecoveryDoesNotRestoreADroppedImage) {
  // Few slots, so the pseudo-circular queue soon hands a dropped
  // relation's slot to the kept one. Media recovery then meets two
  // archived images for that slot; either creation order is dropped once,
  // so the kept image is restored first in one of the two runs.
  for (const bool drop_first : {false, true}) {
    SCOPED_TRACE(drop_first ? "first relation dropped"
                            : "second relation dropped");
    DatabaseOptions o = ManualCheckpointOptions();
    o.checkpoint_disk_slots = 8;
    Database db(o);
    const std::string kept = drop_first ? "second" : "first";
    const std::string dropped = drop_first ? "first" : "second";
    for (const char* rel : {"first", "second"}) {
      ASSERT_OK(db.CreateRelation(rel, AccountSchema()));
      Transaction* t = db.Begin().value();
      for (int i = 0; i < 50; ++i) {
        ASSERT_OK(db.Insert(t, rel, Account(i, i, rel)).status());
      }
      ASSERT_OK(db.Commit(t));
    }
    ASSERT_OK(db.CheckpointEverything());
    const uint64_t freed = FirstImagePage(&db, dropped);
    ASSERT_OK(db.DropRelation(dropped));
    for (int round = 0; FirstImagePage(&db, kept) != freed; ++round) {
      ASSERT_LT(round, 16) << "the slot queue never reached the freed slot";
      ASSERT_OK(db.ForceCheckpointRelation(kept));
    }
    auto rows = Snapshot(&db, kept);

    ASSERT_OK(db.FailAndRecoverCheckpointDisk());
    db.Crash();
    ASSERT_OK(db.Restart());
    EXPECT_EQ(Snapshot(&db, kept), rows);
  }
}

class TrackWriteCrashTest : public ::testing::TestWithParam<RestartPolicy> {};

TEST_P(TrackWriteCrashTest, CrashAtTheTrackWriteBarrierRestartsFromTheOldImage) {
  DatabaseOptions o = ManualCheckpointOptions();
  o.restart_policy = GetParam();
  Database db(o);
  uint64_t old_image = 0;
  std::map<int64_t, Tuple> rows;
  ASSERT_NO_FATAL_FAILURE(ImageThenOneMoreRow(&db, &old_image, &rows));

  // The next image's track write never lands; the crash surfaces at the
  // barrier after it, so the install rolls back. The old image was freed
  // in memory but the free never committed, so it must still be there.
  fault::FaultPlan plan;
  plan.specs.push_back(CheckpointWriteCrash());
  db.ArmFaultPlan(plan);
  ASSERT_TRUE(db.ForceCheckpointRelation("acct").IsFault());
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(FirstImagePage(&db, "acct"), old_image);
  sim::Page page;
  ASSERT_OK(db.checkpoint_disk().StoredPage(old_image, &page));
  EXPECT_EQ(Snapshot(&db, "acct"), rows);
}

INSTANTIATE_TEST_SUITE_P(RestartPolicies, TrackWriteCrashTest,
                         ::testing::Values(RestartPolicy::kFullReload,
                                           RestartPolicy::kOnDemand));

}  // namespace
}  // namespace mmdb
