#include <gtest/gtest.h>

#include <numeric>
#include <set>

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

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(SmallOptions()) {}

  Transaction* MustBegin() {
    auto t = db_.Begin();
    EXPECT_TRUE(t.ok());
    return t.value();
  }

  Database db_;
};

TEST_F(DatabaseTest, CreateRelationAndInsertRead) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "acct", a));
  EXPECT_EQ(back, Account(1, 100, "alice"));
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, DuplicateRelationRejected) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  EXPECT_TRUE(
      db_.CreateRelation("acct", AccountSchema()).IsInvalidArgument());
}

TEST_F(DatabaseTest, InsertValidatesSchema) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  EXPECT_TRUE(db_.Insert(t, "acct", Tuple{int64_t{1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_.Insert(t, "nope", Account(1, 1, "x")).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK(db_.Update(t, "acct", a, Account(1, 250, "alice")));
  ASSERT_OK_AND_ASSIGN(Tuple mid, db_.Read(t, "acct", a));
  EXPECT_EQ(std::get<int64_t>(mid[1]), 250);
  ASSERT_OK(db_.Delete(t, "acct", a));
  EXPECT_TRUE(db_.Read(t, "acct", a).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, ScanSeesAllCommittedRows) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, i * 10, "own")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "acct"));
  EXPECT_EQ(rows.size(), 300u);
  std::set<int64_t> ids;
  for (const auto& [addr, tuple] : rows) ids.insert(std::get<int64_t>(tuple[0]));
  EXPECT_EQ(ids.size(), 300u);
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  EXPECT_GE(rel->partitions.size(), 1u);
}

TEST_F(DatabaseTest, AbortRollsBackEverything) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK(db_.Update(t, "acct", a, Account(1, 999, "mallory")));
  ASSERT_OK_AND_ASSIGN(EntityAddr b,
                       db_.Insert(t, "acct", Account(2, 5, "bob")));
  ASSERT_OK(db_.Abort(t));

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "acct", a));
  EXPECT_EQ(back, Account(1, 100, "alice"));
  EXPECT_TRUE(db_.Read(t, "acct", b).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "acct"));
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, AbortedPatchedUpdateRestoresThePreImage) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK_AND_ASSIGN(Partition * p, db_.partitions().Get(a.partition));
  const std::vector<uint8_t> image = p->image();

  // Same length, so the REDO record is a patch; the UNDO record is the
  // whole pre-image.
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  ASSERT_OK_AND_ASSIGN(auto post, rel->schema.Encode(Account(1, 300, "alicE")));
  t = MustBegin();
  ASSERT_OK(db_.Update(t, "acct", a, Account(1, 300, "alicE")));
  EXPECT_LT(t->redo_bytes(), 25u + 2 + post.size());
  EXPECT_NE(p->image(), image);
  ASSERT_OK(db_.Abort(t));
  EXPECT_EQ(p->image(), image);

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "acct", a));
  EXPECT_EQ(back, Account(1, 100, "alice"));
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, TTreeIndexMaintainedByDml) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_bal", "acct", "balance", IndexType::kTTree));
  Transaction* t = MustBegin();
  std::vector<EntityAddr> addrs;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(EntityAddr a,
                         db_.Insert(t, "acct", Account(i, i % 10, "x")));
    addrs.push_back(a);
  }
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_bal", 3));
  EXPECT_EQ(hits.size(), 10u);
  ASSERT_OK_AND_ASSIGN(auto range, db_.IndexRange(t, "acct_bal", 2, 4));
  EXPECT_EQ(range.size(), 30u);
  for (size_t i = 1; i < range.size(); ++i) {
    EXPECT_LE(range[i - 1].key, range[i].key);
  }
  ASSERT_OK(db_.Update(t, "acct", addrs[3], Account(3, 77, "x")));
  ASSERT_OK(db_.Delete(t, "acct", addrs[13]));
  ASSERT_OK_AND_ASSIGN(auto after, db_.IndexLookup(t, "acct_bal", 3));
  EXPECT_EQ(after.size(), 8u);
  ASSERT_OK_AND_ASSIGN(auto moved, db_.IndexLookup(t, "acct_bal", 77));
  EXPECT_EQ(moved.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, HashIndexMaintainedByDml) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kLinearHash));
  Transaction* t = MustBegin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  for (int i = 0; i < 200; i += 17) {
    ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_id", i));
    ASSERT_EQ(hits.size(), 1u) << i;
    ASSERT_OK_AND_ASSIGN(Tuple tuple, db_.Read(t, "acct", hits[0]));
    EXPECT_EQ(std::get<int64_t>(tuple[0]), i);
  }
  EXPECT_TRUE(db_.IndexRange(t, "acct_id", 0, 5).status().IsNotSupported());
  ASSERT_OK(db_.Commit(t));
}

TEST(DatabaseHashGrowthTest, HashIndexGrowsOverRandomOrderInserts) {
  // An empty hash index grows by splits alone: 25,000 keys in a random
  // order, 100 rows per transaction, at the default geometry (48 KB
  // partitions, 8 KB log pages).
  Database db;
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db.CreateIndex("acct_id", "acct", "id", IndexType::kLinearHash));
  constexpr int64_t kKeys = 25000;
  std::vector<int64_t> ids(kKeys);
  std::iota(ids.begin(), ids.end(), 0);
  Random rng(3);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  }
  for (size_t next = 0; next < ids.size();) {
    ASSERT_OK_AND_ASSIGN(Transaction * t, db.Begin());
    for (int k = 0; k < 100 && next < ids.size(); ++k, ++next) {
      ASSERT_OK(db.Insert(t, "acct", Account(ids[next], 0, "x")).status());
    }
    ASSERT_OK(db.Commit(t));
  }
  ASSERT_OK_AND_ASSIGN(Transaction * t, db.Begin());
  for (int64_t i = 0; i < kKeys; i += 11) {
    ASSERT_OK_AND_ASSIGN(auto hits, db.IndexLookup(t, "acct_id", i));
    ASSERT_EQ(hits.size(), 1u) << i;
    ASSERT_OK_AND_ASSIGN(Tuple tuple, db.Read(t, "acct", hits[0]));
    EXPECT_EQ(std::get<int64_t>(tuple[0]), i);
  }
  ASSERT_OK(db.Commit(t));
  // About 3,500 nodes of 178 bytes fill a dozen or two 48 KB partitions.
  ASSERT_OK_AND_ASSIGN(auto* idx, db.catalog().GetIndex("acct_id"));
  EXPECT_LT(idx->partitions.size(), 30u) << idx->partitions.size();
}

TEST_F(DatabaseTest, MixedSizeChurnReusesFreedSpace) {
  // Deleting rows and inserting longer ones leaves partitions whose free
  // space and garbage each fall short of a new row while together they
  // hold it. Such a partition must take the row, and the relation must
  // not grow while its live data does not.
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Random rng(11);
  auto owner = [&] {
    return std::string(static_cast<size_t>(rng.UniformRange(10, 400)), 'o');
  };
  std::vector<EntityAddr> live;
  Transaction* t = MustBegin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(EntityAddr a,
                         db_.Insert(t, "acct", Account(i, 0, owner())));
    live.push_back(a);
  }
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  const size_t before = rel->partitions.size();
  for (int round = 0; round < 60; ++round) {
    t = MustBegin();
    for (int k = 0; k < 20; ++k) {
      EntityAddr& victim = live[rng.Uniform(live.size())];
      ASSERT_OK(db_.Delete(t, "acct", victim));
      ASSERT_OK_AND_ASSIGN(
          victim, db_.Insert(t, "acct", Account(1000 + round * 20 + k, 0,
                                                owner())));
    }
    ASSERT_OK(db_.Commit(t));
  }
  EXPECT_LE(rel->partitions.size(), before + 1);
}

TEST_F(DatabaseTest, IndexBackfillOnCreate) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, i, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK(db_.CreateIndex("late", "acct", "id", IndexType::kTTree));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "late", 31));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, IndexOnStringColumnRejected) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  EXPECT_TRUE(db_.CreateIndex("bad", "acct", "owner", IndexType::kTTree)
                  .IsNotSupported());
}

TEST_F(DatabaseTest, AbortedIndexInsertsRolledBack) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kTTree));
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(7, 0, "x")).status());
  ASSERT_OK(db_.Abort(t));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_id", 7));
  EXPECT_TRUE(hits.empty());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, LockConflictsSurfaceAsBusy) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t1 = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t1, "acct", Account(1, 1, "x")));
  ASSERT_OK(db_.Commit(t1));

  t1 = MustBegin();
  Transaction* t2 = MustBegin();
  ASSERT_OK(db_.Update(t1, "acct", a, Account(1, 2, "x")));
  EXPECT_TRUE(db_.Update(t2, "acct", a, Account(1, 3, "x")).IsBusy());
  EXPECT_TRUE(db_.Read(t2, "acct", a).status().IsBusy());
  ASSERT_OK(db_.Commit(t1));
  ASSERT_OK(db_.Update(t2, "acct", a, Account(1, 4, "x")));
  ASSERT_OK(db_.Commit(t2));
}

TEST_F(DatabaseTest, RecoveryPumpDrainsSlbBacklog) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  EXPECT_EQ(db_.slb().committed_backlog_records(), 0u);
  auto stats = db_.GetStats();
  EXPECT_GE(stats.records_sorted, 50u);
  EXPECT_EQ(stats.records_logged, stats.records_sorted);
}

TEST_F(DatabaseTest, UpdateCountCheckpointsTriggerAutomatically) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  for (int round = 0; round < 40; ++round) {
    Transaction* t = MustBegin();
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db_.Insert(t, "acct", Account(round * 10 + i, 0, "y"))
                    .status());
    }
    ASSERT_OK(db_.Commit(t));
  }
  auto stats = db_.GetStats();
  EXPECT_GT(stats.checkpoints_completed, 0u);
  EXPECT_GT(stats.checkpoints_update_count, 0u);
}

TEST_F(DatabaseTest, StatsAccumulate) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(1, 1, "x")).status());
  ASSERT_OK(db_.Commit(t));
  auto s = db_.GetStats();
  EXPECT_GE(s.txns_committed, 2u);  // system txns count too
  EXPECT_GT(s.records_logged, 0u);
  EXPECT_GT(s.main_cpu_instructions, 0.0);
  EXPECT_GT(s.recovery_cpu_instructions, 0.0);
  EXPECT_GT(s.partitions_resident, 0u);
}

TEST_F(DatabaseTest, ManyRelations) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(db_.CreateRelation("rel" + std::to_string(i), AccountSchema()));
  }
  Transaction* t = MustBegin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(
        db_.Insert(t, "rel" + std::to_string(i), Account(i, i, "z")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "rel" + std::to_string(i)));
    EXPECT_EQ(rows.size(), 1u);
  }
  ASSERT_OK(db_.Commit(t));
}

// log_streams = 0 reads as one stream, through a commit, a crash and a
// restart.
TEST(DatabaseOptionsTest, ZeroLogStreamsReadsAsOne) {
  DatabaseOptions o = SmallOptions();
  o.log_streams = 0;
  Database db(o);
  EXPECT_EQ(db.log_streams(), 1u);
  EXPECT_EQ(db.options().log_streams, 1u);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK(db.Insert(t.value(), "acct", Account(1, 10, "x")).status());
  ASSERT_OK(db.Commit(t.value()));
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(db.last_restart().epoch_frontier, UINT32_MAX);
  t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(t.value(), "acct"));
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_OK(db.Commit(t.value()));
}

TEST(DatabaseOptionsTest, ValidateNamesEachBadField) {
  struct Row {
    const char* field;
    void (*edit)(DatabaseOptions*);
  };
  const Row rows[] = {
      {"log_page_bytes", [](DatabaseOptions* o) { o->log_page_bytes = 0; }},
      {"epoch_interval_ns",
       [](DatabaseOptions* o) {
         o->log_streams = 2;
         o->epoch_interval_ns = 0;
       }},
      {"partition_size_bytes",
       [](DatabaseOptions* o) {
         o->partition_size_bytes = 2048;
         o->log_page_bytes = 1024;
       }},
      // A page size that does not divide the partition.
      {"partition_size_bytes",
       [](DatabaseOptions* o) { o->log_page_bytes = 3000; }},
      // Slot numbers past 2^16 would not fit an index ref.
      {"partition_size_bytes",
       [](DatabaseOptions* o) {
         o->partition_size_bytes = DatabaseOptions::kMaxPartitionBytes * 2;
       }},
      {"slb_block_bytes",
       [](DatabaseOptions* o) {
         o->slb_block_bytes = 4096;
         o->slb_capacity_bytes = 2048;
       }},
  };
  ASSERT_OK(SmallOptions().Validate());
  ASSERT_OK(DatabaseOptions{}.Validate());
  DatabaseOptions largest = SmallOptions();
  largest.partition_size_bytes = DatabaseOptions::kMaxPartitionBytes;
  ASSERT_OK(largest.Validate());
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    DatabaseOptions o = SmallOptions();
    row.edit(&o);
    Status st = o.Validate();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find(row.field), std::string::npos)
        << st.ToString();
  }
}

// The constructor checks Validate() before its first division by the
// options: a zero log page size would divide inside its own page-count
// set-up, and a zero epoch interval at the first commit of a
// multi-stream database.
TEST(DatabaseOptionsDeathTest, ZeroLogPageBytesIsRejected) {
  DatabaseOptions o = SmallOptions();
  o.log_page_bytes = 0;
  EXPECT_DEATH({ Database db(o); }, "log_page_bytes must be positive");
}

TEST(DatabaseOptionsDeathTest, ZeroEpochIntervalWithSeveralStreamsIsRejected) {
  DatabaseOptions o = SmallOptions();
  o.log_streams = 2;
  o.epoch_interval_ns = 0;
  EXPECT_DEATH({ Database db(o); }, "epoch_interval_ns must be positive");
  // One stream never stamps epochs, so the interval is unused there.
  o.log_streams = 1;
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
}

TEST_F(DatabaseTest, ForceCheckpointRelationCoversIndexes) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kTTree));
  Transaction* t = MustBegin();
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK(db_.ForceCheckpointRelation("acct"));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  for (const auto& d : rel->partitions) EXPECT_TRUE(d.has_checkpoint());
  ASSERT_OK_AND_ASSIGN(auto* idx, db_.catalog().GetIndex("acct_id"));
  for (const auto& d : idx->partitions) EXPECT_TRUE(d.has_checkpoint());
}

}  // namespace
}  // namespace mmdb
