// Deeper recovery correctness: structural invariants of recovered
// indexes, crashes in the middle of background recovery, and recovery
// interleaved with new update traffic.

#include <gtest/gtest.h>

#include "core/database.h"
#include "index/linear_hash.h"
#include "index/ttree.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

Schema S() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
}

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

Status Fill(Database* db, const std::string& rel, int from, int to) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  for (int i = from; i < to; ++i) {
    auto a = db->Insert(txn.value(), rel, Tuple{static_cast<int64_t>(i),
                                                static_cast<int64_t>(i % 7)});
    if (!a.ok()) return a.status();
  }
  return db->Commit(txn.value());
}

class RecoveryInvariantsTest : public ::testing::Test {
 protected:
  RecoveryInvariantsTest() : db_(SmallOptions()) {}
  Database db_;
};

TEST_F(RecoveryInvariantsTest, RecoveredTTreeSatisfiesAllInvariants) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(db_.CreateIndex("r_id", "r", "id", IndexType::kTTree));
  Random rng(1);
  // Mixed inserts and deletes to exercise rotations and splices.
  ASSERT_OK(Fill(&db_, "r", 0, 500));
  {
    auto txn = db_.Begin();
    ASSERT_OK(txn.status());
    for (int i = 0; i < 150; ++i) {
      int64_t key = rng.UniformRange(0, 499);
      auto hits = db_.IndexLookup(txn.value(), "r_id", key);
      ASSERT_OK(hits.status());
      if (!hits.value().empty()) {
        ASSERT_OK(db_.Delete(txn.value(), "r", hits.value()[0]));
      }
    }
    ASSERT_OK(db_.Commit(txn.value()));
  }

  db_.Crash();
  ASSERT_OK(db_.Restart());
  ASSERT_OK(db_.RecoverRelation("r"));

  // Validate the recovered T-Tree's structural invariants directly.
  ASSERT_OK_AND_ASSIGN(auto* idx, db_.catalog().GetIndex("r_id"));
  Database::TxnEntityStore store(&db_, nullptr);
  ASSERT_OK_AND_ASSIGN(TTree tree, TTree::Attach(store, idx->segment));
  ASSERT_OK(tree.CheckInvariants(store));

  // And that it agrees with the base relation exactly.
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  ASSERT_OK_AND_ASSIGN(size_t tree_size, tree.Size(store));
  EXPECT_EQ(tree_size, rows.size());
  for (auto& [addr, tuple] : rows) {
    auto hits = db_.IndexLookup(txn.value(), "r_id",
                                std::get<int64_t>(tuple[0]));
    ASSERT_OK(hits.status());
    EXPECT_EQ(std::count(hits.value().begin(), hits.value().end(), addr), 1);
  }
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(RecoveryInvariantsTest, RecoveredHashSatisfiesAllInvariants) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(db_.CreateIndex("r_id", "r", "id", IndexType::kLinearHash));
  ASSERT_OK(Fill(&db_, "r", 0, 600));  // forces splits
  db_.Crash();
  ASSERT_OK(db_.Restart());
  ASSERT_OK(db_.RecoverRelation("r"));

  ASSERT_OK_AND_ASSIGN(auto* idx, db_.catalog().GetIndex("r_id"));
  Database::TxnEntityStore store(&db_, nullptr);
  ASSERT_OK_AND_ASSIGN(LinearHash hash,
                       LinearHash::Attach(store, idx->segment));
  ASSERT_OK(hash.CheckInvariants(store));
  ASSERT_OK_AND_ASSIGN(size_t n, hash.Size(store));
  EXPECT_EQ(n, 600u);
}

TEST_F(RecoveryInvariantsTest, CrashDuringBackgroundRecovery) {
  for (int r = 0; r < 6; ++r) {
    ASSERT_OK(db_.CreateRelation("rel" + std::to_string(r), S()));
    ASSERT_OK(Fill(&db_, "rel" + std::to_string(r), 0, 150));
  }
  db_.Crash();
  ASSERT_OK(db_.Restart());
  // Recover only part of the database, then crash again mid-way.
  bool done = false;
  for (int i = 0; i < 3 && !done; ++i) {
    ASSERT_OK(db_.BackgroundRecoveryStep(&done));
  }
  db_.Crash();
  ASSERT_OK(db_.Restart());
  done = false;
  while (!done) ASSERT_OK(db_.BackgroundRecoveryStep(&done));
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  for (int r = 0; r < 6; ++r) {
    ASSERT_OK_AND_ASSIGN(auto rows,
                         db_.Scan(txn.value(), "rel" + std::to_string(r)));
    EXPECT_EQ(rows.size(), 150u) << "rel" << r;
  }
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(RecoveryInvariantsTest, UpdatesDuringPartialResidencyAreDurable) {
  ASSERT_OK(db_.CreateRelation("hot", S()));
  ASSERT_OK(db_.CreateRelation("cold", S()));
  ASSERT_OK(Fill(&db_, "hot", 0, 100));
  ASSERT_OK(Fill(&db_, "cold", 0, 100));
  db_.Crash();
  ASSERT_OK(db_.Restart());

  // Touch only "hot" (on-demand recovery), write new data to it while
  // "cold" is still disk-resident, then crash again before cold was ever
  // recovered.
  ASSERT_OK(Fill(&db_, "hot", 100, 140));
  EXPECT_FALSE(db_.IsRelationResident("cold"));
  db_.Crash();
  ASSERT_OK(db_.Restart());

  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto hot, db_.Scan(txn.value(), "hot"));
  EXPECT_EQ(hot.size(), 140u);
  ASSERT_OK_AND_ASSIGN(auto cold, db_.Scan(txn.value(), "cold"));
  EXPECT_EQ(cold.size(), 100u);
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(RecoveryInvariantsTest, CheckpointDuringPartialResidency) {
  ASSERT_OK(db_.CreateRelation("a", S()));
  ASSERT_OK(db_.CreateRelation("b", S()));
  ASSERT_OK(Fill(&db_, "a", 0, 150));
  ASSERT_OK(Fill(&db_, "b", 0, 150));
  db_.Crash();
  ASSERT_OK(db_.Restart());
  // Recover and update "a"; its update-count checkpoints run while "b"
  // is still disk-resident (the checkpointer must skip b gracefully).
  ASSERT_OK(Fill(&db_, "a", 150, 400));
  EXPECT_GT(db_.GetStats().checkpoints_completed, 0u);
  db_.Crash();
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto a, db_.Scan(txn.value(), "a"));
  ASSERT_OK_AND_ASSIGN(auto b, db_.Scan(txn.value(), "b"));
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(b.size(), 150u);
  ASSERT_OK(db_.Commit(txn.value()));
}

}  // namespace
}  // namespace mmdb
