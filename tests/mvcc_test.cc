// Multi-version read path: snapshot visibility, abort unlinking,
// read-only write rejection, version reclamation, and snapshot readers
// served mid-restart by on-demand recovery.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/database.h"
#include "obs/export.h"
#include "test_util.h"

namespace mmdb {
namespace {

Schema RowSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
}

int64_t ValueOf(const Tuple& t) { return std::get<int64_t>(t[1]); }

/// Database with one relation "r" holding rows (k, k * 100).
struct Rig {
  std::unique_ptr<Database> db;
  std::map<int64_t, EntityAddr> addrs;

  Status Setup(int64_t rows = 8) {
    DatabaseOptions o;
    o.n_update = 1ull << 30;  // no mid-test checkpoints
    db = std::make_unique<Database>(o);
    MMDB_RETURN_IF_ERROR(db->CreateRelation("r", RowSchema()));
    auto t = db->Begin();
    MMDB_RETURN_IF_ERROR(t.status());
    for (int64_t k = 0; k < rows; ++k) {
      auto a = db->Insert(t.value(), "r", Tuple{k, k * 100});
      MMDB_RETURN_IF_ERROR(a.status());
      addrs[k] = a.value();
    }
    return db->Commit(t.value());
  }

  Result<Transaction*> BeginSnapshot() {
    return db->Begin(TxnKind::kUser, "", /*read_only=*/true);
  }
};

TEST(MvccTest, SnapshotSeesBeginTimeStateAcrossConcurrentCommit) {
  Rig rig;
  ASSERT_OK(rig.Setup());

  // Reader takes its snapshot, then a writer overwrites row 3 and
  // commits. The reader must keep seeing the begin-time value; a reader
  // beginning after the commit sees the new one.
  ASSERT_OK_AND_ASSIGN(Transaction * old_reader, rig.BeginSnapshot());
  {
    auto w = rig.db->Begin();
    ASSERT_OK(w.status());
    ASSERT_OK(rig.db->Update(w.value(), "r", rig.addrs.at(3), Tuple{3, 777}));
    ASSERT_OK(rig.db->Commit(w.value()));
  }
  ASSERT_OK_AND_ASSIGN(auto old_row,
                       rig.db->Read(old_reader, "r", rig.addrs.at(3)));
  EXPECT_EQ(ValueOf(old_row), 300);

  ASSERT_OK_AND_ASSIGN(Transaction * new_reader, rig.BeginSnapshot());
  ASSERT_OK_AND_ASSIGN(auto new_row,
                       rig.db->Read(new_reader, "r", rig.addrs.at(3)));
  EXPECT_EQ(ValueOf(new_row), 777);

  // The old snapshot's full scan is also begin-time consistent.
  ASSERT_OK_AND_ASSIGN(auto rows, rig.db->Scan(old_reader, "r"));
  for (const auto& [addr, tup] : rows) {
    (void)addr;
    EXPECT_EQ(ValueOf(tup), std::get<int64_t>(tup[0]) * 100);
  }

  ASSERT_OK(rig.db->Commit(old_reader));
  ASSERT_OK(rig.db->Commit(new_reader));
  // With no snapshot left alive, reclamation drains the store fully.
  (void)rig.db->PruneVersions();
  EXPECT_EQ(rig.db->mvcc_versions_live(), 0u);
  EXPECT_EQ(rig.db->PruneVersions(), 0u);
}

TEST(MvccTest, DeleteIsInvisibleAtOlderSnapshots) {
  Rig rig;
  ASSERT_OK(rig.Setup());

  ASSERT_OK_AND_ASSIGN(Transaction * old_reader, rig.BeginSnapshot());
  {
    auto w = rig.db->Begin();
    ASSERT_OK(w.status());
    ASSERT_OK(rig.db->Delete(w.value(), "r", rig.addrs.at(5)));
    ASSERT_OK(rig.db->Commit(w.value()));
  }
  // The old snapshot still reads the deleted row; a fresh one does not.
  ASSERT_OK_AND_ASSIGN(auto row, rig.db->Read(old_reader, "r",
                                              rig.addrs.at(5)));
  EXPECT_EQ(ValueOf(row), 500);
  ASSERT_OK_AND_ASSIGN(Transaction * new_reader, rig.BeginSnapshot());
  EXPECT_TRUE(
      rig.db->Read(new_reader, "r", rig.addrs.at(5)).status().IsNotFound());
  ASSERT_OK(rig.db->Commit(old_reader));
  ASSERT_OK(rig.db->Commit(new_reader));
}

TEST(MvccTest, AbortUnlinksUncommittedVersions) {
  Rig rig;
  ASSERT_OK(rig.Setup());

  ASSERT_OK_AND_ASSIGN(Transaction * reader, rig.BeginSnapshot());
  {
    auto w = rig.db->Begin();
    ASSERT_OK(w.status());
    ASSERT_OK(rig.db->Update(w.value(), "r", rig.addrs.at(2), Tuple{2, 999}));
    ASSERT_OK(rig.db->Abort(w.value()));
  }
  // The aborted write never becomes a version: both the live snapshot
  // and a fresh one see the original value.
  ASSERT_OK_AND_ASSIGN(auto row, rig.db->Read(reader, "r", rig.addrs.at(2)));
  EXPECT_EQ(ValueOf(row), 200);
  ASSERT_OK(rig.db->Commit(reader));
  ASSERT_OK_AND_ASSIGN(Transaction * after, rig.BeginSnapshot());
  ASSERT_OK_AND_ASSIGN(auto row2, rig.db->Read(after, "r", rig.addrs.at(2)));
  EXPECT_EQ(ValueOf(row2), 200);
  ASSERT_OK(rig.db->Commit(after));
  (void)rig.db->PruneVersions();
  EXPECT_EQ(rig.db->mvcc_versions_live(), 0u);
}

TEST(MvccTest, SnapshotBeforeAPatchedUpdateSeesThePreImage) {
  Rig rig;
  ASSERT_OK(rig.Setup());

  // 300 -> 301 changes one byte, so the writer logs a one-byte patch;
  // the version store still keeps the whole pre-image for the reader.
  ASSERT_OK_AND_ASSIGN(Transaction * reader, rig.BeginSnapshot());
  ASSERT_OK_AND_ASSIGN(Transaction * w, rig.db->Begin());
  ASSERT_OK(rig.db->Update(w, "r", rig.addrs.at(3), Tuple{3, 301}));
  ASSERT_OK_AND_ASSIGN(Partition * part,
                       rig.db->partitions().Get(rig.addrs.at(3).partition));
  EXPECT_EQ(w->redo_bytes(),
            testing::RedoSize(LogOp::kPatch, w->id(), *part,
                              rig.addrs.at(3).slot, /*offset=*/8,
                              /*payload=*/1));
  ASSERT_OK_AND_ASSIGN(auto row, rig.db->Read(reader, "r", rig.addrs.at(3)));
  EXPECT_EQ(row, (Tuple{3, 300}));
  ASSERT_OK(rig.db->Commit(w));
  ASSERT_OK_AND_ASSIGN(row, rig.db->Read(reader, "r", rig.addrs.at(3)));
  EXPECT_EQ(row, (Tuple{3, 300}));
  ASSERT_OK(rig.db->Commit(reader));

  ASSERT_OK_AND_ASSIGN(Transaction * after, rig.BeginSnapshot());
  ASSERT_OK_AND_ASSIGN(row, rig.db->Read(after, "r", rig.addrs.at(3)));
  EXPECT_EQ(row, (Tuple{3, 301}));
  ASSERT_OK(rig.db->Commit(after));
}

TEST(MvccTest, ReadOnlyTransactionsRejectWrites) {
  Rig rig;
  ASSERT_OK(rig.Setup());
  ASSERT_OK_AND_ASSIGN(Transaction * ro, rig.BeginSnapshot());
  EXPECT_TRUE(rig.db->Insert(ro, "r", Tuple{int64_t{99}, int64_t{1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(rig.db->Update(ro, "r", rig.addrs.at(0), Tuple{0, 1})
                  .IsInvalidArgument());
  EXPECT_TRUE(rig.db->Delete(ro, "r", rig.addrs.at(0)).IsInvalidArgument());
  // Still readable and committable afterwards.
  ASSERT_OK(rig.db->Read(ro, "r", rig.addrs.at(0)).status());
  ASSERT_OK(rig.db->Commit(ro));
}

// Aborting a snapshot reader ends its snapshot and appends its abort to
// the audit trail; the transaction is freed when it finishes, so the
// abort must not read it afterwards (an ASan build checks that).
TEST(MvccTest, AbortedSnapshotReaderIsAudited) {
  Rig rig;
  ASSERT_OK(rig.Setup());
  ASSERT_OK_AND_ASSIGN(Transaction * ro, rig.BeginSnapshot());
  const uint64_t id = ro->id();
  ASSERT_OK(rig.db->Read(ro, "r", rig.addrs.at(0)).status());
  ASSERT_OK(rig.db->Abort(ro));
  std::vector<AuditRecord> recent = rig.db->audit_log().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].txn_id, id);
  EXPECT_EQ(recent[0].kind, AuditKind::kAbort);
}

TEST(MvccTest, OnDemandRecoveryServesSnapshotReadersMidRestart) {
  // Committed state, then a crash recovered under the on-demand policy:
  // a read-only snapshot scan issued before the background sweep has
  // finished must already see exactly the committed ledger — on-demand
  // recovery faults the partitions in underneath the snapshot reader.
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  o.recovery_parallelism = 2;  // restart_policy defaults to kOnDemand
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", RowSchema()));
  std::map<int64_t, int64_t> committed;
  for (int batch = 0; batch < 4; ++batch) {
    auto t = db.Begin();
    ASSERT_OK(t.status());
    for (int64_t k = batch * 64; k < (batch + 1) * 64; ++k) {
      ASSERT_OK(db.Insert(t.value(), "r", Tuple{k, k * 7}).status());
      committed[k] = k * 7;
    }
    ASSERT_OK(db.Commit(t.value()));
    if (batch == 1) ASSERT_OK(db.CheckpointEverything());
  }
  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_FALSE(db.FullyResident());

  auto scan_snapshot = [&](std::map<int64_t, int64_t>* out) {
    auto ro = db.Begin(TxnKind::kUser, "", /*read_only=*/true);
    ASSERT_OK(ro.status());
    auto rows = db.Scan(ro.value(), "r");
    ASSERT_OK(rows.status());
    out->clear();
    for (const auto& [addr, tup] : rows.value()) {
      (void)addr;
      (*out)[std::get<int64_t>(tup[0])] = std::get<int64_t>(tup[1]);
    }
    ASSERT_OK(db.Commit(ro.value()));
  };

  std::map<int64_t, int64_t> mid;
  scan_snapshot(&mid);
  EXPECT_EQ(mid, committed) << "mid-restart snapshot diverges";

  bool done = false;
  while (!done) ASSERT_OK(db.BackgroundRecoveryStep(&done));
  EXPECT_TRUE(db.FullyResident());
  std::map<int64_t, int64_t> after;
  scan_snapshot(&after);
  EXPECT_EQ(after, committed);

  // Nothing uncommitted survived, and reclamation resumes idempotently.
  (void)db.PruneVersions();
  EXPECT_EQ(db.mvcc_versions_live(), 0u);
  EXPECT_EQ(db.PruneVersions(), 0u);
}

TEST(MvccTest, MetricsCountSnapshotActivity) {
  Rig rig;
  ASSERT_OK(rig.Setup());
  ASSERT_OK_AND_ASSIGN(Transaction * ro, rig.BeginSnapshot());
  {
    auto w = rig.db->Begin();
    ASSERT_OK(w.status());
    ASSERT_OK(rig.db->Update(w.value(), "r", rig.addrs.at(1), Tuple{1, 42}));
    ASSERT_OK(rig.db->Commit(w.value()));
  }
  EXPECT_GT(rig.db->mvcc_versions_live(), 0u);
  ASSERT_OK(rig.db->Read(ro, "r", rig.addrs.at(1)).status());
  ASSERT_OK(rig.db->Commit(ro));
  const std::string json = obs::RegistryToJsonValue(rig.db->metrics()).Dump();
  EXPECT_NE(json.find("mvcc.versions_live"), std::string::npos);
  EXPECT_NE(json.find("mvcc.pruned_total"), std::string::npos);
  EXPECT_NE(json.find("txn.snapshot_reads"), std::string::npos);
}

}  // namespace
}  // namespace mmdb
