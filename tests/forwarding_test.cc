// Row forwarding: an update that outgrows its partition moves the row to
// another partition of its relation and leaves a stub in the home slot.
// Indexes, locks and callers keep the home address; readers follow the
// stub at their own snapshot; a relocation is ordinary REDO and UNDO.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/database.h"
#include "test_util.h"

namespace mmdb {
namespace {

Schema NoteSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"note", ColumnType::kString}});
}

Tuple Note(int64_t id, size_t len) {
  return Tuple{id, std::string(len, static_cast<char>('a' + id % 26))};
}

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

uint64_t RowsForwarded(const Database& db) {
  return db.metrics().counter_value("storage.rows_forwarded");
}

/// A relation of short notes spanning at least `partitions` partitions;
/// the first of them is full.
class ForwardingTest : public ::testing::Test {
 protected:
  explicit ForwardingTest(DatabaseOptions o = SmallOptions()) : db_(o) {}

  void SetUp() override {
    ASSERT_OK(db_.CreateRelation("notes", NoteSchema()));
    FillUntilPartitions(2);
  }

  RelationInfo* rel() { return db_.catalog().GetRelation("notes").value(); }

  /// Inserts short notes until the relation spans `n` partitions.
  void FillUntilPartitions(size_t n) {
    while (rel()->partitions.size() < n) {
      ASSERT_OK_AND_ASSIGN(Transaction * t, db_.Begin());
      for (int k = 0; k < 50; ++k) {
        const int64_t id = static_cast<int64_t>(home_.size());
        ASSERT_OK_AND_ASSIGN(EntityAddr a, db_.Insert(t, "notes", Note(id, 4)));
        home_.push_back(a);
        ids_[a] = id;
      }
      ASSERT_OK(db_.Commit(t));
    }
  }

  /// The kind of the row bytes stored at `addr` (the partition's, not a
  /// snapshot's).
  RowKind StoredKind(const EntityAddr& addr) {
    auto p = db_.partitions().Get(addr.partition);
    EXPECT_TRUE(p.ok());
    auto bytes = p.value()->Read(addr.slot);
    EXPECT_TRUE(bytes.ok());
    auto kind = Schema::KindOf(bytes.value());
    EXPECT_TRUE(kind.ok());
    return kind.value();
  }

  EntityAddr StubTarget(const EntityAddr& home) {
    auto p = db_.partitions().Get(home.partition);
    EXPECT_TRUE(p.ok());
    auto bytes = p.value()->Read(home.slot);
    EXPECT_TRUE(bytes.ok());
    auto target = Schema::DecodeStub(bytes.value(), home.partition.segment);
    EXPECT_TRUE(target.ok()) << target.status().ToString();
    return target.value();
  }

  Status Put(const EntityAddr& addr, const Tuple& t) {
    auto txn = db_.Begin();
    if (!txn.ok()) return txn.status();
    Status st = db_.Update(txn.value(), "notes", addr, t);
    if (!st.ok()) {
      Status ab = db_.Abort(txn.value());
      (void)ab;
      return st;
    }
    return db_.Commit(txn.value());
  }

  Result<Tuple> Get(const EntityAddr& addr) {
    auto txn = db_.Begin();
    if (!txn.ok()) return txn.status();
    auto row = db_.Read(txn.value(), "notes", addr);
    Status st = db_.Commit(txn.value());
    if (!st.ok()) return st;
    return row;
  }

  /// Every row by scan: home address -> tuple (a duplicate fails).
  std::map<EntityAddr, Tuple> ScanAll(Transaction* txn) {
    auto rows = db_.Scan(txn, "notes");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::map<EntityAddr, Tuple> out;
    for (auto& [addr, tuple] : rows.value()) {
      EXPECT_TRUE(out.emplace(addr, tuple).second) << addr.ToString();
    }
    return out;
  }

  std::map<EntityAddr, Tuple> ScanAll() {
    auto txn = db_.Begin();
    EXPECT_TRUE(txn.ok());
    auto out = ScanAll(txn.value());
    EXPECT_TRUE(db_.Commit(txn.value()).ok());
    return out;
  }

  /// The first row, in the first (full) partition, grown past what that
  /// partition holds.
  EntityAddr GrowFirstRow(size_t len) {
    const EntityAddr a = home_.front();
    auto p = db_.partitions().Get(a.partition);
    EXPECT_TRUE(p.ok());
    EXPECT_LT(p.value()->free_bytes() + p.value()->garbage_bytes(), len);
    EXPECT_OK(Put(a, Note(0, len)));
    return a;
  }

  Database db_;
  std::vector<EntityAddr> home_;
  std::map<EntityAddr, int64_t> ids_;
};

TEST_F(ForwardingTest, GrowingUpdateInAFullPartitionMovesTheRow) {
  const EntityAddr a = GrowFirstRow(2000);
  EXPECT_EQ(RowsForwarded(db_), 1u);
  ASSERT_OK_AND_ASSIGN(Tuple back, Get(a));
  EXPECT_EQ(back, Note(0, 2000));
  // The home slot holds a stub naming a moved row in another partition.
  EXPECT_EQ(StoredKind(a), RowKind::kStub);
  const EntityAddr first = StubTarget(a);
  EXPECT_NE(first.partition, a.partition);
  EXPECT_EQ(StoredKind(first), RowKind::kMoved);
  // A moved row is reached only through its stub.
  ASSERT_OK_AND_ASSIGN(Transaction * t, db_.Begin());
  EXPECT_TRUE(db_.Read(t, "notes", first).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));

  // Fill the moved row's partition, then grow the row past it: it moves
  // again, the stub is rewritten and the first moved row is freed.
  FillUntilPartitions(rel()->partitions.size() + 1);
  auto p = db_.partitions().Get(first.partition);
  ASSERT_OK(p.status());
  const size_t grown =
      p.value()->free_bytes() + p.value()->garbage_bytes() + 2000 + 1;
  ASSERT_OK(Put(a, Note(0, grown)));
  EXPECT_EQ(RowsForwarded(db_), 2u);
  const EntityAddr second = StubTarget(a);
  EXPECT_NE(second, first);
  EXPECT_EQ(StoredKind(second), RowKind::kMoved);
  EXPECT_FALSE(db_.partitions().Get(first.partition).value()->SlotUsed(
      first.slot));
  ASSERT_OK_AND_ASSIGN(back, Get(a));
  EXPECT_EQ(back, Note(0, grown));

  // Shrinking stays in place: no move.
  ASSERT_OK(Put(a, Note(0, 1)));
  EXPECT_EQ(RowsForwarded(db_), 2u);
  EXPECT_EQ(StubTarget(a), second);
  ASSERT_OK_AND_ASSIGN(back, Get(a));
  EXPECT_EQ(back, Note(0, 1));

  // A delete frees the stub and the moved row.
  ASSERT_OK_AND_ASSIGN(t, db_.Begin());
  ASSERT_OK(db_.Delete(t, "notes", a));
  ASSERT_OK(db_.Commit(t));
  EXPECT_FALSE(db_.partitions().Get(a.partition).value()->SlotUsed(a.slot));
  EXPECT_FALSE(db_.partitions().Get(second.partition).value()->SlotUsed(
      second.slot));
  EXPECT_TRUE(Get(a).status().IsNotFound());
  EXPECT_EQ(ScanAll().size(), home_.size() - 1);
}

TEST_F(ForwardingTest, ScanAndCreateIndexSeeAMovedRowOnceUnderItsHome) {
  const EntityAddr a = GrowFirstRow(3000);
  const std::map<EntityAddr, Tuple> rows = ScanAll();
  ASSERT_EQ(rows.size(), home_.size());
  for (const EntityAddr& h : home_) {
    ASSERT_TRUE(rows.count(h)) << h.ToString();
    EXPECT_EQ(std::get<int64_t>(rows.at(h)[0]), ids_[h]);
  }
  EXPECT_EQ(rows.at(a), Note(0, 3000));

  for (IndexType type : {IndexType::kLinearHash, IndexType::kTTree}) {
    const std::string name =
        type == IndexType::kTTree ? "notes_tree" : "notes_hash";
    ASSERT_OK(db_.CreateIndex(name, "notes", "id", type));
    ASSERT_OK_AND_ASSIGN(Transaction * t, db_.Begin());
    ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, name, 0));
    ASSERT_EQ(hits.size(), 1u) << name;
    EXPECT_EQ(hits[0], a);
    ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "notes", hits[0]));
    EXPECT_EQ(back, Note(0, 3000));
    ASSERT_OK(db_.Commit(t));
  }
}

TEST_F(ForwardingTest, SnapshotReadersSeeTheRowOfTheirSnapshot) {
  const EntityAddr a = home_.front();
  ASSERT_OK_AND_ASSIGN(Transaction * before,
                       db_.Begin(TxnKind::kUser, "", /*read_only=*/true));
  ASSERT_OK_AND_ASSIGN(Transaction * w, db_.Begin());
  ASSERT_OK(db_.Update(w, "notes", a, Note(0, 2500)));
  // Opened during the relocation: it sees only committed rows.
  ASSERT_OK_AND_ASSIGN(Transaction * during,
                       db_.Begin(TxnKind::kUser, "", /*read_only=*/true));
  ASSERT_OK(db_.Commit(w));
  EXPECT_EQ(RowsForwarded(db_), 1u);
  ASSERT_OK_AND_ASSIGN(Transaction * after,
                       db_.Begin(TxnKind::kUser, "", /*read_only=*/true));

  for (Transaction* old : {before, during}) {
    ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(old, "notes", a));
    EXPECT_EQ(back, Note(0, 4));
    auto rows = ScanAll(old);
    EXPECT_EQ(rows.size(), home_.size());
    EXPECT_EQ(rows[a], Note(0, 4));
  }
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(after, "notes", a));
  EXPECT_EQ(back, Note(0, 2500));
  auto rows = ScanAll(after);
  EXPECT_EQ(rows.size(), home_.size());
  EXPECT_EQ(rows[a], Note(0, 2500));

  // The row moves again while `after` reads: it keeps its moved row.
  FillUntilPartitions(rel()->partitions.size() + 1);
  const EntityAddr first = StubTarget(a);
  auto p = db_.partitions().Get(first.partition);
  ASSERT_OK(p.status());
  const size_t grown =
      p.value()->free_bytes() + p.value()->garbage_bytes() + 2500 + 1;
  ASSERT_OK(Put(a, Note(0, grown)));
  EXPECT_EQ(RowsForwarded(db_), 2u);
  ASSERT_OK_AND_ASSIGN(back, db_.Read(after, "notes", a));
  EXPECT_EQ(back, Note(0, 2500));
  for (Transaction* r : {before, during, after}) ASSERT_OK(db_.Commit(r));
  ASSERT_OK_AND_ASSIGN(back, Get(a));
  EXPECT_EQ(back, Note(0, grown));
}

TEST_F(ForwardingTest, AbortRestoresBothPartitions) {
  const EntityAddr a = home_.front();
  const std::map<EntityAddr, Tuple> before = ScanAll();
  std::map<PartitionId, uint32_t> live;
  for (const PartitionDescriptor& d : rel()->partitions) {
    live[d.id] = db_.partitions().Get(d.id).value()->live_count();
  }
  ASSERT_OK_AND_ASSIGN(Transaction * t, db_.Begin());
  ASSERT_OK(db_.Update(t, "notes", a, Note(0, 2000)));
  ASSERT_EQ(StoredKind(a), RowKind::kStub);
  ASSERT_OK(db_.Abort(t));
  EXPECT_EQ(StoredKind(a), RowKind::kHome);
  for (const PartitionDescriptor& d : rel()->partitions) {
    EXPECT_EQ(db_.partitions().Get(d.id).value()->live_count(), live[d.id]);
  }
  EXPECT_EQ(ScanAll(), before);
}

TEST_F(ForwardingTest, LockParkMidRelocationRestoresBothPartitions) {
  const EntityAddr a = home_.front();
  const std::map<EntityAddr, Tuple> before = ScanAll();
  std::map<PartitionId, uint32_t> live;
  for (const PartitionDescriptor& d : rel()->partitions) {
    live[d.id] = db_.partitions().Get(d.id).value()->live_count();
  }
  // A reader holds the home slot's S lock; the writer's relocation moves
  // the row, then parks on the home slot's X lock.
  ASSERT_OK_AND_ASSIGN(Transaction * reader, db_.Begin());
  ASSERT_OK(db_.Read(reader, "notes", a).status());
  ASSERT_OK_AND_ASSIGN(Transaction * writer, db_.Begin());
  sim::CpuModel cpu("worker", db_.options().main_cpu_mips);
  Database::ExecContext ctx;
  ctx.cpu = &cpu;
  db_.BindExecContext(&ctx);
  const Database::OpMark mark = db_.MarkOperation(writer);
  Status st = db_.Update(writer, "notes", a, Note(0, 2000));
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  EXPECT_TRUE(ctx.blocked);
  EXPECT_EQ(ctx.blocked_on, LockResource::Entity(a));
  ASSERT_OK(db_.RollbackOperation(writer, mark));
  db_.BindExecContext(nullptr);
  EXPECT_EQ(StoredKind(a), RowKind::kHome);
  for (const PartitionDescriptor& d : rel()->partitions) {
    EXPECT_EQ(db_.partitions().Get(d.id).value()->live_count(), live[d.id]);
  }
  EXPECT_EQ(RowsForwarded(db_), 0u);

  // The reader commits, the writer's lock is granted and the replay
  // relocates the row.
  ASSERT_OK(db_.Commit(reader));
  db_.BindExecContext(&ctx);
  ASSERT_OK(db_.Update(writer, "notes", a, Note(0, 2000)));
  db_.BindExecContext(nullptr);
  ASSERT_OK(db_.Commit(writer));
  EXPECT_EQ(RowsForwarded(db_), 1u);
  std::map<EntityAddr, Tuple> after = before;
  after[a] = Note(0, 2000);
  EXPECT_EQ(ScanAll(), after);
}

TEST_F(ForwardingTest, InPlaceUpdateOfAMovedRowExcludesLockingReaders) {
  const EntityAddr a = GrowFirstRow(2000);
  const EntityAddr moved = StubTarget(a);
  sim::CpuModel cpu("worker", db_.options().main_cpu_mips);

  // A locking reader of the moved row holds its moved slot too: a writer
  // whose update fits that slot parks on it.
  ASSERT_OK_AND_ASSIGN(Transaction * reader, db_.Begin());
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(reader, "notes", a));
  EXPECT_EQ(back, Note(0, 2000));
  ASSERT_OK_AND_ASSIGN(Transaction * writer, db_.Begin());
  Database::ExecContext wctx;
  wctx.cpu = &cpu;
  db_.BindExecContext(&wctx);
  const Database::OpMark mark = db_.MarkOperation(writer);
  Status st = db_.Update(writer, "notes", a, Note(0, 1999));
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  EXPECT_TRUE(wctx.blocked);
  EXPECT_EQ(wctx.blocked_on, LockResource::Entity(moved));
  ASSERT_OK(db_.RollbackOperation(writer, mark));
  db_.BindExecContext(nullptr);
  ASSERT_OK(db_.Commit(reader));

  // The writer's replay rewrites the moved row in place. A locking
  // reader that comes after it parks on the moved slot instead of
  // reading the uncommitted row; a snapshot reader sees the committed one.
  db_.BindExecContext(&wctx);
  ASSERT_OK(db_.Update(writer, "notes", a, Note(0, 1999)));
  db_.BindExecContext(nullptr);
  EXPECT_EQ(RowsForwarded(db_), 1u);
  EXPECT_EQ(StubTarget(a), moved);
  ASSERT_OK_AND_ASSIGN(Transaction * late, db_.Begin());
  Database::ExecContext rctx;
  rctx.cpu = &cpu;
  db_.BindExecContext(&rctx);
  auto dirty = db_.Read(late, "notes", a);
  EXPECT_TRUE(dirty.status().IsBusy()) << dirty.status().ToString();
  EXPECT_TRUE(rctx.blocked);
  EXPECT_EQ(rctx.blocked_on, LockResource::Entity(moved));
  db_.BindExecContext(nullptr);
  ASSERT_OK_AND_ASSIGN(Transaction * snap,
                       db_.Begin(TxnKind::kUser, "", /*read_only=*/true));
  ASSERT_OK_AND_ASSIGN(back, db_.Read(snap, "notes", a));
  EXPECT_EQ(back, Note(0, 2000));
  ASSERT_OK(db_.Commit(snap));

  // The writer aborts: the late reader's replay reads the committed row.
  ASSERT_OK(db_.Abort(writer));
  db_.BindExecContext(&rctx);
  ASSERT_OK_AND_ASSIGN(back, db_.Read(late, "notes", a));
  db_.BindExecContext(nullptr);
  EXPECT_EQ(back, Note(0, 2000));
  ASSERT_OK(db_.Commit(late));
}

class ForwardingRestartTest
    : public ForwardingTest,
      public ::testing::WithParamInterface<RestartPolicy> {
 protected:
  static DatabaseOptions Options() {
    DatabaseOptions o = SmallOptions();
    o.restart_policy = GetParam();
    return o;
  }
  ForwardingRestartTest() : ForwardingTest(Options()) {}
};

TEST_P(ForwardingRestartTest, CommittedRelocationsSurviveACrash) {
  ASSERT_OK(db_.CheckpointEverything());
  // One row moves once, another twice; both commit before the crash.
  const EntityAddr once = home_.front();
  const EntityAddr twice = home_[1];
  ASSERT_OK(Put(once, Note(0, 2000)));
  ASSERT_OK(Put(twice, Note(1, 2000)));
  FillUntilPartitions(rel()->partitions.size() + 1);
  auto p = db_.partitions().Get(StubTarget(twice).partition);
  ASSERT_OK(p.status());
  const size_t grown =
      p.value()->free_bytes() + p.value()->garbage_bytes() + 2000 + 1;
  ASSERT_OK(Put(twice, Note(1, grown)));
  ASSERT_EQ(RowsForwarded(db_), 3u);
  const std::map<EntityAddr, Tuple> before = ScanAll();

  db_.Crash();
  ASSERT_OK(db_.Restart());
  ASSERT_OK_AND_ASSIGN(Tuple back, Get(once));
  EXPECT_EQ(back, Note(0, 2000));
  ASSERT_OK_AND_ASSIGN(back, Get(twice));
  EXPECT_EQ(back, Note(1, grown));
  EXPECT_EQ(ScanAll(), before);
}

INSTANTIATE_TEST_SUITE_P(Policies, ForwardingRestartTest,
                         ::testing::Values(RestartPolicy::kOnDemand,
                                           RestartPolicy::kFullReload));

TEST(CompactTupleTest, HundredThousandTp1RowsFitInThirtyFivePartitions) {
  Database db;
  ASSERT_OK(db.CreateRelation("account",
                              Schema({{"id", ColumnType::kInt64},
                                      {"balance", ColumnType::kInt64},
                                      {"branch", ColumnType::kInt64}})));
  for (int64_t id = 0; id < 100000;) {
    ASSERT_OK_AND_ASSIGN(Transaction * t, db.Begin());
    for (int k = 0; k < 100; ++k, ++id) {
      ASSERT_OK(db.Insert(t, "account", Tuple{id, int64_t{1000}, id % 97})
                    .status());
    }
    ASSERT_OK(db.Commit(t));
  }
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel, db.catalog().GetRelation("account"));
  EXPECT_LE(rel->partitions.size(), 35u);
}

}  // namespace
}  // namespace mmdb
