// Randomized end-to-end property test: a workload of inserts, updates,
// deletes, aborts, checkpoints and crashes is mirrored against an
// in-memory shadow model; after every crash+restart the database must
// match the shadow exactly (committed state, nothing more, nothing less),
// and the indexes must agree with the base relation. Some sweeps grow
// notes by kilobytes in nearly full partitions, so rows move and leave
// stubs, while MVCC snapshot readers check the shadow of their snapshot.

#include <gtest/gtest.h>

#include <map>

#include "core/database.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

Schema ItemSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"qty", ColumnType::kInt64},
                 {"note", ColumnType::kString}});
}

struct ShadowRow {
  Tuple tuple;
  EntityAddr addr;
};

struct WorkloadParam {
  uint64_t seed;
  int steps;
  int txn_ops;        // operations per transaction
  double abort_prob;  // chance a transaction aborts
  double crash_prob;  // chance of a crash after a commit
  uint64_t n_update;  // checkpoint threshold
  uint64_t window_pages;
  double grow_prob = 0;  // chance an update writes a note of kilobytes
  bool readers = false;  // snapshot readers alongside the writers
};

class WorkloadPropertyTest : public ::testing::TestWithParam<WorkloadParam> {};

TEST_P(WorkloadPropertyTest, DatabaseMatchesShadowModel) {
  const WorkloadParam param = GetParam();
  Random rng(param.seed);

  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = param.n_update;
  o.log_window_pages = param.window_pages;
  o.grace_pages = 8;
  Database db(o);
  ASSERT_OK(db.CreateRelation("item", ItemSchema()));
  ASSERT_OK(db.CreateIndex("item_id", "item", "id", IndexType::kLinearHash));
  ASSERT_OK(db.CreateIndex("item_qty", "item", "qty", IndexType::kTTree));

  // Committed state, keyed by unique id.
  std::map<int64_t, ShadowRow> shadow;
  int64_t next_id = 0;

  auto verify = [&]() {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    auto rows = db.Scan(txn.value(), "item");
    ASSERT_OK(rows.status());
    ASSERT_EQ(rows.value().size(), shadow.size());
    for (auto& [addr, tuple] : rows.value()) {
      int64_t id = std::get<int64_t>(tuple[0]);
      auto it = shadow.find(id);
      ASSERT_NE(it, shadow.end()) << "unexpected row id " << id;
      ASSERT_EQ(tuple, it->second.tuple);
      ASSERT_EQ(addr, it->second.addr);
    }
    // Index agreement for a sample of ids.
    size_t stride = std::max<size_t>(1, shadow.size() / 13);
    size_t i = 0;
    for (auto it = shadow.begin(); it != shadow.end(); ++it, ++i) {
      if (i % stride != 0) continue;
      auto hits = db.IndexLookup(txn.value(), "item_id", it->first);
      ASSERT_OK(hits.status());
      ASSERT_EQ(hits.value().size(), 1u);
      ASSERT_EQ(hits.value()[0], it->second.addr);
    }
    ASSERT_OK(db.Commit(txn.value()));
  };

  // Snapshot readers: each checks, some steps after it began, that it
  // still sees the committed state of its snapshot, by scan and by home
  // address.
  struct SnapshotReader {
    Transaction* txn;
    std::map<int64_t, ShadowRow> seen;
    int opened;
  };
  std::vector<SnapshotReader> readers;
  auto check_and_close = [&](const SnapshotReader& r) {
    auto rows = db.Scan(r.txn, "item");
    ASSERT_OK(rows.status());
    ASSERT_EQ(rows.value().size(), r.seen.size());
    for (auto& [addr, tuple] : rows.value()) {
      auto it = r.seen.find(std::get<int64_t>(tuple[0]));
      ASSERT_NE(it, r.seen.end());
      ASSERT_EQ(tuple, it->second.tuple);
      ASSERT_EQ(addr, it->second.addr);
    }
    for (const auto& [id, row] : r.seen) {
      ASSERT_OK_AND_ASSIGN(Tuple back, db.Read(r.txn, "item", row.addr));
      ASSERT_EQ(back, row.tuple) << id;
    }
    ASSERT_OK(db.Commit(r.txn));
  };
  auto close_readers = [&](int before_step) {
    while (!readers.empty() && readers.front().opened < before_step) {
      check_and_close(readers.front());
      readers.erase(readers.begin());
    }
  };

  for (int step = 0; step < param.steps; ++step) {
    if (param.readers) {
      close_readers(step - 5);
      if (rng.Bernoulli(0.2)) {
        auto r = db.Begin(TxnKind::kUser, "", /*read_only=*/true);
        ASSERT_OK(r.status());
        readers.push_back({r.value(), shadow, step});
      }
    }
    auto txn_r = db.Begin();
    ASSERT_OK(txn_r.status());
    Transaction* txn = txn_r.value();
    // Local view of this transaction's tentative changes.
    std::map<int64_t, ShadowRow> tentative = shadow;
    bool ok = true;
    for (int op = 0; op < param.txn_ops && ok; ++op) {
      int dice = static_cast<int>(rng.Uniform(10));
      if (dice < 5 || tentative.empty()) {
        int64_t id = next_id++;
        Tuple t{id, static_cast<int64_t>(rng.Uniform(50)),
                rng.NextString(rng.Uniform(20) + 1)};
        auto addr = db.Insert(txn, "item", t);
        ASSERT_OK(addr.status());
        tentative[id] = ShadowRow{t, addr.value()};
      } else if (dice < 8) {
        auto it = tentative.begin();
        std::advance(it, rng.Uniform(tentative.size()));
        const int64_t qty = static_cast<int64_t>(rng.Uniform(50));
        const size_t len = param.grow_prob > 0 && rng.Bernoulli(param.grow_prob)
                               ? 500 + rng.Uniform(2500)
                               : rng.Uniform(25) + 1;
        Tuple t{it->first, qty, rng.NextString(len)};
        ASSERT_OK(db.Update(txn, "item", it->second.addr, t));
        it->second.tuple = t;
      } else {
        auto it = tentative.begin();
        std::advance(it, rng.Uniform(tentative.size()));
        ASSERT_OK(db.Delete(txn, "item", it->second.addr));
        tentative.erase(it);
      }
    }
    if (rng.Bernoulli(param.abort_prob)) {
      ASSERT_OK(db.Abort(txn));
      // shadow unchanged
    } else {
      ASSERT_OK(db.Commit(txn));
      shadow = std::move(tentative);
    }

    if (rng.Bernoulli(param.crash_prob)) {
      close_readers(step + 1);
      db.Crash();
      ASSERT_OK(db.Restart());
      verify();
    } else if (step % 50 == 49) {
      verify();
    }
  }
  close_readers(param.steps);
  if (param.grow_prob > 0) {
    EXPECT_GT(db.metrics().counter_value("storage.rows_forwarded"), 0u);
  }
  // Final crash + full verification, twice (re-crash after recovery).
  db.Crash();
  ASSERT_OK(db.Restart());
  verify();
  db.Crash();
  ASSERT_OK(db.Restart());
  verify();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadPropertyTest,
    ::testing::Values(
        // Gentle: few crashes, big window.
        WorkloadParam{101, 120, 8, 0.1, 0.02, 100, 1 << 20},
        // Crash-happy.
        WorkloadParam{202, 100, 6, 0.15, 0.15, 100, 1 << 20},
        // Aggressive checkpointing (tiny N_update).
        WorkloadParam{303, 100, 8, 0.1, 0.05, 20, 1 << 20},
        // Tiny log window: age checkpoints while crashing.
        WorkloadParam{404, 100, 8, 0.1, 0.08, 1000000, 48},
        // Abort-heavy.
        WorkloadParam{505, 100, 10, 0.5, 0.05, 50, 1 << 20},
        // Growing notes move rows out of full partitions, under snapshot
        // readers.
        WorkloadParam{606, 150, 8, 0.1, 0.05, 100, 1 << 20, 0.3, true},
        // The same with aborts, crashes and a tiny log window.
        WorkloadParam{707, 150, 8, 0.25, 0.1, 50, 48, 0.4, true}));

}  // namespace
}  // namespace mmdb
