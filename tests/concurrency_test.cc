#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/database.h"
#include "test_util.h"
#include "txn/executor.h"
#include "txn/lock_manager.h"

namespace mmdb {
namespace {

LockResource Ent(uint32_t slot) {
  return LockResource::Entity(EntityAddr{{1, 0}, slot});
}

// --- wait-queue lock manager -------------------------------------------------

TEST(WaitQueueTest, WaiterParksAndWakesOnRelease) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kX));
  auto r = lm.AcquireOrWait(2, Ent(0), LockMode::kX);
  EXPECT_EQ(r.outcome, LockOutcome::kWaiting);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_TRUE(lm.IsWaiting(2));
  EXPECT_EQ(lm.waits(), 1u);

  std::vector<uint64_t> granted = lm.ReleaseAll(1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_FALSE(lm.IsWaiting(2));
  EXPECT_TRUE(lm.Holds(2, Ent(0), LockMode::kX));
}

TEST(WaitQueueTest, GrantsLongestCompatiblePrefixInFifoOrder) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kX));
  EXPECT_EQ(lm.AcquireOrWait(2, Ent(0), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  EXPECT_EQ(lm.AcquireOrWait(3, Ent(0), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  EXPECT_EQ(lm.AcquireOrWait(4, Ent(0), LockMode::kX).outcome,
            LockOutcome::kWaiting);

  // Release wakes both readers (compatible prefix) but not the writer
  // queued behind them.
  std::vector<uint64_t> granted = lm.ReleaseAll(1);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(granted[1], 3u);
  EXPECT_TRUE(lm.IsWaiting(4));

  EXPECT_TRUE(lm.ReleaseAll(2).empty());  // reader 3 still holds S
  std::vector<uint64_t> granted2 = lm.ReleaseAll(3);
  ASSERT_EQ(granted2.size(), 1u);
  EXPECT_EQ(granted2[0], 4u);
  EXPECT_TRUE(lm.Holds(4, Ent(0), LockMode::kX));
}

TEST(WaitQueueTest, NoBargingPastEarlierWaiters) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kS));
  // Writer 2 queues behind holder 1.
  EXPECT_EQ(lm.AcquireOrWait(2, Ent(0), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  // Reader 3 would be compatible with holder 1, but may not barge past
  // the queued writer (starvation-freedom).
  EXPECT_EQ(lm.AcquireOrWait(3, Ent(0), LockMode::kS).outcome,
            LockOutcome::kWaiting);

  std::vector<uint64_t> granted = lm.ReleaseAll(1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);  // strict FIFO: the writer goes first
  granted = lm.ReleaseAll(2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
}

TEST(WaitQueueTest, UpgradeIsExemptFromNoBarge) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kS));
  EXPECT_EQ(lm.AcquireOrWait(2, Ent(0), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  // Holder 1 upgrades S->X: it is already inside the resource (a holder),
  // so the no-barge rule does not apply and no other holder conflicts.
  auto r = lm.AcquireOrWait(1, Ent(0), LockMode::kX);
  EXPECT_EQ(r.outcome, LockOutcome::kGranted);
  EXPECT_TRUE(lm.Holds(1, Ent(0), LockMode::kX));
  EXPECT_TRUE(lm.IsWaiting(2));
}

TEST(WaitQueueTest, DeadlockVictimIsYoungest) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kX));
  ASSERT_OK(lm.Acquire(2, Ent(1), LockMode::kX));
  // Older txn 1 waits for 2; no cycle yet.
  auto r1 = lm.AcquireOrWait(1, Ent(1), LockMode::kX);
  EXPECT_EQ(r1.outcome, LockOutcome::kWaiting);
  EXPECT_TRUE(r1.victims.empty());
  // Younger txn 2 closes the cycle and is itself the youngest on it.
  auto r2 = lm.AcquireOrWait(2, Ent(0), LockMode::kX);
  EXPECT_EQ(r2.outcome, LockOutcome::kDeadlockSelf);
  ASSERT_EQ(r2.victims.size(), 1u);
  EXPECT_EQ(r2.victims[0], 2u);
  EXPECT_EQ(lm.deadlocks(), 1u);
  // The self-victim was dequeued; txn 1 still waits until 2 releases.
  EXPECT_FALSE(lm.IsWaiting(2));
  std::vector<uint64_t> granted = lm.ReleaseAll(2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 1u);
}

TEST(WaitQueueTest, DeadlockVictimCanBeAnotherWaiter) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(2, Ent(0), LockMode::kX));
  ASSERT_OK(lm.Acquire(1, Ent(1), LockMode::kX));
  // Younger txn 2 waits first, then older txn 1 closes the cycle: the
  // victim is the youngest on the cycle (2), not the requester.
  auto r2 = lm.AcquireOrWait(2, Ent(1), LockMode::kX);
  EXPECT_EQ(r2.outcome, LockOutcome::kWaiting);
  auto r1 = lm.AcquireOrWait(1, Ent(0), LockMode::kX);
  EXPECT_EQ(r1.outcome, LockOutcome::kWaiting);
  ASSERT_EQ(r1.victims.size(), 1u);
  EXPECT_EQ(r1.victims[0], 2u);
  // The requester stays parked; aborting the victim unblocks it.
  EXPECT_TRUE(lm.IsWaiting(1));
  (void)lm.CancelWait(2);
  std::vector<uint64_t> granted = lm.ReleaseAll(2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 1u);
}

TEST(WaitQueueTest, CancelWaitWakesCompatibleWaitersBehind) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kS));
  EXPECT_EQ(lm.AcquireOrWait(2, Ent(0), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  EXPECT_EQ(lm.AcquireOrWait(3, Ent(0), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  // Removing the queued writer lets the reader behind it join holder 1.
  std::vector<uint64_t> granted = lm.CancelWait(2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
  EXPECT_TRUE(lm.Holds(3, Ent(0), LockMode::kS));
}

TEST(WaitQueueTest, NoWaitAcquireStillFailsFast) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, Ent(0), LockMode::kX));
  EXPECT_TRUE(lm.Acquire(2, Ent(0), LockMode::kX).IsBusy());
  EXPECT_FALSE(lm.IsWaiting(2));
}

// --- executor-level ----------------------------------------------------------

struct Rig {
  explicit Rig(uint32_t workers) {
    DatabaseOptions o;
    o.txn_workers = workers;
    db = std::make_unique<Database>(o);
  }

  void Setup() {
    ASSERT_OK(db->CreateRelation("r", Schema({{"id", ColumnType::kInt64},
                                              {"v", ColumnType::kInt64}})));
    auto t = db->Begin();
    ASSERT_OK(t.status());
    for (int64_t k = 0; k < 4; ++k) {
      auto a = db->Insert(t.value(), "r", Tuple{k, k * 100});
      ASSERT_OK(a.status());
      addrs[k] = a.value();
    }
    ASSERT_OK(db->Commit(t.value()));
  }

  std::map<int64_t, int64_t> ScanRows() {
    std::map<int64_t, int64_t> rows;
    auto t = db->Begin();
    EXPECT_OK(t.status());
    auto sc = db->Scan(t.value(), "r");
    EXPECT_OK(sc.status());
    for (const auto& [addr, tup] : sc.value()) {
      (void)addr;
      rows[std::get<int64_t>(tup[0])] = std::get<int64_t>(tup[1]);
    }
    EXPECT_OK(db->Commit(t.value()));
    return rows;
  }

  std::unique_ptr<Database> db;
  std::map<int64_t, EntityAddr> addrs;
};

TxnOp UpdateOp(EntityAddr addr, int64_t key, int64_t value) {
  return [addr, key, value](Database& d, Transaction* t) -> Status {
    return d.Update(t, "r", addr, Tuple{key, value});
  };
}

TEST(ConcurrentExecutorTest, DeadlockVictimUndoRestoresPreImage) {
  Rig rig(2);
  rig.Setup();

  // Script A: write row 0, then read row 3. Script B: write row 3, then
  // write row 0. The op-granularity interleave produces A-holds-0-wants-3
  // vs B-holds-3-wants-0: a cycle whose youngest member is B.
  auto read_seen = std::make_shared<int64_t>(-1);
  TxnScript a;
  a.label = "A";
  a.ops.push_back(UpdateOp(rig.addrs[0], 0, 111));
  a.ops.push_back([addr = rig.addrs[3], read_seen](Database& d,
                                                   Transaction* t) -> Status {
    auto r = d.Read(t, "r", addr);
    if (!r.ok()) return r.status();
    *read_seen = std::get<int64_t>(r.value()[1]);
    return Status::OK();
  });
  TxnScript b;
  b.label = "B";
  b.ops.push_back(UpdateOp(rig.addrs[3], 3, 333));
  b.ops.push_back(UpdateOp(rig.addrs[0], 0, 122));

  // No retries: the victim's abort must stand, exposing the undo result.
  ConcurrentExecutor ex(rig.db.get(), {.max_deadlock_retries = 0});
  ex.Submit(a);
  ex.Submit(b);
  ASSERT_OK(ex.Run());

  EXPECT_EQ(ex.deadlocks(), 1u);
  ASSERT_EQ(ex.results().size(), 2u);
  EXPECT_EQ(ex.results()[0].outcome, ScriptOutcome::kCommitted);
  EXPECT_EQ(ex.results()[1].outcome, ScriptOutcome::kAborted);
  EXPECT_TRUE(ex.results()[1].error.IsBusy());
  EXPECT_GT(ex.results()[1].txn_id, ex.results()[0].txn_id)
      << "the deadlock victim must be the youngest transaction";

  // A's replayed read observed row 3's pre-image: B's 333 was undone
  // byte-for-byte before the lock was granted.
  EXPECT_EQ(*read_seen, 300);
  std::map<int64_t, int64_t> rows = rig.ScanRows();
  EXPECT_EQ(rows[0], 111);  // A committed
  EXPECT_EQ(rows[3], 300);  // B fully undone
}

/// The older transaction closes the cycle, so the victim is the younger
/// waiter already parked on it, not the requester. A's first op writes
/// two rows and B's one, so B runs ahead and parks on row 0 before A asks
/// for row 3. Past the retry budget (0) B ends kAborted and its worker
/// takes the next script; with one retry B runs again and commits.
TEST(ConcurrentExecutorTest, ParkedYoungerWaiterIsTheDeadlockVictim) {
  for (uint32_t retries : {0u, 1u}) {
    SCOPED_TRACE(retries);
    Rig rig(2);
    rig.Setup();
    TxnScript a;
    a.label = "A";
    a.ops.push_back([&rig](Database& d, Transaction* t) -> Status {
      MMDB_RETURN_IF_ERROR(
          d.Update(t, "r", rig.addrs[0], Tuple{int64_t{0}, int64_t{111}}));
      return d.Update(t, "r", rig.addrs[1], Tuple{int64_t{1}, int64_t{211}});
    });
    a.ops.push_back(UpdateOp(rig.addrs[3], 3, 311));
    TxnScript b;
    b.label = "B";
    b.ops.push_back(UpdateOp(rig.addrs[3], 3, 333));
    b.ops.push_back(UpdateOp(rig.addrs[0], 0, 122));
    TxnScript c;
    c.label = "C";
    c.ops.push_back(UpdateOp(rig.addrs[2], 2, 222));

    ConcurrentExecutor ex(rig.db.get(), {.max_deadlock_retries = retries});
    ex.Submit(a);
    ex.Submit(b);
    ex.Submit(c);
    ASSERT_OK(ex.Run());

    EXPECT_EQ(ex.deadlocks(), 1u);
    const std::vector<ScriptResult>& r = ex.results();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].outcome, ScriptOutcome::kCommitted);
    EXPECT_EQ(r[0].deadlock_retries, 0u);
    EXPECT_EQ(r[1].deadlock_retries, 1u);
    EXPECT_EQ(r[2].outcome, ScriptOutcome::kCommitted);
    std::map<int64_t, int64_t> rows = rig.ScanRows();
    EXPECT_EQ(rows[1], 211);
    EXPECT_EQ(rows[2], 222);
    if (retries == 0) {
      // B was parked (one wait) when it was chosen.
      EXPECT_EQ(r[1].waits, 1u);
      EXPECT_EQ(r[1].outcome, ScriptOutcome::kAborted);
      EXPECT_TRUE(r[1].error.IsBusy());
      EXPECT_GT(r[1].txn_id, r[0].txn_id);
      EXPECT_EQ(r[2].worker, r[1].worker);  // the victim's worker freed
      EXPECT_EQ(rows[0], 111);
      EXPECT_EQ(rows[3], 311);
    } else {
      // The retry parks once more, behind A's row 3.
      EXPECT_EQ(r[1].waits, 2u);
      EXPECT_EQ(r[1].outcome, ScriptOutcome::kCommitted);
      EXPECT_OK(r[1].error);
      EXPECT_EQ(rows[0], 122);
      EXPECT_EQ(rows[3], 333);
    }
  }
}

TEST(ConcurrentExecutorTest, AbortReleasesLocksAndWakesWaiters) {
  Rig rig(2);
  rig.Setup();

  // Script A updates row 0 and then fails outright; its abort must wake
  // script B, which is parked on row 0's wait queue.
  TxnScript a;
  a.label = "A";
  a.ops.push_back(UpdateOp(rig.addrs[0], 0, 111));
  a.ops.push_back([](Database&, Transaction*) -> Status {
    return Status::InvalidArgument("scripted failure");
  });
  TxnScript b;
  b.label = "B";
  b.ops.push_back(UpdateOp(rig.addrs[0], 0, 122));

  ConcurrentExecutor ex(rig.db.get());
  ex.Submit(a);
  ex.Submit(b);
  ASSERT_OK(ex.Run());

  ASSERT_EQ(ex.results().size(), 2u);
  EXPECT_EQ(ex.results()[0].outcome, ScriptOutcome::kAborted);
  EXPECT_EQ(ex.results()[1].outcome, ScriptOutcome::kCommitted);
  EXPECT_GE(ex.waits(), 1u);
  EXPECT_EQ(rig.ScanRows()[0], 122);  // A undone, B applied after the wake
}

TEST(ConcurrentExecutorTest, BlockedOpReplaysWithoutDuplicateEffects) {
  Rig rig(2);
  rig.Setup();

  // B's single op first inserts a fresh row, then touches the contended
  // row 0. The insert is rolled back when the op parks and must appear
  // exactly once after the replayed op commits.
  TxnScript a;
  a.label = "A";
  a.ops.push_back(UpdateOp(rig.addrs[0], 0, 111));
  a.ops.push_back(UpdateOp(rig.addrs[1], 1, 211));
  TxnScript b;
  b.label = "B";
  b.ops.push_back([addr0 = rig.addrs[0]](Database& d,
                                         Transaction* t) -> Status {
    auto ins = d.Insert(t, "r", Tuple{int64_t{50}, int64_t{500}});
    if (!ins.ok()) return ins.status();
    return d.Update(t, "r", addr0, Tuple{int64_t{0}, int64_t{122}});
  });

  ConcurrentExecutor ex(rig.db.get());
  ex.Submit(a);
  ex.Submit(b);
  ASSERT_OK(ex.Run());

  ASSERT_EQ(ex.results().size(), 2u);
  EXPECT_EQ(ex.results()[0].outcome, ScriptOutcome::kCommitted);
  EXPECT_EQ(ex.results()[1].outcome, ScriptOutcome::kCommitted);

  std::map<int64_t, int64_t> rows = rig.ScanRows();
  EXPECT_EQ(rows.count(50), 1u);
  EXPECT_EQ(rows[50], 500);
  EXPECT_EQ(rows.size(), 5u) << "statement rollback must not duplicate "
                                "or leak the partial insert";
}

TEST(ConcurrentExecutorTest, SingleWorkerMatchesDirectExecution) {
  // The same scripts through a 1-worker executor and through direct
  // Begin/op/Commit calls must leave identical rows and identical
  // committed-transaction counts.
  auto run_scripts = [](Rig* rig) {
    std::vector<TxnScript> scripts;
    for (int i = 0; i < 4; ++i) {
      TxnScript s;
      s.label = "s" + std::to_string(i);
      s.ops.push_back(UpdateOp(rig->addrs[i % 4], i % 4, 1000 + i));
      s.ops.push_back([i](Database& d, Transaction* t) -> Status {
        auto ins =
            d.Insert(t, "r", Tuple{int64_t{100 + i}, int64_t{10 * i}});
        return ins.status();
      });
      scripts.push_back(std::move(s));
    }
    return scripts;
  };

  Rig direct(1);
  direct.Setup();
  for (TxnScript& s : run_scripts(&direct)) {
    auto t = direct.db->Begin();
    ASSERT_OK(t.status());
    for (TxnOp& op : s.ops) ASSERT_OK(op(*direct.db, t.value()));
    ASSERT_OK(direct.db->Commit(t.value()));
  }

  Rig exec(1);
  exec.Setup();
  ConcurrentExecutor ex(exec.db.get());
  for (TxnScript& s : run_scripts(&exec)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  EXPECT_EQ(ex.commit_order().size(), 4u);
  EXPECT_EQ(ex.waits(), 0u);

  EXPECT_EQ(direct.ScanRows(), exec.ScanRows());
  EXPECT_EQ(direct.db->GetStats().txns_committed,
            exec.db->GetStats().txns_committed);
}

TEST(ConcurrentExecutorTest, WorkerMetricsAreRecorded) {
  Rig rig(2);
  rig.Setup();
  TxnScript a;
  a.label = "A";
  a.ops.push_back(UpdateOp(rig.addrs[0], 0, 111));
  TxnScript b;
  b.label = "B";
  b.ops.push_back(UpdateOp(rig.addrs[0], 0, 122));
  ConcurrentExecutor ex(rig.db.get());
  ex.Submit(a);
  ex.Submit(b);
  ASSERT_OK(ex.Run());

  const obs::Histogram* busy =
      rig.db->metrics().find_histogram("txn.worker_busy_ns");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->count(), 2u);  // one sample per worker
  EXPECT_EQ(rig.db->metrics().counter_value("txn.waits"), ex.waits());
  EXPECT_EQ(rig.db->metrics().counter_value("txn.deadlocks"),
            ex.deadlocks());
}

}  // namespace
}  // namespace mmdb
