// Failure-injection tests, driven by the deterministic fault-injection
// subsystem (src/fault): corruption of stable structures must surface as
// Status::Corruption at recovery time, never as silent wrong answers;
// duplexed log disks must mask single-member failures; transient read
// errors must be retried; injected crashes must recover to a consistent
// state. One legacy byte-poke test is kept as a cross-check that the
// FaultPlan sites model the same failures the raw pokes did.

#include <gtest/gtest.h>

#include <map>

#include "concurrency_workload.h"
#include "core/database.h"
#include "fault/fault.h"
#include "test_util.h"
#include "txn/executor.h"

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
                                                static_cast<int64_t>(i)});
    if (!a.ok()) return a.status();
  }
  return db->Commit(txn.value());
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : db_(SmallOptions()) {}
  Database db_;
};

// ---------------------------------------------------------------------------
// Legacy byte-poke cross-check: pokes the stored bytes directly instead of
// going through a FaultPlan, verifying that the injector's latent-corruption
// model matches what a raw bit flip on the platter would do.
TEST_F(FailureInjectionTest, CorruptLogPageOnBothMirrorsDetectedAtRestart) {
  // Keep checkpoints off so the first log page stays in a bin chain and
  // must be read back at recovery.
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db_(o);
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 400));  // enough for on-disk log pages
  ASSERT_GT(db_.log_writer().pages_written(), 0u);

  // Find a real bin page (skip WAL namespace) and flip a payload bit on
  // both mirrors.
  uint64_t victim = 0;
  sim::Page stored;
  uint64_t done;
  ASSERT_OK(db_.log_disks().primary().ReadPage(victim, 0,
                                               sim::SeekClass::kNear, &stored,
                                               &done));
  std::vector<uint8_t> raw = *stored.bytes;
  raw.back() ^= 0x01;
  db_.log_disks().WritePage(victim, sim::MakePage(std::move(raw)), 0,
                            sim::SeekClass::kNear);

  db_.Crash();
  Status st = db_.Restart();
  if (st.ok()) {
    // The corrupted page belonged to a data partition, not the catalog:
    // restart succeeds and the error surfaces at on-demand recovery.
    auto txn = db_.Begin();
    ASSERT_OK(txn.status());
    st = db_.Scan(txn.value(), "r").status();
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// FaultPlan port of the test above: latent sector corruption on both
// members of the duplexed pair, detected by the device CRC at restart.
TEST_F(FailureInjectionTest, LatentCorruptionOnBothMirrorsDetectedAtRestart) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  ASSERT_GT(db.log_writer().pages_written(), 0u);

  fault::FaultPlan plan;
  plan.LatentCorruption("log-a", 0).LatentCorruption("log-b", 0);
  db.ArmFaultPlan(plan);

  db.Crash();
  Status st = db.Restart();
  if (st.ok()) {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    st = db.Scan(txn.value(), "r").status();
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_GE(db.fault_injector().injected(fault::Site::kDiskRead), 1u);
}

TEST_F(FailureInjectionTest, SingleMirrorLatentCorruptionIsMaskedAndCounted) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));

  fault::FaultPlan plan;
  plan.LatentCorruption("log-a", 0);  // primary only
  db.ArmFaultPlan(plan);

  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db.Commit(txn.value()));
  // The duplex transparently served page 0 from the mirror.
  EXPECT_GE(db.log_disks().mirror_fallbacks(), 1u);
  EXPECT_GE(db.metrics().counter("disk.log.mirror_fallbacks")->value(), 1u);
}

TEST_F(FailureInjectionTest, SingleMirrorMediaFailureIsMasked) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 400));
  // Fail only the primary: the duplexed pair serves from the mirror.
  db_.log_disks().primary().FailMedia();
  db_.Crash();
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(FailureInjectionTest, TransientReadErrorsAreRetriedAtRestart) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 400));

  // Both members' first read after the crash fails once: the duplex
  // cannot mask it (both copies error), so the log read path must retry
  // with backoff — and succeed on the second attempt.
  fault::FaultPlan plan;
  plan.TransientReadError("log-a", 1, 1).TransientReadError("log-b", 1, 1);
  db_.ArmFaultPlan(plan);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db_.Commit(txn.value()));
  EXPECT_GE(db_.metrics().counter("disk.retries_total")->value(), 1u);
  EXPECT_GE(db_.fault_injector().injected(fault::Site::kDiskRead), 2u);
}

TEST_F(FailureInjectionTest, TornLogPageOnBothMembersDetectedAtRestart) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));

  // Tear the first flushed bin page on both members. A torn write is
  // sector-consistent (device CRC matches), so only the log page's
  // content-level checksum can catch it at restart.
  fault::FaultPlan plan;
  plan.TornWrite("log-a", 1).TornWrite("log-b", 1);
  db.ArmFaultPlan(plan);

  ASSERT_OK(Fill(&db, "r", 0, 400));
  ASSERT_GE(db.fault_injector().injected(fault::Site::kDiskWrite), 2u);

  db.Crash();
  Status st = db.Restart();
  if (st.ok()) {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    st = db.Scan(txn.value(), "r").status();
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(FailureInjectionTest, TornLogPageOnSingleMemberIsMasked) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));

  fault::FaultPlan plan;
  plan.TornWrite("log-a", 1);  // primary's copy of the first bin page
  db.ArmFaultPlan(plan);

  ASSERT_OK(Fill(&db, "r", 0, 400));
  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db.Commit(txn.value()));
}

TEST_F(FailureInjectionTest, CorruptCheckpointImageDetected) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 100));
  ASSERT_OK(db_.ForceCheckpointRelation("r"));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("r"));
  ASSERT_FALSE(rel->partitions.empty());
  uint64_t page = rel->partitions[0].checkpoint_page;
  ASSERT_NE(page, kNoCheckpointPage);

  // Latent corruption of the image's first page (the partition header),
  // detected by the device CRC when recovery reads it back. The single
  // checkpoint disk has no mirror, so the error must surface.
  fault::FaultPlan plan;
  plan.LatentCorruption("ckpt", page);
  db_.ArmFaultPlan(plan);

  db_.Crash();
  Status st = db_.Restart();
  if (st.ok()) {
    auto txn = db_.Begin();
    ASSERT_OK(txn.status());
    st = db_.Scan(txn.value(), "r").status();
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(FailureInjectionTest, SlbRootBitFlipFallsBackToSltCopy) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 50));

  // Flip one bit in the SLB copy of the catalog root block on every
  // write of it: the root's trailing CRC rejects the copy at restart and
  // the SLT copy carries the recovery.
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.site = fault::Site::kStableMemAccess;
  s.kind = fault::FaultKind::kBitFlip;
  s.device = "slb.catalog_root";
  s.nth_visit = 1;
  s.count = ~uint32_t{0};  // every root write
  plan.specs.push_back(s);
  db_.ArmFaultPlan(plan);

  ASSERT_OK(db_.CheckpointEverything());
  ASSERT_GE(db_.fault_injector().injected(fault::Site::kStableMemAccess), 1u);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 50u);
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(FailureInjectionTest, BothRootCopiesCorruptSurfaceAsCorruption) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 50));
  ASSERT_OK(db_.CheckpointEverything());
  db_.Crash();
  // Poke one byte in each stable copy of the root: both checksums fail
  // and restart must refuse rather than trust either copy.
  std::vector<uint8_t> r1 = db_.slb().catalog_root();
  std::vector<uint8_t> r2 = db_.slt().catalog_root();
  ASSERT_FALSE(r1.empty());
  ASSERT_FALSE(r2.empty());
  r1[5] ^= 0x10;
  r2[5] ^= 0x10;
  db_.slb().SetCatalogRoot(r1);
  db_.slt().SetCatalogRoot(r2);
  Status st = db_.Restart();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(FailureInjectionTest, CrashAtVisitOnSlbFlushRecovers) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));

  fault::FaultPlan plan;
  plan.CrashAtVisit(fault::Site::kSlbFlush, 1);
  db.ArmFaultPlan(plan);

  // Bin pages are flushed by the recovery CPU's sort pump, which runs
  // after the SLB commit point: the commit call surfaces the injected
  // fault, but the transaction is already durable — the canonical
  // in-doubt outcome. Recovery must therefore restore all 400 rows.
  Status st = Fill(&db, "r", 0, 400);
  ASSERT_TRUE(st.IsFault()) << st.ToString();
  ASSERT_TRUE(db.fault_injector().crash_pending());
  EXPECT_EQ(db.fault_injector().crashes_fired(), 1u);

  db.Crash();
  ASSERT_OK(db.Restart());
  {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
    EXPECT_EQ(rows.size(), 400u);  // in-doubt txn was durable: all or nothing
    ASSERT_OK(db.Commit(txn.value()));
  }
  // The recovered database accepts new work.
  ASSERT_OK(Fill(&db, "r", 400, 800));
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 800u);
  ASSERT_OK(db.Commit(txn.value()));
}

// The seeded write scripts, each opening with the insert of one wide row
// into "pad": the row mix alone logs a few bytes per update. A crash
// latched by the page flush a pad record fills then surfaces at the next
// record of the same post-commit pump, inside that commit. The pad rows
// are state-independent, so serial replay stays an oracle for "r".
constexpr size_t kPadBytes = 64;

Status AddPadRelation(Database* db) {
  return db->CreateRelation("pad", Schema({{"id", ColumnType::kInt64},
                                           {"s", ColumnType::kString}}));
}

std::vector<TxnScript> PaddedScripts(const testing::ConcurrencyWorkload& w,
                                     uint64_t seed) {
  std::vector<TxnScript> scripts = w.MakeScripts(seed);
  for (size_t i = 0; i < scripts.size(); ++i) {
    const int64_t key = static_cast<int64_t>(seed * scripts.size() + i);
    auto& ops = scripts[i].ops;
    ops.insert(ops.begin(), [key](Database& d, Transaction* t) -> Status {
      return d.Insert(t, "pad", Tuple{key, std::string(kPadBytes, 'p')})
          .status();
    });
  }
  return scripts;
}

// The slb.flush site names the flushing stream's own log-disk pair, so a
// spec can target one stream: "log1" fires at stream 1's first page flush
// and never on stream 0. The flush runs in a commit's post-commit pump,
// after every stamped epoch was fenced, so every committed script — the
// commit-faulted one included — survives the crash.
TEST(FailureInjectionStreamsTest, SlbFlushFaultNamesItsStream) {
  testing::ConcurrencyWorkload w;
  ASSERT_OK(w.Setup(/*workers=*/2, /*trace=*/false, /*streams=*/2));
  ASSERT_OK(AddPadRelation(w.db.get()));
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kSlbFlush;
  spec.kind = fault::FaultKind::kCrash;
  spec.device = "log1";
  plan.specs.push_back(spec);
  w.db->ArmFaultPlan(plan);

  // Waves of the seeded workload until the spec fires; the scripts that
  // committed, in commit order, are the serial-replay oracle.
  std::vector<std::pair<uint64_t, int>> committed;  // (wave seed, script)
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    ConcurrentExecutor ex(w.db.get());
    for (TxnScript& s : PaddedScripts(w, seed)) ex.Submit(std::move(s));
    Status st = ex.Run();
    std::map<uint64_t, int> script_of;
    int faulted = -1;
    for (size_t i = 0; i < ex.results().size(); ++i) {
      const ScriptResult& r = ex.results()[i];
      if (r.outcome == ScriptOutcome::kCommitted) {
        script_of[r.txn_id] = static_cast<int>(i);
      }
      if (r.commit_faulted) faulted = static_cast<int>(i);
    }
    for (uint64_t id : ex.commit_order()) {
      committed.emplace_back(seed, script_of.at(id));
    }
    if (!st.ok()) {
      ASSERT_TRUE(st.IsFault()) << st.ToString();
      ASSERT_GE(faulted, 0);
      committed.emplace_back(seed, faulted);
      break;
    }
    w.db->AdvanceClockTo(ex.completion_ns());
  }
  ASSERT_TRUE(w.db->fault_injector().crash_pending());
  EXPECT_EQ(w.db->fault_injector().crashes_fired(), 1u);
  // The flush sits inside the sort process's atomic pop-and-bin step, so
  // the page that fired still lands; the crash takes effect right after.
  const obs::MetricsRegistry& reg = w.db->metrics();
  EXPECT_GT(reg.counter_value("log.pages_flushed"), 0u);
  EXPECT_EQ(reg.counter_value("log.pages_flushed.1"), 1u);

  w.db->Crash();
  ASSERT_OK(w.db->Restart());
  testing::ConcurrencyWorkload serial;
  ASSERT_OK(serial.Setup(/*workers=*/1));
  ASSERT_OK(AddPadRelation(serial.db.get()));
  for (const auto& [seed, script] : committed) {
    std::vector<TxnScript> scripts = PaddedScripts(serial, seed);
    auto t = serial.db->Begin();
    ASSERT_OK(t.status());
    for (TxnOp& op : scripts[script].ops) {
      ASSERT_OK(op(*serial.db, t.value()));
    }
    ASSERT_OK(serial.db->Commit(t.value()));
  }
  ASSERT_OK_AND_ASSIGN(auto got, w.LogicalRows());
  ASSERT_OK_AND_ASSIGN(auto want, serial.LogicalRows());
  EXPECT_EQ(got, want);
}

TEST_F(FailureInjectionTest, CrashAtTimeRecovers) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 400));

  // Crash at the first fault site visited 2 virtual ms from now. The
  // virtual clock advances in bursts around the commit/flush path, so
  // the trigger lands after the second fill's SLB commit point: the fill
  // surfaces the fault (in-doubt) but its rows are durable.
  fault::FaultPlan plan;
  plan.CrashAtTime(db_.now_ns() + 2'000'000);
  db_.ArmFaultPlan(plan);

  Status st = Fill(&db_, "r", 400, 800);
  ASSERT_TRUE(st.IsFault()) << st.ToString();
  EXPECT_EQ(db_.fault_injector().crashes_fired(), 1u);

  db_.Crash();
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 800u);  // both fills durable, nothing partial
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(FailureInjectionTest, CrashDuringCheckpointKeepsPreviousImage) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;
  o.auto_run_checkpoints = false;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 150));
  ASSERT_OK(db.CheckpointEverything());
  uint64_t v1_page;
  {
    ASSERT_OK_AND_ASSIGN(auto* rel, db.catalog().GetRelation("r"));
    ASSERT_FALSE(rel->partitions.empty());
    v1_page = rel->partitions[0].checkpoint_page;
    ASSERT_NE(v1_page, kNoCheckpointPage);
  }
  ASSERT_OK(Fill(&db, "r", 150, 300));

  // Tear the next checkpoint image's track write AND crash on the same
  // visit: a partial track lands on the checkpoint disk, but the install
  // is rolled back, so the descriptor still names the previous image.
  fault::FaultPlan plan;
  plan.TornWrite("ckpt", 1);
  fault::FaultSpec crash;
  crash.site = fault::Site::kDiskWrite;
  crash.kind = fault::FaultKind::kCrash;
  crash.device = "ckpt";
  crash.nth_visit = 1;
  plan.specs.push_back(crash);
  db.ArmFaultPlan(plan);

  Status st = db.ForceCheckpointRelation("r");
  ASSERT_TRUE(st.IsFault()) << st.ToString();

  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 300u);  // previous image + log replay
  ASSERT_OK(db.Commit(txn.value()));
  ASSERT_OK_AND_ASSIGN(auto* rel, db.catalog().GetRelation("r"));
  EXPECT_EQ(rel->partitions[0].checkpoint_page, v1_page)
      << "partial checkpoint track must not be installed";
}

TEST_F(FailureInjectionTest, MissingCatalogRootIsFreshStart) {
  // A database that never created anything: both root copies empty.
  Database db(SmallOptions());
  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_OK(db.CreateRelation("r", S()));
}

TEST_F(FailureInjectionTest, SlbRootCopyLostFallsBackToSltCopy) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 50));
  db_.Crash();
  // Simulate losing the SLB copy of the root (e.g. partial stable-memory
  // failure): the SLT copy must carry the restart.
  db_.slb().SetCatalogRoot({});
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 50u);
  ASSERT_OK(db_.Commit(txn.value()));
}

TEST_F(FailureInjectionTest, CheckpointDiskFullSurfacesAsFull) {
  DatabaseOptions o = SmallOptions();
  o.checkpoint_disk_slots = 2;  // fewer slots than data partitions
  Database db(o);
  Status st = Status::OK();
  for (int r = 0; r < 3 && st.ok(); ++r) {
    const std::string rel = "r" + std::to_string(r);
    st = db.CreateRelation(rel, S());
    if (st.ok()) st = Fill(&db, rel, 0, 100);
  }
  if (st.ok()) st = db.CheckpointEverything();
  // Three data partitions (plus the catalog) cannot fit in 2 slots.
  EXPECT_TRUE(st.IsFull()) << st.ToString();
}

TEST_F(FailureInjectionTest, SltBudgetExhaustionSurfacesAsFull) {
  // Each active partition pins a 2KB page buffer in stable memory; many
  // simultaneously-active partitions must exhaust a tiny budget.
  DatabaseOptions o = SmallOptions();
  o.stable_memory_bytes = 24 * 1024;
  o.slb_capacity_bytes = 8 * 1024;
  o.auto_run_checkpoints = false;  // nothing ever releases the pages
  o.n_update = 1ull << 30;
  Database db(o);
  Status st = Status::OK();
  for (int r = 0; r < 40 && st.ok(); ++r) {
    st = db.CreateRelation("r" + std::to_string(r), S());
    if (st.ok()) st = Fill(&db, "r" + std::to_string(r), 0, 5);
  }
  EXPECT_TRUE(st.IsFull()) << st.ToString();
}

TEST_F(FailureInjectionTest, DoubleCrashBeforeAnyWorkIsSafe) {
  ASSERT_OK(db_.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db_, "r", 0, 30));
  db_.Crash();
  ASSERT_OK(db_.Restart());
  db_.Crash();  // crash again before touching anything
  ASSERT_OK(db_.Restart());
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 30u);
  ASSERT_OK(db_.Commit(txn.value()));
}

}  // namespace
}  // namespace mmdb
