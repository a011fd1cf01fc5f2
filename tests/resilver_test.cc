// Duplex re-silvering tests: rebuilding a failed log-disk member from its
// healthy mirror in background quanta, resuming idempotently across
// crashes, and falling back to the archive when the mirror cannot serve a
// page.

#include <gtest/gtest.h>

#include "core/database.h"
#include "fault/fault.h"
#include "test_util.h"

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

// Every page of `a` must be present on `b` with identical bytes.
void ExpectMembersEqual(sim::Disk& a, sim::Disk& b) {
  std::vector<uint64_t> pages_a = a.StoredPageNumbers();
  ASSERT_EQ(pages_a, b.StoredPageNumbers());
  for (uint64_t page_no : pages_a) {
    sim::Page pa, pb;
    uint64_t done = 0;
    ASSERT_OK(a.ReadPage(page_no, 0, sim::SeekClass::kSequential, &pa, &done));
    ASSERT_OK(b.ReadPage(page_no, 0, sim::SeekClass::kSequential, &pb, &done));
    EXPECT_EQ(*pa.bytes, *pb.bytes) << "page " << page_no;
    EXPECT_TRUE(b.PageClean(page_no));
  }
}

TEST(ResilverTest, RebuildsFailedMirrorFromPrimary) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  ASSERT_OK(db.CheckpointEverything());
  size_t primary_pages = db.log_disks().primary().StoredPageNumbers().size();
  ASSERT_GT(primary_pages, 0u);

  db.log_disks().mirror().FailMedia();
  ASSERT_TRUE(db.log_disks().member(1).StoredPageNumbers().empty());

  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_TRUE(db.resilverer().active());
  EXPECT_EQ(db.resilverer().pages_total(), primary_pages);
  uint64_t t0 = db.now_ns();
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GT(db.now_ns(), t0);  // copying consumed virtual disk time
  EXPECT_FALSE(db.resilverer().active());

  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
  EXPECT_EQ(db.resilverer().pages_done(), primary_pages);
  EXPECT_EQ(db.metrics().counter("resilver.pages_done")->value(),
            primary_pages);
  EXPECT_EQ(db.metrics().gauge("resilver.pages_total")->value(),
            static_cast<double>(primary_pages));
  EXPECT_EQ(db.metrics().counter("resilver.runs")->value(), 1u);

  // The rebuilt pair still recovers the database.
  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db.Commit(txn.value()));
}

TEST(ResilverTest, RebuildsFailedPrimaryFromMirror) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  db.log_disks().primary().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(0));
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().mirror(), db.log_disks().primary());
}

TEST(ResilverTest, RejectsBadMemberAndFailedSource) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 100));
  EXPECT_TRUE(db.StartLogDiskResilver(2).IsInvalidArgument());
  // Source (primary) dead: nothing to re-silver member 1 from.
  db.log_disks().primary().FailMedia();
  EXPECT_TRUE(db.StartLogDiskResilver(1).IsInvalidArgument());
}

TEST(ResilverTest, CrashDuringResilverRestartsIdempotently) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  // Enough log volume that the worklist spans several re-silver quanta.
  const size_t quantum = Resilverer::Config{}.pages_per_step;
  int rows = 0;
  while (rows < 100000 &&
         db.log_disks().primary().StoredPageNumbers().size() <= 3 * quantum) {
    ASSERT_OK(Fill(&db, "r", rows, rows + 300));
    rows += 300;
  }
  ASSERT_OK(db.CheckpointEverything());
  size_t primary_pages = db.log_disks().primary().StoredPageNumbers().size();
  ASSERT_GT(primary_pages, 3 * quantum);

  db.log_disks().mirror().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(1));

  // Crash after a few quanta: the copy is abandoned mid-worklist.
  bool done = false;
  ASSERT_OK(db.ResilverStep(&done));
  ASSERT_FALSE(done);
  size_t copied_before_crash = db.resilverer().pages_done();
  ASSERT_GT(copied_before_crash, 0u);
  ASSERT_LT(copied_before_crash, primary_pages);

  db.Crash();
  EXPECT_FALSE(db.resilverer().active());  // volatile progress lost
  ASSERT_OK(db.Restart());

  // Restart works off the partially-rebuilt pair (the healthy primary
  // masks every page the mirror is still missing)...
  {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    ASSERT_OK_AND_ASSIGN(auto scanned, db.Scan(txn.value(), "r"));
    EXPECT_EQ(scanned.size(), static_cast<size_t>(rows));
    ASSERT_OK(db.Commit(txn.value()));
  }

  // ...and a fresh re-silver run resumes idempotently: pages that landed
  // before the crash are verified clean and skipped, not re-copied.
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GE(db.resilverer().pages_skipped(), copied_before_crash);
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, InjectedCrashDuringResilverRecovers) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  // The re-silver must copy more than the 5 pages the crash comes after.
  for (int rows = 0;
       rows < 100000 && db.log_disks().primary().StoredPageNumbers().size() < 8;
       rows += 400) {
    ASSERT_OK(Fill(&db, "r", rows, rows + 400));
  }
  ASSERT_OK(db.CheckpointEverything());
  ASSERT_GE(db.log_disks().primary().StoredPageNumbers().size(), 8u);
  db.log_disks().mirror().FailMedia();

  // Crash on the 5th disk write after arming — mid-re-silver.
  fault::FaultPlan plan;
  plan.CrashAtVisit(fault::Site::kDiskWrite, 5);
  db.ArmFaultPlan(plan);

  ASSERT_OK(db.StartLogDiskResilver(1));
  Status st = db.ResilverToCompletion();
  ASSERT_TRUE(st.IsFault()) << st.ToString();
  ASSERT_TRUE(db.fault_injector().crash_pending());

  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, FallsBackToArchiveWhenMirrorCannotServePage) {
  // Small log window so checkpoints roll old log pages into the archive.
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 4;
  o.grace_pages = 0;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  for (int rows = 0; rows < 100000 && db.archive().archived_log_pages() == 0;
       rows += 400) {
    ASSERT_OK(Fill(&db, "r", rows, rows + 400));
    ASSERT_OK(db.CheckpointEverything());
  }
  ASSERT_GT(db.archive().archived_log_pages(), 0u)
      << "test setup: the window must have rolled pages into the archive";
  uint64_t archived_page = db.archive().log_page_archive().begin()->first;

  db.log_disks().mirror().FailMedia();

  // The source (primary) reports persistent read errors for the archived
  // page: the re-silverer must restore that page from the archive copy.
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.site = fault::Site::kDiskRead;
  s.kind = fault::FaultKind::kTransientReadError;
  s.device = "log-a";
  s.page_no = archived_page;
  s.nth_visit = 1;
  s.count = ~uint32_t{0};  // never clears
  plan.specs.push_back(s);
  db.ArmFaultPlan(plan);

  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GE(db.fault_injector().injected(fault::Site::kDiskRead),
            sim::kReadRetryAttempts);
  db.DisarmFaults();
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, RolledCopyOfAPageCorruptOnOneMemberStaysClean) {
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 4;
  o.grace_pages = 0;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  // The newest log page is still inside the window, not yet rolled.
  ASSERT_GT(db.log_writer().next_lsn(), 0u);
  const uint64_t lsn = db.log_writer().next_lsn() - 1;
  ASSERT_EQ(db.archive().log_page_archive().count(lsn), 0u);

  // Member a's copy goes bad; a read detects it and falls back to b.
  fault::FaultPlan plan;
  plan.LatentCorruption("log-a", lsn);
  db.ArmFaultPlan(plan);
  sim::Page page;
  uint64_t done = 0;
  ASSERT_OK(db.log_disks().ReadPage(lsn, db.now_ns(),
                                    sim::SeekClass::kSequential, &page,
                                    &done));
  EXPECT_EQ(db.fault_injector().injected(fault::Site::kDiskRead), 1u);
  EXPECT_EQ(db.log_disks().mirror_fallbacks(), 1u);
  db.DisarmFaults();
  EXPECT_FALSE(db.log_disks().primary().PageClean(lsn));

  // The window moves past the page: the roll takes member b's good copy.
  for (int rows = 400;
       rows < 100000 && db.archive().log_page_archive().count(lsn) == 0;
       rows += 400) {
    ASSERT_OK(Fill(&db, "r", rows, rows + 400));
    ASSERT_OK(db.CheckpointEverything());
  }
  auto rolled = db.archive().log_page_archive().find(lsn);
  ASSERT_NE(rolled, db.archive().log_page_archive().end());
  EXPECT_TRUE(rolled->second.Verifies());
  sim::Page mirror_copy;
  ASSERT_OK(db.log_disks().mirror().StoredPage(lsn, &mirror_copy));
  EXPECT_EQ(rolled->second.bytes, mirror_copy.bytes);

  // Re-silvering member b from a restores that page from the archive.
  db.log_disks().mirror().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  ASSERT_OK(db.log_disks().mirror().StoredPage(lsn, &mirror_copy));
  EXPECT_EQ(mirror_copy.bytes, rolled->second.bytes);
}

}  // namespace
}  // namespace mmdb
