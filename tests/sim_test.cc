#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/clock.h"
#include "sim/cpu.h"
#include "sim/disk.h"
#include "sim/scheduler.h"
#include "sim/small_fn.h"
#include "sim/stable_memory.h"
#include "test_util.h"

namespace mmdb::sim {
namespace {

TEST(SimClockTest, AdvanceAndAdvanceTo) {
  SimClock c;
  EXPECT_EQ(c.now_ns(), 0u);
  c.Advance(100);
  EXPECT_EQ(c.now_ns(), 100u);
  c.AdvanceTo(50);  // never goes back
  EXPECT_EQ(c.now_ns(), 100u);
  c.AdvanceTo(300);
  EXPECT_EQ(c.now_ns(), 300u);
  EXPECT_DOUBLE_EQ(c.now_seconds(), 3e-7);
}

TEST(CpuModelTest, OneMipsMeansOneMicrosecondPerInstruction) {
  CpuModel cpu("recovery", 1.0);
  cpu.Execute(1000);
  EXPECT_EQ(cpu.busy_until_ns(), 1000000u);  // 1000 us
  EXPECT_DOUBLE_EQ(cpu.total_instructions(), 1000.0);
}

TEST(CpuModelTest, SixMipsIsSixTimesFaster) {
  CpuModel fast("main", 6.0);
  CpuModel slow("recovery", 1.0);
  fast.Execute(6000);
  slow.Execute(1000);
  EXPECT_EQ(fast.busy_until_ns(), slow.busy_until_ns());
}

TEST(CpuModelTest, IdleUntilMovesForwardOnly) {
  CpuModel cpu("main", 1.0);
  cpu.Execute(10);
  uint64_t t = cpu.busy_until_ns();
  cpu.IdleUntil(t / 2);
  EXPECT_EQ(cpu.busy_until_ns(), t);
  cpu.IdleUntil(t + 500);
  EXPECT_EQ(cpu.busy_until_ns(), t + 500);
}

TEST(DiskTest, WriteThenReadRoundTrips) {
  Disk d("d", DiskParams{});
  auto data = testing::FilledBytes(4096, 3);
  uint64_t done = d.WritePage(7, MakePage(data), 0, SeekClass::kRandom);
  EXPECT_GT(done, 0u);
  Page out;
  uint64_t rdone = 0;
  ASSERT_OK(d.ReadPage(7, done, SeekClass::kRandom, &out, &rdone));
  EXPECT_EQ(*out.bytes, data);
  EXPECT_GT(rdone, done);
}

TEST(DiskTest, ReadOfUnwrittenPageFails) {
  Disk d("d", DiskParams{});
  Page out;
  uint64_t done;
  EXPECT_TRUE(d.ReadPage(99, 0, SeekClass::kRandom, &out, &done).IsNotFound());
}

TEST(DiskTest, SequentialWritesAreCheaperThanRandom) {
  DiskParams p;
  Disk seq("s", p), rnd("r", p);
  Page data = MakePage(testing::FilledBytes(1024, 1));
  uint64_t t_seq = 0, t_rnd = 0;
  for (int i = 0; i < 10; ++i) {
    t_seq = seq.WritePage(i, data, t_seq, SeekClass::kSequential);
    t_rnd = rnd.WritePage(i, data, t_rnd, SeekClass::kRandom);
  }
  EXPECT_LT(t_seq, t_rnd);
  EXPECT_EQ(seq.seeks(), 0u);
  EXPECT_EQ(rnd.seeks(), 10u);
}

TEST(DiskTest, TrackWriteFasterThanPagewise) {
  DiskParams p;
  Disk track("t", p), pages("p", p);
  std::vector<Page> six(6, MakePage(testing::FilledBytes(8192, 2)));
  uint64_t t_track = track.WriteTrack(0, six, 0, SeekClass::kRandom);
  uint64_t t_pages = 0;
  for (int i = 0; i < 6; ++i) {
    t_pages = pages.WritePage(i, six[i], t_pages, SeekClass::kRandom);
  }
  EXPECT_LT(t_track, t_pages);
  EXPECT_EQ(track.pages_written(), 6u);
  EXPECT_EQ(track.tracks_written(), 1u);
}

TEST(DiskTest, RequestsSerializeOnBusyTimeline) {
  Disk d("d", DiskParams{});
  Page data = MakePage(testing::FilledBytes(64, 9));
  uint64_t first = d.WritePage(0, data, 0, SeekClass::kRandom);
  // Submitting "in the past" still queues behind the first request.
  uint64_t second = d.WritePage(1, data, 0, SeekClass::kRandom);
  EXPECT_GT(second, first);
}

TEST(DiskTest, MediaFailureDropsDataUntilRepaired) {
  Disk d("d", DiskParams{});
  d.WritePage(1, MakePage(testing::FilledBytes(16, 1)), 0, SeekClass::kRandom);
  d.FailMedia();
  Page out;
  uint64_t done;
  EXPECT_TRUE(d.ReadPage(1, 0, SeekClass::kRandom, &out, &done).IsIOError());
  d.RepairMedia();
  // Data is gone (media failure), but the disk serves again.
  EXPECT_TRUE(d.ReadPage(1, 0, SeekClass::kRandom, &out, &done).IsNotFound());
  d.WritePage(1, MakePage(testing::FilledBytes(16, 2)), 0, SeekClass::kRandom);
  ASSERT_OK(d.ReadPage(1, 0, SeekClass::kRandom, &out, &done));
}

TEST(DiskTest, ReadTrackIntoAppendsAllPages) {
  Disk d("d", DiskParams{});
  std::vector<Page> pages;
  std::vector<uint8_t> track;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(MakePage(testing::FilledBytes(128, i)));
    track.insert(track.end(), pages.back().bytes->begin(),
                 pages.back().bytes->end());
  }
  d.WriteTrack(10, pages, 0, SeekClass::kNear);
  std::vector<uint8_t> out;
  uint64_t done;
  ASSERT_OK(d.ReadTrackInto(10, 6, 0, SeekClass::kNear, &out, &done));
  EXPECT_EQ(out, track);
}

TEST(DiskTest, ReadTrackIntoLeavesOutAloneOnAMissingPage) {
  Disk d("d", DiskParams{});
  d.WritePage(10, MakePage(testing::FilledBytes(128, 1)), 0, SeekClass::kNear);
  d.WritePage(12, MakePage(testing::FilledBytes(128, 3)), 0, SeekClass::kNear);
  const std::vector<uint8_t> before = testing::FilledBytes(40, 9);
  std::vector<uint8_t> out = before;
  uint64_t done = 0;
  EXPECT_TRUE(
      d.ReadTrackInto(10, 3, 0, SeekClass::kNear, &out, &done).IsNotFound());
  EXPECT_EQ(out, before);
  EXPECT_EQ(d.pages_read(), 0u);
}

TEST(DuplexedDiskTest, WritesGoToBothMembers) {
  DuplexedDisk d("log", DiskParams{});
  Page written = MakePage(testing::FilledBytes(32, 5));
  d.WritePage(3, written, 0, SeekClass::kSequential);
  EXPECT_TRUE(d.primary().Contains(3));
  EXPECT_TRUE(d.mirror().Contains(3));
  // Both members reference the one buffer the writer built.
  Page a, b;
  ASSERT_OK(d.primary().StoredPage(3, &a));
  ASSERT_OK(d.mirror().StoredPage(3, &b));
  EXPECT_EQ(a.bytes, written.bytes);
  EXPECT_EQ(b.bytes, written.bytes);
  // The writer's handle, both members and the two read back here.
  EXPECT_EQ(written.bytes.use_count(), 5);
}

TEST(DuplexedDiskTest, MirrorServesAfterPrimaryFailure) {
  DuplexedDisk d("log", DiskParams{});
  auto data = testing::FilledBytes(32, 5);
  d.WritePage(3, MakePage(data), 0, SeekClass::kSequential);
  d.primary().FailMedia();
  Page out;
  uint64_t done;
  ASSERT_OK(d.ReadPage(3, 0, SeekClass::kSequential, &out, &done));
  EXPECT_EQ(*out.bytes, data);
}

TEST(DiskTest, ReleasedPagesReadAsNeverWritten) {
  Disk d("d", DiskParams{});
  std::vector<Page> track;
  for (int i = 0; i < 6; ++i) {
    track.push_back(MakePage(testing::FilledBytes(128, i)));
  }
  d.WriteTrack(12, track, 0, SeekClass::kNear);
  const uint64_t busy = d.busy_until_ns();
  d.ReleasePages(12, 6);
  EXPECT_EQ(d.busy_until_ns(), busy);  // releasing takes no time
  EXPECT_TRUE(d.StoredPageNumbers().empty());
  Page out;
  uint64_t done = 0;
  EXPECT_TRUE(d.ReadPage(12, 0, SeekClass::kNear, &out, &done).IsNotFound());
  EXPECT_TRUE(d.StoredPage(17, &out).IsNotFound());
  std::vector<uint8_t> image;
  EXPECT_TRUE(d.ReadTrackInto(12, 6, 0, SeekClass::kNear, &image, &done)
                  .IsNotFound());
}

TEST(DiskTest, StoredPageIsOutsideTheTimingModel) {
  fault::FaultInjector inj;
  inj.Arm(fault::FaultPlan{});
  Disk d("d", DiskParams{});
  d.SetFaultInjector(&inj);
  Page written = MakePage(testing::FilledBytes(64, 4));
  d.WritePage(5, written, 0, SeekClass::kRandom);
  const uint64_t busy = d.busy_until_ns();
  const double busy_ms = d.busy_ms_total();
  Page out;
  ASSERT_OK(d.StoredPage(5, &out));
  EXPECT_EQ(out.bytes, written.bytes);  // the stored buffer itself
  EXPECT_EQ(d.busy_until_ns(), busy);
  EXPECT_EQ(d.busy_ms_total(), busy_ms);
  EXPECT_EQ(d.pages_read(), 0u);
  EXPECT_EQ(inj.visits(fault::Site::kDiskRead), 0u);
}

TEST(DuplexedDiskTest, LatentCorruptionOnOneMemberFallsBackToTheOther) {
  fault::FaultInjector inj;
  fault::FaultPlan plan;
  plan.LatentCorruption("log-a", 3);
  inj.Arm(plan);
  DuplexedDisk d("log", DiskParams{});
  d.SetFaultInjector(&inj);
  const std::vector<uint8_t> data = testing::FilledBytes(32, 5);
  Page written = MakePage(data);
  d.WritePage(3, written, 0, SeekClass::kSequential);

  Page out;
  uint64_t done = 0;
  ASSERT_OK(d.ReadPage(3, 0, SeekClass::kSequential, &out, &done));
  EXPECT_EQ(*out.bytes, data);
  EXPECT_EQ(d.mirror_fallbacks(), 1u);
  EXPECT_EQ(inj.injected(fault::Site::kDiskRead), 1u);
  // Only member a's copy went bad: it holds a private altered buffer
  // under the old CRC, while member b and the writer keep the original.
  EXPECT_TRUE(d.primary().StoredPage(3, &out).IsCorruption());
  EXPECT_FALSE(d.primary().PageClean(3));
  ASSERT_OK(d.mirror().StoredPage(3, &out));
  EXPECT_EQ(out.bytes, written.bytes);
  EXPECT_EQ(*written.bytes, data);
  // The duplex-level stored page skips the bad member.
  ASSERT_OK(d.StoredPage(3, &out));
  EXPECT_EQ(out.bytes, written.bytes);
}

TEST(DuplexedDiskTest, TornWriteOnOneMemberLeavesTheOtherShared) {
  fault::FaultInjector inj;
  fault::FaultPlan plan;
  plan.TornWrite("log-a", 2);  // the rewrite of page 3 on member a
  inj.Arm(plan);
  DuplexedDisk d("log", DiskParams{});
  d.SetFaultInjector(&inj);
  d.WritePage(3, MakePage(testing::FilledBytes(64, 1)), 0,
              SeekClass::kSequential);
  Page second = MakePage(testing::FilledBytes(64, 2));
  d.WritePage(3, second, 0, SeekClass::kSequential);

  Page a, b;
  ASSERT_OK(d.primary().StoredPage(3, &a));  // sector-consistent hybrid
  ASSERT_OK(d.mirror().StoredPage(3, &b));
  EXPECT_NE(a.bytes, second.bytes);
  EXPECT_NE(*a.bytes, *second.bytes);
  EXPECT_EQ(b.bytes, second.bytes);
}

TEST(StableMemoryMeterTest, CapacityEnforcement) {
  StableMemoryMeter m(1000);
  EXPECT_TRUE(m.CanAllocate(1000));
  m.Allocate(900);
  EXPECT_TRUE(m.CanAllocate(100));
  EXPECT_FALSE(m.CanAllocate(101));
  m.Release(400);
  EXPECT_TRUE(m.CanAllocate(500));
  EXPECT_EQ(m.allocated_bytes(), 500u);
}

TEST(StableMemoryMeterTest, SlowdownPenalty) {
  StableMemoryMeter m(1 << 20, 4.0);
  // 8 bytes = one word; (4-1) extra references at 1000 ns each.
  EXPECT_DOUBLE_EQ(m.ChargeWrite(8), 3000.0);
  EXPECT_DOUBLE_EQ(m.ChargeRead(16), 6000.0);
  EXPECT_EQ(m.bytes_written(), 8u);
  EXPECT_EQ(m.bytes_read(), 16u);
}

TEST(StableMemoryMeterTest, HighWaterTracksPeak) {
  StableMemoryMeter m(1000);
  m.Allocate(700);
  m.NoteHighWater();
  m.Release(600);
  m.Allocate(100);
  m.NoteHighWater();
  EXPECT_EQ(m.high_water_bytes(), 700u);
}

TEST(SmallFnTest, InlineCaptureInvokesAndMoves) {
  uint64_t hits = 0;
  SmallFn f([&hits](uint64_t t) { hits += t; });
  EXPECT_TRUE(f.is_inline());
  f(5);
  SmallFn g = std::move(f);
  g(7);
  EXPECT_EQ(hits, 12u);
}

TEST(SmallFnTest, MoveOnlyCaptureWorks) {
  // std::function cannot hold this; SmallFn must (sweep install events
  // carry the rebuilt partition by unique_ptr).
  auto p = std::make_unique<uint64_t>(41);
  uint64_t got = 0;
  SmallFn f([p = std::move(p), &got](uint64_t t) { got = *p + t; });
  EXPECT_TRUE(f.is_inline());
  f(1);
  EXPECT_EQ(got, 42u);
}

TEST(SmallFnTest, OversizedCaptureFallsBackToHeap) {
  std::array<uint64_t, 32> big{};  // 256 bytes > the inline buffer
  big[31] = 9;
  uint64_t got = 0;
  SmallFn f([big, &got](uint64_t) { got = big[31]; });
  EXPECT_FALSE(f.is_inline());
  SmallFn g = std::move(f);  // heap case relocates by pointer swap
  g(0);
  EXPECT_EQ(got, 9u);
}

TEST(EventSchedulerTest, RunsInTimeOrderWithSeqTieBreak) {
  EventScheduler s;
  std::vector<int> order;
  s.At(20, [&](uint64_t) { order.push_back(2); });
  s.At(10, [&](uint64_t) { order.push_back(1); });
  s.At(10, [&](uint64_t) { order.push_back(3); });  // same time: after 1
  EXPECT_EQ(s.next_ns(), 10u);
  ASSERT_OK(s.RunNext());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.next_ns(), 10u);
  ASSERT_OK(s.Run());
  EXPECT_EQ(s.next_ns(), UINT64_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now_ns(), 20u);
  EXPECT_EQ(s.events_run(), 3u);
}

TEST(EventSchedulerTest, TracksPeakDepthAndHeapFallbacks) {
  EventScheduler s;
  s.Reserve(8);
  for (uint64_t i = 0; i < 5; ++i) {
    s.At(10 * (i + 1), [](uint64_t) {});
  }
  EXPECT_EQ(s.depth(), 5u);
  ASSERT_OK(s.Run());
  EXPECT_EQ(s.peak_depth(), 5u);
  EXPECT_EQ(s.depth(), 0u);
  // All the no-capture callbacks above fit inline.
  EXPECT_EQ(s.heap_fallbacks(), 0u);
  std::array<uint64_t, 32> big{};
  s.At(100, [big](uint64_t) { (void)big; });
  EXPECT_EQ(s.heap_fallbacks(), 1u);
  ASSERT_OK(s.Run());
}

TEST(EventSchedulerTest, CallbackSubmissionClampsToNow) {
  EventScheduler s;
  uint64_t ran_at = 0;
  s.At(100, [&](uint64_t t) {
    // An event may not schedule into its own past.
    s.At(t - 50, [&](uint64_t t2) { ran_at = t2; });
  });
  ASSERT_OK(s.Run());
  EXPECT_EQ(ran_at, 100u);
}

}  // namespace
}  // namespace mmdb::sim
