#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "storage/partition.h"
#include "storage/partition_manager.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

TEST(PartitionTest, InsertReadRoundTrip) {
  Partition p({1, 0}, 48 * 1024, 5);
  auto data = testing::Bytes({1, 2, 3, 4});
  ASSERT_OK_AND_ASSIGN(uint32_t slot, p.Insert(data));
  ASSERT_OK_AND_ASSIGN(auto out, p.Read(slot));
  EXPECT_EQ(std::vector<uint8_t>(out.begin(), out.end()), data);
  EXPECT_EQ(p.live_count(), 1u);
  EXPECT_EQ(p.bin_index(), 5u);
  EXPECT_EQ(p.id(), (PartitionId{1, 0}));
}

TEST(PartitionTest, DeleteFreesSlotAndShrinksTailDirectory) {
  Partition p({1, 0}, 48 * 1024, 0);
  ASSERT_OK_AND_ASSIGN(uint32_t s0, p.Insert(testing::Bytes({1})));
  ASSERT_OK_AND_ASSIGN(uint32_t s1, p.Insert(testing::Bytes({2})));
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  ASSERT_OK(p.Delete(s1));
  EXPECT_EQ(p.slot_count(), 1u);  // trailing free slot reclaimed
  ASSERT_OK(p.Delete(s0));
  EXPECT_EQ(p.slot_count(), 0u);
  EXPECT_EQ(p.live_count(), 0u);
}

TEST(PartitionTest, SlotReuseAfterDelete) {
  Partition p({1, 0}, 48 * 1024, 0);
  ASSERT_OK_AND_ASSIGN(uint32_t s0, p.Insert(testing::Bytes({1})));
  ASSERT_OK_AND_ASSIGN(uint32_t s1, p.Insert(testing::Bytes({2})));
  (void)s1;
  ASSERT_OK(p.Delete(s0));
  ASSERT_OK_AND_ASSIGN(uint32_t s2, p.Insert(testing::Bytes({3})));
  EXPECT_EQ(s2, s0);  // lowest free slot reused
}

TEST(PartitionTest, InsertAppendsWhenNoEntryIsFreeElseReusesLowest) {
  Partition p({1, 0}, 48 * 1024, 0);
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(uint32_t s, p.Insert(testing::Bytes({1})));
    EXPECT_EQ(s, i);  // every entry live: append
  }
  ASSERT_OK(p.Delete(4));
  ASSERT_OK(p.Delete(1));
  ASSERT_EQ(p.slot_count(), 6u);
  ASSERT_EQ(p.live_count(), 4u);
  ASSERT_OK_AND_ASSIGN(uint32_t a, p.Insert(testing::Bytes({2})));
  EXPECT_EQ(a, 1u);  // lowest freed entry first
  ASSERT_OK_AND_ASSIGN(uint32_t b, p.Insert(testing::Bytes({3})));
  EXPECT_EQ(b, 4u);
  ASSERT_OK_AND_ASSIGN(uint32_t c, p.Insert(testing::Bytes({4})));
  EXPECT_EQ(c, 6u);  // directory full again: append
  EXPECT_EQ(p.slot_count(), 7u);
}

TEST(PartitionTest, InsertAtSpecificSlotGrowsDirectory) {
  Partition p({1, 0}, 48 * 1024, 0);
  ASSERT_OK(p.InsertAt(4, testing::Bytes({9})));
  EXPECT_EQ(p.slot_count(), 5u);
  EXPECT_TRUE(p.SlotUsed(4));
  EXPECT_FALSE(p.SlotUsed(0));
  // Intermediate slots are usable.
  ASSERT_OK(p.InsertAt(2, testing::Bytes({7})));
  EXPECT_TRUE(p.SlotUsed(2));
}

TEST(PartitionTest, InsertAtUsedSlotFails) {
  Partition p({1, 0}, 48 * 1024, 0);
  ASSERT_OK(p.InsertAt(0, testing::Bytes({1})));
  EXPECT_TRUE(p.InsertAt(0, testing::Bytes({2})).IsInvalidArgument());
}

TEST(PartitionTest, InsertAtSlotPastWhatThePartitionHoldsIsFull) {
  // The directory entry alone would need 4 GB: the growth must not wrap
  // in 32 bits into a small, fitting size.
  Partition p({1, 0}, 4096, 0);
  const std::vector<uint8_t> before = p.image();
  EXPECT_TRUE(p.InsertAt(1u << 29, testing::Bytes({1})).IsFull());
  EXPECT_TRUE(p.InsertAt(0xFFFFFFFFu, testing::Bytes({1})).IsFull());
  EXPECT_EQ(p.image(), before);
  EXPECT_EQ(p.slot_count(), 0u);
}

TEST(PartitionTest, UpdateInPlaceAndRelocating) {
  Partition p({1, 0}, 48 * 1024, 0);
  ASSERT_OK_AND_ASSIGN(uint32_t s, p.Insert(testing::FilledBytes(100, 1)));
  // Shrinking update stays in place.
  ASSERT_OK(p.Update(s, testing::FilledBytes(50, 2)));
  ASSERT_OK_AND_ASSIGN(auto a, p.Read(s));
  EXPECT_EQ(a.size(), 50u);
  EXPECT_GT(p.garbage_bytes(), 0u);
  // Growing update relocates.
  ASSERT_OK(p.Update(s, testing::FilledBytes(200, 3)));
  ASSERT_OK_AND_ASSIGN(auto b, p.Read(s));
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b[0], testing::FilledBytes(200, 3)[0]);
}

TEST(PartitionTest, OperationsOnUnusedSlotsFail) {
  Partition p({1, 0}, 48 * 1024, 0);
  EXPECT_TRUE(p.Read(0).status().IsNotFound());
  EXPECT_TRUE(p.Update(0, testing::Bytes({1})).IsNotFound());
  EXPECT_TRUE(p.Delete(0).IsNotFound());
}

TEST(PartitionTest, FillsUpAndReportsFull) {
  Partition p({1, 0}, 4096, 0);
  auto big = testing::FilledBytes(512, 1);
  int inserted = 0;
  while (true) {
    auto slot = p.Insert(big);
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsFull());
      break;
    }
    ++inserted;
    ASSERT_LT(inserted, 100);
  }
  EXPECT_GE(inserted, 6);
}

TEST(PartitionTest, CompactionReclaimsGarbage) {
  Partition p({1, 0}, 4096, 0);
  std::vector<uint32_t> slots;
  while (true) {
    auto s = p.Insert(testing::FilledBytes(256, 1));
    if (!s.ok()) break;
    slots.push_back(s.value());
  }
  // Free every other entity; the space is garbage until compaction.
  for (size_t i = 0; i < slots.size(); i += 2) ASSERT_OK(p.Delete(slots[i]));
  EXPECT_GT(p.garbage_bytes(), 0u);
  // A new insert larger than contiguous free space forces compaction.
  ASSERT_OK(p.Insert(testing::FilledBytes(400, 9)).status());
  // Survivors still readable with correct contents.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_OK_AND_ASSIGN(auto bytes, p.Read(slots[i]));
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
              testing::FilledBytes(256, 1));
  }
}

TEST(PartitionTest, InsertFitsWhenFreeSpaceAndGarbageTogetherCoverIt) {
  Partition p({1, 0}, 4096, 0);
  ASSERT_OK_AND_ASSIGN(uint32_t s0, p.Insert(testing::FilledBytes(1000, 1)));
  ASSERT_OK_AND_ASSIGN(uint32_t s1, p.Insert(testing::FilledBytes(1000, 2)));
  ASSERT_OK_AND_ASSIGN(uint32_t s2, p.Insert(testing::FilledBytes(1000, 3)));
  ASSERT_OK(p.Delete(s0));
  // Neither the contiguous free space nor the garbage alone holds 1500
  // bytes; compaction merges them into one run that does.
  ASSERT_LT(p.free_bytes(), 1500u);
  ASSERT_LT(p.garbage_bytes(), 1500u);
  ASSERT_GE(p.free_bytes() + p.garbage_bytes(), 1500u);
  ASSERT_OK_AND_ASSIGN(uint32_t s3, p.Insert(testing::FilledBytes(1500, 4)));
  EXPECT_EQ(s3, s0);  // the freed slot is reused
  EXPECT_EQ(p.garbage_bytes(), 0u);
  ASSERT_OK_AND_ASSIGN(auto b1, p.Read(s1));
  EXPECT_EQ(std::vector<uint8_t>(b1.begin(), b1.end()),
            testing::FilledBytes(1000, 2));
  ASSERT_OK_AND_ASSIGN(auto b2, p.Read(s2));
  EXPECT_EQ(std::vector<uint8_t>(b2.begin(), b2.end()),
            testing::FilledBytes(1000, 3));
  ASSERT_OK_AND_ASSIGN(auto b3, p.Read(s3));
  EXPECT_EQ(std::vector<uint8_t>(b3.begin(), b3.end()),
            testing::FilledBytes(1500, 4));
  // Past free + garbage the partition is still full.
  EXPECT_TRUE(p.Insert(testing::FilledBytes(1000, 5)).status().IsFull());
}

TEST(PartitionTest, ImageRoundTripPreservesEverything) {
  Partition p({3, 7}, 8192, 11);
  ASSERT_OK_AND_ASSIGN(uint32_t s0, p.Insert(testing::FilledBytes(64, 1)));
  ASSERT_OK_AND_ASSIGN(uint32_t s1, p.Insert(testing::FilledBytes(32, 2)));
  ASSERT_OK(p.Delete(s0));

  ASSERT_OK_AND_ASSIGN(auto copy, Partition::FromImage(p.image()));
  EXPECT_EQ(copy->id(), (PartitionId{3, 7}));
  EXPECT_EQ(copy->bin_index(), 11u);
  EXPECT_FALSE(copy->SlotUsed(s0));
  ASSERT_OK_AND_ASSIGN(auto bytes, copy->Read(s1));
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            testing::FilledBytes(32, 2));
}

TEST(PartitionTest, FromImageRejectsCorruptImages) {
  EXPECT_TRUE(Partition::FromImage({1, 2, 3}).status().IsCorruption());
  Partition p({1, 0}, 8192, 0);
  std::vector<uint8_t> img = p.image();
  img[0] ^= 0xFF;  // break magic
  EXPECT_TRUE(Partition::FromImage(img).status().IsCorruption());
  std::vector<uint8_t> truncated(p.image().begin(), p.image().end() - 10);
  EXPECT_TRUE(Partition::FromImage(truncated).status().IsCorruption());
  // A slot count whose directory wraps 32 bits (2^29 entries of 8 bytes).
  std::vector<uint8_t> huge_dir = p.image();
  const uint32_t slot_count = 1u << 29;
  std::memcpy(huge_dir.data() + 5 * sizeof(uint32_t), &slot_count,
              sizeof(slot_count));
  EXPECT_TRUE(Partition::FromImage(huge_dir).status().IsCorruption());
}

TEST(PartitionTest, EmptyEntitySupported) {
  Partition p({1, 0}, 8192, 0);
  ASSERT_OK_AND_ASSIGN(uint32_t s, p.Insert({}));
  ASSERT_OK_AND_ASSIGN(auto bytes, p.Read(s));
  EXPECT_EQ(bytes.size(), 0u);
  ASSERT_OK(p.Delete(s));
}

// Property test: random ops mirrored against a std::map reference.
TEST(PartitionPropertyTest, MatchesReferenceModelUnderRandomOps) {
  Random rng(2024);
  Partition p({1, 0}, 16 * 1024, 0);
  std::map<uint32_t, std::vector<uint8_t>> model;
  for (int step = 0; step < 5000; ++step) {
    int op = static_cast<int>(rng.Uniform(10));
    if (op < 5) {  // insert
      auto data = testing::FilledBytes(rng.Uniform(200) + 1,
                                       static_cast<uint8_t>(rng.Next()));
      auto slot = p.Insert(data);
      if (slot.ok()) {
        ASSERT_EQ(model.count(slot.value()), 0u);
        model[slot.value()] = data;
      } else {
        ASSERT_TRUE(slot.status().IsFull());
      }
    } else if (op < 7 && !model.empty()) {  // update
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      auto data = testing::FilledBytes(rng.Uniform(300) + 1,
                                       static_cast<uint8_t>(rng.Next()));
      Status st = p.Update(it->first, data);
      if (st.ok()) {
        it->second = data;
      } else {
        ASSERT_TRUE(st.IsFull());
      }
    } else if (!model.empty()) {  // delete
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_OK(p.Delete(it->first));
      model.erase(it);
    }
    if (step % 500 == 0) {
      ASSERT_EQ(p.live_count(), model.size());
      for (const auto& [slot, data] : model) {
        ASSERT_OK_AND_ASSIGN(auto bytes, p.Read(slot));
        ASSERT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), data);
      }
    }
  }
  // Image round-trip at the end preserves the whole model.
  ASSERT_OK_AND_ASSIGN(auto copy, Partition::FromImage(p.image()));
  for (const auto& [slot, data] : model) {
    ASSERT_OK_AND_ASSIGN(auto bytes, copy->Read(slot));
    ASSERT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), data);
  }
}

TEST(PartitionManagerTest, SegmentAndPartitionLifecycle) {
  PartitionManager pm(8192);
  SegmentId seg = pm.AllocateSegment();
  EXPECT_EQ(pm.PeekNextNumber(seg), 0u);
  ASSERT_OK_AND_ASSIGN(Partition * p0, pm.CreatePartition(seg, 0));
  ASSERT_OK_AND_ASSIGN(Partition * p1, pm.CreatePartition(seg, 1));
  EXPECT_EQ(p0->id().number, 0u);
  EXPECT_EQ(p1->id().number, 1u);
  EXPECT_EQ(pm.SegmentPartitions(seg).size(), 2u);
  EXPECT_EQ(pm.resident_count(), 2u);
  ASSERT_OK(pm.DropPartition(p0->id()));
  EXPECT_EQ(pm.resident_count(), 1u);
  EXPECT_TRUE(pm.Get({seg, 0}).status().IsNotResident());
}

TEST(PartitionManagerTest, RejectsUnknownSegment) {
  PartitionManager pm(8192);
  EXPECT_TRUE(pm.CreatePartition(99, 0).status().IsInvalidArgument());
  EXPECT_TRUE(pm.CreatePartition(0, 0).status().IsInvalidArgument());
}

TEST(PartitionManagerTest, InstallRecoveredBumpsCounters) {
  PartitionManager pm(8192);
  auto part = std::make_unique<Partition>(PartitionId{5, 9}, 8192u, 3u);
  ASSERT_OK(pm.InstallRecovered(std::move(part)));
  EXPECT_EQ(pm.PeekNextNumber(5), 10u);
  // New segments allocated after recovery do not collide.
  EXPECT_GE(pm.AllocateSegment(), 6u);
}

TEST(PartitionManagerTest, ClearWipesEverything) {
  PartitionManager pm(8192);
  SegmentId seg = pm.AllocateSegment();
  ASSERT_OK(pm.CreatePartition(seg, 0).status());
  pm.Clear();
  EXPECT_EQ(pm.resident_count(), 0u);
}

}  // namespace
}  // namespace mmdb
