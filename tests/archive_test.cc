#include <gtest/gtest.h>

#include "recovery/archive.h"
#include "test_util.h"

namespace mmdb {
namespace {

std::vector<std::vector<uint8_t>> Track(uint8_t seed) {
  std::vector<std::vector<uint8_t>> pages;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(testing::FilledBytes(1024, seed + i));
  }
  return pages;
}

std::vector<uint8_t> Concat(const std::vector<std::vector<uint8_t>>& pages) {
  std::vector<uint8_t> bytes;
  for (const auto& p : pages) bytes.insert(bytes.end(), p.begin(), p.end());
  return bytes;
}

TEST(ArchiveManagerTest, KeepsLatestImagePerPartition) {
  ArchiveManager am;
  am.ArchiveCheckpointImage({1, 0}, 0, Track(1));
  am.ArchiveCheckpointImage({1, 0}, 60, Track(2));
  am.ArchiveCheckpointImage({2, 0}, 12, Track(3));
  EXPECT_EQ(am.archived_images(), 3u);

  sim::Disk disk("ckpt", sim::DiskParams{.page_size_bytes = 1024});
  uint64_t done = 0;
  ASSERT_OK(am.RecoverCheckpointDisk(&disk, 0, &done));
  EXPECT_GT(done, 0u);
  // The latest copy of {1,0} landed at its recorded location.
  std::vector<uint8_t> out;
  ASSERT_OK(
      disk.ReadTrackInto(60, 6, done, sim::SeekClass::kRandom, &out, &done));
  EXPECT_EQ(out, Concat(Track(2)));
  out.clear();
  ASSERT_OK(
      disk.ReadTrackInto(12, 6, done, sim::SeekClass::kRandom, &out, &done));
  EXPECT_EQ(out, Concat(Track(3)));
}

TEST(ArchiveManagerTest, RefusesRestoreOntoFailedMedia) {
  ArchiveManager am;
  am.ArchiveCheckpointImage({1, 0}, 0, Track(1));
  sim::Disk disk("ckpt", sim::DiskParams{});
  disk.FailMedia();
  uint64_t done;
  EXPECT_TRUE(
      am.RecoverCheckpointDisk(&disk, 0, &done).IsInvalidArgument());
  disk.RepairMedia();
  ASSERT_OK(am.RecoverCheckpointDisk(&disk, 0, &done));
}

TEST(ArchiveManagerTest, RollLogIsIdempotentAndSparseTolerant) {
  ArchiveManager am;
  sim::DuplexedDisk logs("log", sim::DiskParams{.page_size_bytes = 1024});
  // Write pages 0,1,3 (2 intentionally missing: sparse LSN space).
  logs.WritePage(0, testing::FilledBytes(64, 1), 0, sim::SeekClass::kNear);
  logs.WritePage(1, testing::FilledBytes(64, 2), 0, sim::SeekClass::kNear);
  logs.WritePage(3, testing::FilledBytes(64, 3), 0, sim::SeekClass::kNear);
  ASSERT_OK(am.RollLog(&logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Second roll over the same range does nothing.
  ASSERT_OK(am.RollLog(&logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Extending the range picks up only new pages.
  logs.WritePage(5, testing::FilledBytes(64, 4), 0, sim::SeekClass::kNear);
  ASSERT_OK(am.RollLog(&logs, 6));
  EXPECT_EQ(am.archived_log_pages(), 4u);
}

}  // namespace
}  // namespace mmdb
