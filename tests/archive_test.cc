#include <gtest/gtest.h>

#include "recovery/archive.h"
#include "test_util.h"

namespace mmdb {
namespace {

std::vector<sim::Page> Track(uint8_t seed) {
  std::vector<sim::Page> pages;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(sim::MakePage(testing::FilledBytes(1024, seed + i)));
  }
  return pages;
}

std::vector<uint8_t> Concat(const std::vector<sim::Page>& pages) {
  std::vector<uint8_t> bytes;
  for (const sim::Page& p : pages) {
    bytes.insert(bytes.end(), p.bytes->begin(), p.bytes->end());
  }
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
  auto write = [&](uint64_t lsn, uint8_t seed) {
    logs.WritePage(lsn, sim::MakePage(testing::FilledBytes(64, seed)), 0,
                   sim::SeekClass::kNear);
  };
  write(0, 1);
  write(1, 2);
  write(3, 3);
  ASSERT_OK(am.RollLog(logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Second roll over the same range does nothing.
  ASSERT_OK(am.RollLog(logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Extending the range picks up only new pages.
  write(5, 4);
  ASSERT_OK(am.RollLog(logs, 6));
  EXPECT_EQ(am.archived_log_pages(), 4u);
}

}  // namespace
}  // namespace mmdb
