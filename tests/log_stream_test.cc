// Unit tests for one log stream's sort process: sorting into bins, page
// flushes, checkpoint triggers and the archive combine buffer, without
// the full Database on top.

#include <gtest/gtest.h>

#include "core/database.h"
#include "test_util.h"

namespace mmdb {
namespace {

LogRecord Rec(uint64_t txn, PartitionId pid, uint32_t bin, uint32_t slot,
              size_t payload = 0) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.bin_index = bin;
  r.txn_id = txn;
  r.partition = pid;
  r.slot = slot;
  r.data.assign(payload, 0x5A);
  return r;
}

/// Stream 0 with 1 KB pages, a 4-entry directory, a 64-page window with 8
/// grace pages and `n_update` as the update-count threshold.
class LogStreamTest : public ::testing::Test {
 protected:
  explicit LogStreamTest(uint64_t n_update = 10)
      : opts_(Options(n_update)),
        meter_(opts_.stable_memory_bytes),
        cpu_("recovery", opts_.recovery_cpu_mips),
        ls_(opts_, 0, &meter_, &cpu_, nullptr, &metrics_) {}

  static DatabaseOptions Options(uint64_t n_update) {
    DatabaseOptions o;
    o.log_page_bytes = 1024;
    o.slb_block_bytes = 1024;
    o.slb_capacity_bytes = 8ull << 20;
    o.directory_entries = 4;
    o.log_window_pages = 64;
    o.grace_pages = 8;
    o.n_update = n_update;
    return o;
  }

  uint32_t Register(PartitionId pid) {
    auto bin = ls_.slt().RegisterPartition(pid);
    EXPECT_TRUE(bin.ok());
    return bin.value();
  }

  void CommitRecords(uint64_t txn, PartitionId pid, uint32_t bin, int n,
                     size_t payload = 0) {
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(ls_.slb().Append(txn, Rec(txn, pid, bin, i, payload)));
    }
    ASSERT_OK(ls_.slb().Commit(txn));
  }

  /// Commits records whose serialized sizes add up to exactly `bytes`.
  void CommitBytes(uint64_t txn, PartitionId pid, uint32_t bin, size_t bytes) {
    for (uint32_t slot = 0; bytes > 0; ++slot) {
      const size_t size = bytes > 120 ? 60 : bytes;
      LogRecord r = Rec(txn, pid, bin, slot);
      r.data.assign(size - r.SerializedSize(), 0x5A);
      ASSERT_EQ(r.SerializedSize(), size);
      ASSERT_OK(ls_.slb().Append(txn, r));
      bytes -= size;
    }
    ASSERT_OK(ls_.slb().Commit(txn));
  }

  PartitionBin* Bin(uint32_t bin) { return ls_.slt().bin(bin).value(); }

  uint64_t AgeRequests() const {
    return metrics_.counter_value("recovery.ckpt_requests_age");
  }

  /// Floods `hot` until an age checkpoint is requested (or 200 pages).
  void FloodUntilAgeTrigger(PartitionId hot, uint32_t bin, uint64_t txn) {
    while (AgeRequests() == 0 &&
           ls_.writer().next_lsn() < 200) {
      CommitRecords(txn++, hot, bin, 30, 64);
      ASSERT_OK(ls_.Drain(0));
    }
  }

  DatabaseOptions opts_;
  sim::StableMemoryMeter meter_;
  sim::CpuModel cpu_;
  obs::MetricsRegistry metrics_;
  LogStream ls_;
};

/// The update-count trigger is out of reach, so age triggers are isolated.
class LogStreamAgeTest : public LogStreamTest {
 protected:
  LogStreamAgeTest() : LogStreamTest(/*n_update=*/1ull << 40) {}
};

TEST_F(LogStreamTest, SortMovesRecordsIntoBins) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 5);
  ASSERT_OK(ls_.Drain(0));
  EXPECT_EQ(ls_.records_sorted(), 5u);
  EXPECT_EQ(Bin(bin)->update_count, 5u);
  EXPECT_EQ(Bin(bin)->active_records, 5u);
  EXPECT_FALSE(ls_.slb().HasCommittedRecords());
}

TEST_F(LogStreamTest, PumpIsBounded) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 8);
  ASSERT_OK_AND_ASSIGN(uint64_t n, ls_.Pump(3, 0));
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(ls_.slb().HasCommittedRecords());
}

TEST_F(LogStreamTest, ChargesTable2Costs) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 1);
  ASSERT_OK(ls_.Drain(0));
  analysis::Table2 t;
  size_t rec_bytes = Rec(1, {1, 0}, bin, 0).SerializedSize();
  double expected = t.i_record_lookup + t.i_page_check + t.i_copy_fixed +
                    t.i_copy_add * static_cast<double>(rec_bytes) +
                    t.i_page_update;
  EXPECT_DOUBLE_EQ(cpu_.total_instructions(), expected);
}

TEST_F(LogStreamTest, FullPagesFlushToDisk) {
  uint32_t bin = Register({1, 0});
  // 1024-byte pages, ~40-byte header: ~10 records of ~90 bytes fill one.
  CommitRecords(1, {1, 0}, bin, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  EXPECT_GT(ls_.writer().next_lsn(), 0u);
  EXPECT_TRUE(Bin(bin)->has_disk_pages());
  EXPECT_FALSE(ls_.first_lsn_list().empty());
}

/// A flush that takes every byte of a bin's active page gives the page
/// buffer back to the stable-memory meter, and a later reset or release
/// does not give it back twice.
TEST_F(LogStreamTest, ExactDrainsReleaseThePageBuffer) {
  uint32_t bin = Register({1, 0});
  const uint64_t baseline = meter_.allocated_bytes();
  ASSERT_EQ(baseline, StableLogTail::kInfoBlockBytes);
  const uint32_t page = ls_.writer().PagePayloadCapacity(0);
  uint64_t txn = 1;
  for (; txn <= 4; ++txn) {
    CommitBytes(txn, {1, 0}, bin, page);
    ASSERT_OK(ls_.Drain(0));
    ASSERT_TRUE(Bin(bin)->active_page.empty());
    EXPECT_EQ(meter_.allocated_bytes(), baseline) << "drain " << txn;
  }
  EXPECT_EQ(ls_.writer().next_lsn(), 4u);

  CommitBytes(txn++, {1, 0}, bin, 100);
  ASSERT_OK(ls_.Drain(0));
  EXPECT_EQ(meter_.allocated_bytes(), baseline + opts_.log_page_bytes);
  ASSERT_OK(ls_.OnCheckpointFinished(bin, 0));
  EXPECT_EQ(meter_.allocated_bytes(), baseline);

  CommitBytes(txn++, {1, 0}, bin, page);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_OK(ls_.OnCheckpointFinished(bin, 0));
  EXPECT_EQ(meter_.allocated_bytes(), baseline);
  ASSERT_OK(ls_.DropBin(bin));
  EXPECT_EQ(meter_.allocated_bytes(), baseline);
}

TEST_F(LogStreamTest, UpdateCountTriggersCheckpointRequest) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 10);  // n_update = 10
  ASSERT_OK(ls_.Drain(0));
  EXPECT_EQ(metrics_.counter_value("recovery.ckpt_requests_update_count"),
            1u);
  const auto& requests = ls_.slb().checkpoint_requests();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests.front().partition, (PartitionId{1, 0}));
  EXPECT_EQ(requests.front().trigger, CheckpointTrigger::kUpdateCount);
  // No duplicate request while one is pending.
  CommitRecords(2, {1, 0}, bin, 10);
  ASSERT_OK(ls_.Drain(0));
  EXPECT_EQ(requests.size(), 1u);
}

TEST_F(LogStreamAgeTest, AgeTriggersWhenWindowNearlyWraps) {
  // A cold bin writes a few pages, then a hot bin floods the log until
  // the cold pages are about to fall off the window.
  uint32_t cold = Register({1, 0});
  uint32_t hot = Register({1, 1});
  CommitRecords(1, {1, 0}, cold, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_TRUE(Bin(cold)->has_disk_pages());
  FloodUntilAgeTrigger({1, 1}, hot, 2);
  EXPECT_GT(AgeRequests(), 0u);
  // The age request names the cold partition.
  bool found = false;
  for (const CheckpointRequest& r : ls_.slb().checkpoint_requests()) {
    if (r.partition == (PartitionId{1, 0}) &&
        r.trigger == CheckpointTrigger::kAge) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

/// A dropped partition leaves the First-LSN list: once its bin is reused,
/// no age request names either the dropped partition or the new one.
TEST_F(LogStreamAgeTest, DroppedPartitionLeavesTheFirstLsnList) {
  uint32_t cold = Register({1, 0});
  uint32_t hot = Register({1, 1});
  CommitRecords(1, {1, 0}, cold, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_TRUE(Bin(cold)->has_disk_pages());
  ASSERT_OK(ls_.DropBin(cold));
  for (const auto& [lsn, bin] : ls_.first_lsn_list()) EXPECT_NE(bin, cold);
  ASSERT_EQ(Register({1, 2}), cold);

  FloodUntilAgeTrigger({1, 1}, hot, 2);
  ASSERT_GT(AgeRequests(), 0u);
  for (const CheckpointRequest& r : ls_.slb().checkpoint_requests()) {
    EXPECT_EQ(r.partition, (PartitionId{1, 1}));
  }
}

/// `log.window_slack_pages` reads the whole window while no partition has
/// a page on disk, and 0 once the oldest one triggers an age checkpoint.
TEST_F(LogStreamAgeTest, WindowSlackFallsToZeroAtTheAgeBoundary) {
  EXPECT_EQ(metrics_.gauge_value("log.window_slack_pages"), 64.0);
  uint32_t cold = Register({1, 0});
  uint32_t hot = Register({1, 1});
  CommitRecords(1, {1, 0}, cold, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  FloodUntilAgeTrigger({1, 1}, hot, 2);
  ASSERT_GT(AgeRequests(), 0u);
  EXPECT_EQ(metrics_.gauge_value("log.window_slack_pages"), 0.0);
}

/// While the log is younger than its window less the grace region, the
/// gauge counts the pages left before the oldest partition's age trigger:
/// 64 - 8 - 1 = 55 once that partition's first page (LSN 0) is written,
/// and one fewer per page after it.
TEST_F(LogStreamAgeTest, WindowSlackCountsDownWhileTheLogIsYoung) {
  const uint32_t page = ls_.writer().PagePayloadCapacity(0);
  for (uint32_t i = 0; i < 8; ++i) {
    // A partition's first page carries no directory: one page each.
    CommitBytes(i + 1, {1, i}, Register({1, i}), page);
    ASSERT_OK(ls_.Drain(0));
    ASSERT_EQ(ls_.writer().next_lsn(), i + 1);
    EXPECT_EQ(metrics_.gauge_value("log.window_slack_pages"), 55.0 - i);
  }
  EXPECT_EQ(AgeRequests(), 0u);
}

TEST_F(LogStreamTest, CheckpointFinishedResetsBinAndArchives) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_TRUE(Bin(bin)->has_disk_pages());
  ASSERT_GT(Bin(bin)->active_records, 0u);
  ASSERT_OK(ls_.OnCheckpointFinished(bin, 0));
  EXPECT_FALSE(Bin(bin)->has_disk_pages());
  EXPECT_EQ(Bin(bin)->update_count, 0u);
  EXPECT_EQ(Bin(bin)->active_records, 0u);
  EXPECT_TRUE(ls_.first_lsn_list().empty());
}

/// Checkpointed partitions' partial pages fill the combine buffer; one
/// archive page is written once they add up to a page's payload, and the
/// remainder waits for the next partial page.
TEST_F(LogStreamTest, CheckpointFinishedCombinesPartialPages) {
  const uint32_t page = ls_.writer().PagePayloadCapacity(0);
  const uint32_t bins[] = {Register({1, 0}), Register({1, 1}),
                           Register({1, 2})};
  std::vector<uint8_t> combined;
  auto finish = [&](uint32_t bin) {
    const std::vector<uint8_t>& partial = Bin(bin)->active_page;
    combined.insert(combined.end(), partial.begin(), partial.end());
    return ls_.OnCheckpointFinished(bin, 0);
  };
  const size_t part = 400;
  for (uint32_t i = 0; i < 3; ++i) {
    CommitBytes(i + 1, {1, i}, bins[i], part);
  }
  ASSERT_OK(ls_.Drain(0));
  ASSERT_OK(finish(bins[0]));
  ASSERT_OK(finish(bins[1]));
  EXPECT_EQ(metrics_.counter_value("log.archive_pages"), 0u);
  ASSERT_OK(finish(bins[2]));
  ASSERT_EQ(metrics_.counter_value("log.archive_pages"), 1u);

  // The 3 * 400 - page bytes left over complete the next page together
  // with one more partial page of exactly the rest.
  const size_t rest = 2 * page - 3 * part;
  CommitBytes(4, {1, 0}, bins[0], rest);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_OK(finish(bins[0]));
  ASSERT_EQ(metrics_.counter_value("log.archive_pages"), 2u);
  ASSERT_EQ(combined.size(), 2u * page);
  for (uint64_t lsn = 0; lsn < 2; ++lsn) {
    ParsedLogPage read;
    uint64_t done = 0;
    ASSERT_OK(ls_.writer().ReadPage(lsn, 0, sim::SeekClass::kNear, &read,
                                    &done));
    EXPECT_EQ(read.payload,
              std::vector<uint8_t>(combined.begin() + lsn * page,
                                   combined.begin() + (lsn + 1) * page))
        << "archive page " << lsn;
  }
}

TEST_F(LogStreamTest, CollectPageListOrdersPagesOldestFirst) {
  uint32_t bin = Register({1, 0});
  // Write enough pages to force anchor walking (directory = 4 entries).
  for (uint64_t txn = 1; txn <= 6; ++txn) {
    CommitRecords(txn, {1, 0}, bin, 30, 64);
    ASSERT_OK(ls_.Drain(0));
  }
  const PartitionBin* b = Bin(bin);
  ASSERT_GT(b->pages_since_checkpoint, 4u);
  std::vector<uint64_t> lsns;
  uint64_t backward = 0, done = 0;
  ASSERT_OK(ls_.CollectPageList(bin, 0, &lsns, &backward, &done));
  EXPECT_EQ(lsns.size(), b->pages_since_checkpoint);
  EXPECT_TRUE(std::is_sorted(lsns.begin(), lsns.end()));
  EXPECT_EQ(lsns.front(), b->first_page_lsn);
  EXPECT_GT(backward, 0u);
}

TEST_F(LogStreamTest, SortRejectsMismatchedBin) {
  uint32_t bin_a = Register({1, 0});
  Register({1, 1});
  // Record claims bin_a but names partition {1,1}: corruption.
  ASSERT_OK(ls_.slb().Append(1, Rec(1, {1, 1}, bin_a, 0)));
  ASSERT_OK(ls_.slb().Commit(1));
  EXPECT_TRUE(ls_.Drain(0).IsCorruption());
}

TEST_F(LogStreamTest, RebuildFirstLsnListFromBins) {
  uint32_t bin = Register({1, 0});
  CommitRecords(1, {1, 0}, bin, 30, 64);
  ASSERT_OK(ls_.Drain(0));
  ASSERT_FALSE(ls_.first_lsn_list().empty());
  uint64_t first = ls_.first_lsn_list().begin()->first;
  ls_.RebuildFirstLsnList();
  ASSERT_FALSE(ls_.first_lsn_list().empty());
  EXPECT_EQ(ls_.first_lsn_list().begin()->first, first);
}

}  // namespace
}  // namespace mmdb
