#ifndef MMDB_LOG_SLT_H_
#define MMDB_LOG_SLT_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sim/stable_memory.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Sentinel for "no log sequence number".
inline constexpr uint64_t kNoLsn = ~0ull;

/// Per-partition bin in the Stable Log Tail (paper §2.3.3).
///
/// The info block carries exactly the paper's four entries — Partition
/// Address, Update Count, LSN of First Log Page, Log Page Directory —
/// plus the chain bookkeeping (last page, last directory-anchor page)
/// that the real system keeps in page headers.
///
/// The directory holds the LSNs of the pages written since the last
/// *anchor*. When the directory fills (N entries), the next page written
/// embeds the directory (a directory is "stored in every Nth log page",
/// §2.3.3/Fig. 4) and becomes the new anchor; recovery walks anchors
/// backward to reconstruct the full in-order page list with only
/// floor((pages-1)/N) extra reads, then streams pages forward.
struct PartitionBin {
  bool in_use = false;
  PartitionId partition;

  /// Updates since the last checkpoint; checkpoint trigger monitor.
  uint64_t update_count = 0;
  /// Lifetime updates (statistics only).
  uint64_t lifetime_updates = 0;

  uint64_t first_page_lsn = kNoLsn;
  uint64_t last_page_lsn = kNoLsn;
  uint64_t last_anchor_lsn = kNoLsn;
  uint32_t pages_since_checkpoint = 0;

  /// LSNs of pages written since the last anchor (<= directory capacity),
  /// oldest first.
  std::vector<uint64_t> directory;

  /// The active log page: serialized records accumulating in stable
  /// memory until the page fills and is written to the log disk.
  std::vector<uint8_t> active_page;
  uint32_t active_records = 0;

  bool checkpoint_requested = false;

  bool has_disk_pages() const { return first_page_lsn != kNoLsn; }
};

/// The Stable Log Tail (paper §2.2, §2.3.3): stable, reliable memory
/// where the recovery CPU groups committed REDO records into per-
/// partition bins before they are written to the log disk.
///
/// Following the paper's simplicity choice, *every* partition has a small
/// permanent info-block entry (~50 bytes); only active partitions hold
/// the much larger log page buffer. Stable-memory consumption is
/// accounted against the shared meter.
class StableLogTail {
 public:
  struct Config {
    /// Log Page Directory size N (entries per info-block directory and
    /// per embedded directory). The paper chooses N equal to the median
    /// number of log pages of an active partition.
    uint32_t directory_entries = 8;
    /// Log page size; the active-page buffer is this big.
    uint32_t page_bytes = 8 * 1024;
  };

  /// Modeled info-block size (paper: "on the order of 50 bytes").
  static constexpr uint32_t kInfoBlockBytes = 50;

  StableLogTail(Config config, sim::StableMemoryMeter* meter)
      : config_(config), meter_(meter) {}

  StableLogTail(const StableLogTail&) = delete;
  StableLogTail& operator=(const StableLogTail&) = delete;

  const Config& config() const { return config_; }

  /// Registers the SLT's metric series (`slt.*`, each name followed by
  /// `suffix`): bins-in-use and active-page-buffer gauges, plus a counter
  /// of bin resets (one per completed checkpoint of an active partition).
  void AttachMetrics(obs::MetricsRegistry* reg, const std::string& suffix = "");

  /// Arms fault barriers at the SLT's stable-mutation entry points and a
  /// bit-flip hook on the catalog-root copy (device "slt.catalog_root").
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Assigns a permanent bin to a newly allocated partition.
  Result<uint32_t> RegisterPartition(PartitionId pid);

  /// Releases a bin when its partition is deallocated. Refused while an
  /// injected crash is pending: the bin outlives the crash, and restart
  /// releases every bin no catalog row describes.
  Status ReleaseBin(uint32_t bin_index);

  Result<PartitionBin*> bin(uint32_t bin_index);
  Result<const PartitionBin*> bin(uint32_t bin_index) const;

  /// Bin lookup by partition id (restart path; one lookup per recovered
  /// partition, so this is indexed rather than a scan over all bins).
  Result<uint32_t> FindBin(PartitionId pid) const;

  size_t bin_count() const { return bins_.size(); }

  /// Ensures the bin's active page buffer is allocated (stable-memory
  /// accounting), then appends serialized record bytes.
  Status AppendToActivePage(uint32_t bin_index,
                            std::span<const uint8_t> record_bytes);

  /// Clears a bin's chain after its partition was checkpointed: the log
  /// information is no longer needed for memory recovery (§2.4). The
  /// active page buffer is released back to the meter.
  Status ResetAfterCheckpoint(uint32_t bin_index);

  /// Tells the SLT that a log-disk flush drained bytes from `b`'s active
  /// page outside this class (LogDiskWriter::FlushBinPage mutates the bin
  /// directly). A flush that took every buffered byte releases the bin's
  /// page buffer back to the meter.
  void NoteBinDrained(const PartitionBin& b);

  /// Second stable copy of the catalog root block (paper §2.5: "it is
  /// stored twice, in the Stable Log Buffer and in the Stable Log Tail").
  void SetCatalogRoot(std::vector<uint8_t> root) {
    catalog_root_ = std::move(root);
    if (fault_ != nullptr && fault_->armed()) {
      fault::SiteEvent ev;
      ev.site = fault::Site::kStableMemAccess;
      ev.device = "slt.catalog_root";
      ev.data = &catalog_root_;
      Status st = fault_->OnSite(&ev);
      (void)st;  // root writes complete; corruption surfaces at restart
    }
  }
  const std::vector<uint8_t>& catalog_root() const { return catalog_root_; }

  /// Bins with outstanding log information (active partitions).
  std::vector<uint32_t> ActiveBins() const;

 private:
  static bool BinActive(const PartitionBin& b) {
    return !b.active_page.empty() || b.active_records > 0;
  }

  void UpdateGauges();

  Config config_;
  sim::StableMemoryMeter* meter_;
  fault::FaultInjector* fault_ = nullptr;
  std::vector<PartitionBin> bins_;
  std::vector<uint32_t> free_bins_;
  /// Gauge values maintained incrementally at bin state transitions —
  /// recomputing them by walking every bin on each log append dominated
  /// host time at million-partition scale.
  uint64_t bins_in_use_count_ = 0;
  uint64_t active_bin_count_ = 0;
  /// Partition-id → bin index, maintained by Register/ReleaseBin.
  std::unordered_map<PartitionId, uint32_t> bin_by_pid_;
  std::vector<uint8_t> catalog_root_;

  // Optional registry series (null until AttachMetrics).
  obs::Gauge* m_bins_in_use_ = nullptr;
  obs::Gauge* m_active_pages_ = nullptr;
  obs::Counter* m_bin_resets_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_LOG_SLT_H_
