#ifndef MMDB_STORAGE_PARTITION_MANAGER_H_
#define MMDB_STORAGE_PARTITION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/addr.h"
#include "storage/partition.h"
#include "util/status.h"

namespace mmdb {

/// Owner of the volatile, memory-resident partitions.
///
/// This is the primary copy of the database: it is destroyed wholesale by
/// Database::Crash() and repopulated by the restart manager from
/// checkpoint images plus REDO log records. Segments are simply the
/// per-object families of partitions; the manager tracks the next
/// partition number for each segment.
class PartitionManager {
 public:
  explicit PartitionManager(uint32_t partition_size_bytes =
                                Partition::kDefaultSizeBytes)
      : partition_size_bytes_(partition_size_bytes) {}

  PartitionManager(const PartitionManager&) = delete;
  PartitionManager& operator=(const PartitionManager&) = delete;

  uint32_t partition_size_bytes() const { return partition_size_bytes_; }

  /// Allocates a fresh segment id (never reused within a run).
  SegmentId AllocateSegment() { return next_segment_++; }

  /// The number the next partition created in `segment` will get; lets
  /// the caller register the Stable Log Tail bin before creation.
  uint32_t PeekNextNumber(SegmentId segment) const {
    auto it = next_partition_number_.find(segment);
    return it == next_partition_number_.end() ? 0 : it->second;
  }

  /// Creates a new, empty partition in `segment` with the given Stable Log
  /// Tail bin index (assigned by the caller, who owns the bin table).
  Result<Partition*> CreatePartition(SegmentId segment, uint32_t bin_index);

  /// Installs a partition rebuilt from a checkpoint image (restart path).
  /// Replaces any existing resident copy.
  Status InstallRecovered(std::unique_ptr<Partition> p);

  /// Drops a partition from memory (segment deallocation).
  Status DropPartition(PartitionId id);

  /// Resident lookup; returns NotResident if the partition is not in
  /// memory (e.g. not yet recovered after a crash).
  Result<Partition*> Get(PartitionId id) const;

  /// All resident partitions of a segment, in partition-number order.
  /// Backed by an eagerly maintained per-segment index — the insert
  /// path's first-fit scan calls this once per tuple, and rebuilding
  /// (walk every resident partition, sort) per call dominated host time
  /// at million-row scale.
  const std::vector<Partition*>& SegmentPartitions(SegmentId segment) const;

  /// All resident partitions (checkpoint sweeps, invariant checks).
  std::vector<Partition*> AllPartitions() const;

  size_t resident_count() const { return partitions_.size(); }

  /// Simulated crash: wipe every volatile partition.
  void Clear() {
    partitions_.clear();
    by_segment_.clear();
  }

  /// Restores allocation counters after restart so future segment and
  /// partition numbers do not collide with recovered ones.
  void BumpCounters(SegmentId min_next_segment, PartitionId seen);

 private:
  /// Places `p` into its segment's number-ordered index (replacing any
  /// previous entry with the same partition number).
  void IndexPartition(Partition* p);

  uint32_t partition_size_bytes_;
  SegmentId next_segment_ = 1;  // segment 0 reserved for "null"
  std::unordered_map<SegmentId, uint32_t> next_partition_number_;
  std::unordered_map<PartitionId, std::unique_ptr<Partition>> partitions_;
  /// Per-segment view of partitions_, kept sorted by partition number.
  std::unordered_map<SegmentId, std::vector<Partition*>> by_segment_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_PARTITION_MANAGER_H_
