#ifndef MMDB_STORAGE_PARTITION_H_
#define MMDB_STORAGE_PARTITION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// A fixed-size, self-contained unit of storage (paper §2).
///
/// Database entities (tuples or index components) are stored in partitions
/// and never cross partition boundaries. Partitions are the unit of
/// transfer to disk in checkpoint operations and the unit of post-crash
/// recovery, so a partition must be fully reconstructible from (a) its raw
/// byte image and (b) a sequence of REDO log records.
///
/// Layout (all state lives inside the byte buffer, so the raw buffer *is*
/// the checkpoint image):
///
///   [Header][slot directory, grows up][free][string-space heap, grows down]
///
/// Each slot directory entry holds (heap offset, length) of one entity.
/// Slot numbers are the stable within-partition coordinate used by
/// EntityAddr and by log records; the heap is managed as a heap (paper
/// §2.3.2) and is compacted transparently when fragmented, which never
/// changes slot numbers.
class Partition {
 public:
  static constexpr uint32_t kDefaultSizeBytes = 48 * 1024;

  /// Sentinel slot-directory offset marking an unused slot.
  static constexpr uint32_t kFreeSlot = 0xFFFFFFFFu;

  /// Creates an empty partition.
  Partition(PartitionId id, uint32_t size_bytes, uint32_t bin_index);

  /// Reconstructs a partition from a checkpoint image (its raw bytes).
  /// Fails with Corruption if the image is malformed.
  static Result<std::unique_ptr<Partition>> FromImage(
      std::vector<uint8_t> image);

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  PartitionId id() const;
  uint32_t size_bytes() const { return static_cast<uint32_t>(buf_.size()); }

  /// Index into the Stable Log Tail's partition-bin table (paper §2.3.2:
  /// "Partitions maintain their partition bin index entries as part of
  /// their control information").
  uint32_t bin_index() const;

  /// Inserts an entity, choosing a free slot. Returns the slot number, or
  /// kFull when free space plus compactable garbage does not suffice.
  Result<uint32_t> Insert(std::span<const uint8_t> data);

  /// Inserts an entity at a specific slot (REDO apply and UNDO of delete).
  /// The slot must currently be free (or beyond the current directory).
  Status InsertAt(uint32_t slot, std::span<const uint8_t> data);

  /// Replaces the entity at `slot` with new bytes (may change length).
  Status Update(uint32_t slot, std::span<const uint8_t> data);

  /// Whether Update(slot, ...) of `size` bytes would succeed: in place,
  /// or in the free space and garbage beside the slot's own bytes.
  bool UpdateFits(uint32_t slot, size_t size) const;

  /// Frees `slot`. The heap space becomes garbage, reclaimed by
  /// compaction.
  Status Delete(uint32_t slot);

  /// Reads the entity at `slot`. The span is invalidated by any mutation.
  Result<std::span<const uint8_t>> Read(uint32_t slot) const;

  bool SlotUsed(uint32_t slot) const;

  /// Number of slot directory entries (used + free).
  uint32_t slot_count() const;
  /// Number of live entities.
  uint32_t live_count() const;
  /// Bytes available without compaction.
  uint32_t free_bytes() const;
  /// Dead heap bytes reclaimable by compaction.
  uint32_t garbage_bytes() const;

  /// The raw image: exactly what a checkpoint writes to disk.
  const std::vector<uint8_t>& image() const { return buf_; }

  /// Monotonic count of updates applied since creation or last reset;
  /// mirrors the Stable Log Tail's per-bin update count for sanity checks.
  uint64_t update_count() const { return update_count_; }

  /// Access-heat counter driving the heat-ordered background sweep: the
  /// database bumps it on every resident-partition reference, and
  /// Crash() harvests the counts so the post-crash sweep restores the
  /// Zipf-hot partitions first. Volatile bookkeeping only — never part
  /// of the checkpoint image, so recovered partitions restart cold.
  void Touch() { ++heat_; }
  uint64_t heat() const { return heat_; }

 private:
  struct Header;
  Header* header();
  const Header* header() const;
  uint32_t* slot_entry(uint32_t slot);
  const uint32_t* slot_entry(uint32_t slot) const;

  explicit Partition(std::vector<uint8_t> image);

  /// Compacts the heap in place; slot numbers are preserved.
  void Compact();

  std::vector<uint8_t> buf_;
  uint64_t update_count_ = 0;
  uint64_t heat_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_PARTITION_H_
