#ifndef MMDB_CATALOG_CATALOG_H_
#define MMDB_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Sentinel: partition has never been checkpointed.
inline constexpr uint64_t kNoCheckpointPage = ~0ull;

enum class IndexType : uint8_t {
  kTTree = 0,
  kLinearHash = 1,
};

/// Catalog row describing one partition of a relation or index segment:
/// its current checkpoint-disk location and residency (paper §2.5: "A
/// relation catalog entry contains a list of partition descriptors...
/// Each descriptor gives the disk location of the partition along with
/// its current status (memory-resident or disk-resident)").
struct PartitionDescriptor {
  PartitionId id;
  /// First disk page of the checkpoint track on the checkpoint disk, or
  /// kNoCheckpointPage if never checkpointed.
  uint64_t checkpoint_page = kNoCheckpointPage;
  /// Checkpoint-disk allocation-map slot backing checkpoint_page.
  uint64_t checkpoint_slot = ~0ull;
  /// Memory-resident? (false between a crash and this partition's
  /// recovery).
  bool resident = true;

  /// Where this descriptor's own catalog row lives (volatile bookkeeping,
  /// not serialized).
  EntityAddr row_addr;

  bool has_checkpoint() const { return checkpoint_page != kNoCheckpointPage; }
};

struct IndexInfo {
  std::string name;
  uint32_t relation_id = 0;
  uint32_t column = 0;  // indexed column (kInt64 columns only)
  IndexType type = IndexType::kTTree;
  SegmentId segment = 0;
  std::vector<PartitionDescriptor> partitions;

  EntityAddr row_addr;  // volatile
};

struct RelationInfo {
  uint32_t id = 0;
  std::string name;
  Schema schema;
  SegmentId segment = 0;
  std::vector<PartitionDescriptor> partitions;
  std::vector<std::string> index_names;

  EntityAddr row_addr;  // volatile
};

/// Serialized catalog row kinds (one entity per row in the catalog
/// segment's partitions, so every catalog change is a normal record-level
/// partition update that flows through the ordinary logging path).
enum class CatalogRowTag : uint8_t {
  kRelation = 1,
  kIndex = 2,
  kPartition = 3,  // descriptor row, owned by a relation or index
  kDiskMapChunk = 4,
};

/// Allocation map of the checkpoint disks' track-sized slots, organized as
/// the paper's *pseudo-circular queue*: new checkpoint images always go to
/// the first free slot at or after the head, the head advances past
/// whatever it allocates, and long-lived images are simply skipped in
/// place ("partitions that are rarely checkpointed don't move and are
/// skipped over as the head of the queue passes by"). New copies never
/// overwrite old ones; the old slot is freed only after the new image is
/// atomically installed.
class DiskAllocationMap {
 public:
  static constexpr uint64_t kFree = ~0ull;
  /// Slots per serialized chunk row.
  static constexpr uint32_t kChunkSlots = 256;

  DiskAllocationMap() = default;
  DiskAllocationMap(uint64_t num_slots, uint32_t pages_per_slot);

  uint64_t num_slots() const { return slots_.size(); }
  uint32_t pages_per_slot() const { return pages_per_slot_; }

  /// Allocates a slot for `owner` (packed PartitionId). Returns the slot
  /// number or Full when the disk has no free slot.
  Result<uint64_t> Allocate(uint64_t owner);

  Status Free(uint64_t slot);

  /// Re-marks a previously freed slot as owned (rollback of an aborted
  /// checkpoint transaction's in-memory changes).
  Status Reclaim(uint64_t slot, uint64_t owner);

  /// First disk page number of `slot`.
  uint64_t SlotFirstPage(uint64_t slot) const {
    return slot * pages_per_slot_;
  }

  uint64_t owner(uint64_t slot) const { return slots_[slot]; }
  uint64_t free_count() const;
  uint64_t head() const { return head_; }

  /// Which chunk row a slot belongs to (its row must be rewritten after a
  /// mutation).
  static uint32_t ChunkOf(uint64_t slot) {
    return static_cast<uint32_t>(slot / kChunkSlots);
  }
  uint32_t num_chunks() const {
    return static_cast<uint32_t>((slots_.size() + kChunkSlots - 1) /
                                 kChunkSlots);
  }

  /// Serializes chunk `chunk` as a catalog row payload.
  std::vector<uint8_t> SerializeChunk(uint32_t chunk) const;
  /// Applies a deserialized chunk row (recovery rebuild).
  Status ApplyChunk(std::span<const uint8_t> payload);

  /// Volatile bookkeeping: catalog row address per chunk.
  std::vector<EntityAddr> chunk_row_addrs;

 private:
  std::vector<uint64_t> slots_;  // owner packed id, or kFree
  uint32_t pages_per_slot_ = 6;
  uint64_t head_ = 0;
};

/// In-memory system catalog, rebuilt at restart from the catalog
/// segment's entities. Pure bookkeeping: persistence of rows is driven by
/// the Database, which writes serialized rows through the ordinary
/// logged-entity path.
class Catalog {
 public:
  Catalog() = default;

  // --- relations ----------------------------------------------------------
  Result<RelationInfo*> CreateRelation(std::string name, Schema schema,
                                       SegmentId segment);
  Result<RelationInfo*> GetRelation(const std::string& name);
  Result<RelationInfo*> GetRelationById(uint32_t id);
  Result<const RelationInfo*> GetRelation(const std::string& name) const;
  Status DropRelation(const std::string& name);
  std::vector<const RelationInfo*> AllRelations() const;

  // --- indexes ------------------------------------------------------------
  Result<IndexInfo*> CreateIndex(std::string name, uint32_t relation_id,
                                 uint32_t column, IndexType type,
                                 SegmentId segment);
  Result<IndexInfo*> GetIndex(const std::string& name);
  Status DropIndex(const std::string& name);
  std::vector<IndexInfo*> RelationIndexes(uint32_t relation_id);

  // --- partition descriptors ----------------------------------------------
  /// Finds the descriptor for `pid` in whichever relation or index owns
  /// that segment.
  Result<PartitionDescriptor*> FindDescriptor(PartitionId pid);
  /// The object (relation or index) owning `segment`, as an opaque name
  /// for diagnostics.
  std::string SegmentOwnerName(SegmentId segment) const;
  /// Relation owning `segment` directly or via one of its indexes.
  Result<RelationInfo*> RelationOfSegment(SegmentId segment);
  /// Index owning `segment`; NotFound for relation segments.
  Result<IndexInfo*> IndexOfSegment(SegmentId segment);

  // --- row serialization (shared by Database persistence + recovery) -------
  static std::vector<uint8_t> SerializeRelationRow(const RelationInfo& r);
  static std::vector<uint8_t> SerializeIndexRow(const IndexInfo& i);
  static std::vector<uint8_t> SerializePartitionRow(
      uint32_t owner_relation_id, bool owner_is_index,
      const std::string& owner_name, const PartitionDescriptor& d);
  static std::vector<uint8_t> SerializeDiskMapRow(const DiskAllocationMap& m,
                                                  uint32_t chunk);

  /// Rebuilds the catalog (and `*disk_map`) from all entities found in the
  /// catalog segment; `rows` is (entity address, bytes) pairs.
  Status Rebuild(
      const std::vector<std::pair<EntityAddr, std::vector<uint8_t>>>& rows,
      DiskAllocationMap* disk_map);

  uint32_t next_relation_id() const { return next_relation_id_; }
  SegmentId max_segment_seen() const { return max_segment_seen_; }

 private:
  void NoteSegment(SegmentId s) {
    if (s > max_segment_seen_) max_segment_seen_ = s;
  }

  std::map<std::string, RelationInfo> relations_;
  std::unordered_map<uint32_t, std::string> relation_names_;
  std::map<std::string, IndexInfo> indexes_;
  uint32_t next_relation_id_ = 1;
  SegmentId max_segment_seen_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_CATALOG_CATALOG_H_
