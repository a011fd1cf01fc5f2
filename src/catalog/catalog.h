#ifndef MMDB_CATALOG_CATALOG_H_
#define MMDB_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
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
  /// Applies a deserialized chunk row (recovery rebuild). Corruption when
  /// the row is damaged, out of range, or written by a map with another
  /// slot count or pages per slot.
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
///
/// The catalog also owns its own segment's partition descriptors. Those
/// are never catalog rows (that would be self-referential): they live
/// here and in the root block (RootBlock / LoadRoot), which the Database
/// keeps twice in stable memory (paper §2.5: restart reads "the catalog
/// partition list from its well-known stable location").
class Catalog {
 public:
  Catalog() = default;

  // --- the catalog segment and its root block ----------------------------
  SegmentId catalog_segment() const { return catalog_segment_; }
  void set_catalog_segment(SegmentId segment) { catalog_segment_ = segment; }
  /// Serializes the root block: magic, the catalog segment,
  /// `partition_size`, every catalog partition's descriptor (id,
  /// checkpoint page and slot) and a trailing CRC over all of it.
  std::vector<uint8_t> RootBlock(uint32_t partition_size) const;
  /// Loads a block written by RootBlock: sets the catalog segment and
  /// registers its partitions' descriptors as non-resident, to be made
  /// resident by their restart-phase-1 rebuild. A bad checksum, bad
  /// magic, a truncated block, an entry outside the catalog segment or a
  /// block written with another partition size is Corruption and changes
  /// nothing.
  Status LoadRoot(std::span<const uint8_t> block, uint32_t partition_size);

  // --- relations ----------------------------------------------------------
  Result<RelationInfo*> CreateRelation(std::string name, Schema schema,
                                       SegmentId segment);
  Result<RelationInfo*> GetRelation(const std::string& name);
  Result<RelationInfo*> GetRelationById(uint32_t id);
  Result<const RelationInfo*> GetRelation(const std::string& name) const;
  Status DropRelation(const std::string& name);

  // --- indexes ------------------------------------------------------------
  Result<IndexInfo*> CreateIndex(std::string name, uint32_t relation_id,
                                 uint32_t column, IndexType type,
                                 SegmentId segment);
  Result<IndexInfo*> GetIndex(const std::string& name);
  Status DropIndex(const std::string& name);

  // --- partition descriptors ----------------------------------------------
  /// The descriptor list of whichever object owns `segment`: a relation,
  /// an index, or the catalog itself.
  Result<std::vector<PartitionDescriptor>*> PartitionsOf(SegmentId segment);
  /// Finds the descriptor for `pid`, catalog partitions included.
  Result<PartitionDescriptor*> FindDescriptor(PartitionId pid);
  /// Relation owning `segment` directly or via one of its indexes.
  Result<RelationInfo*> RelationOfSegment(SegmentId segment);
  /// Index owning `segment`; NotFound for relation segments.
  Result<IndexInfo*> IndexOfSegment(SegmentId segment);
  /// Every relation's and index's descriptors (the catalog's own are not
  /// data): relations in name order, each one's descriptors followed by
  /// each of its indexes' in index_names order.
  std::vector<const PartitionDescriptor*> DataPartitions() const;
  /// One relation's descriptors, then its indexes' in index_names order.
  Result<std::vector<const PartitionDescriptor*>> RelationPartitions(
      const std::string& name) const;

  // --- row serialization (shared by Database persistence + recovery) -------
  static std::vector<uint8_t> SerializeRelationRow(const RelationInfo& r);
  static std::vector<uint8_t> SerializeIndexRow(const IndexInfo& i);
  /// The catalog row of a relation's or index's descriptor, naming its
  /// owner. NotFound when no relation or index owns the segment.
  Result<std::vector<uint8_t>> PartitionRow(
      const PartitionDescriptor& d) const;

  /// Rebuilds the relations, indexes and their descriptors (and
  /// `*disk_map`, which must be sized like the map that wrote the rows)
  /// from all entities found in the catalog segment; `rows` is (entity
  /// address, bytes) pairs. The catalog segment and its descriptors are
  /// left alone. Corruption for a damaged row, a descriptor row naming an
  /// unknown owner, or a relation row naming an index that no index row
  /// defines.
  Status Rebuild(
      const std::vector<std::pair<EntityAddr, std::vector<uint8_t>>>& rows,
      DiskAllocationMap* disk_map);

  uint32_t next_relation_id() const { return next_relation_id_; }
  SegmentId max_segment_seen() const { return max_segment_seen_; }

 private:
  /// The relation or index owning a segment (both null: neither does).
  struct Owner {
    const RelationInfo* relation = nullptr;
    const IndexInfo* index = nullptr;
  };
  Owner OwnerOf(SegmentId segment) const;
  /// Appends `r`'s descriptors, then its indexes', to `out`.
  void AppendRelationPartitions(
      const RelationInfo& r,
      std::vector<const PartitionDescriptor*>* out) const;

  void NoteSegment(SegmentId s) {
    if (s > max_segment_seen_) max_segment_seen_ = s;
  }

  SegmentId catalog_segment_ = 0;
  std::vector<PartitionDescriptor> catalog_partitions_;
  std::map<std::string, RelationInfo> relations_;
  std::unordered_map<uint32_t, std::string> relation_names_;
  std::map<std::string, IndexInfo> indexes_;
  uint32_t next_relation_id_ = 1;
  SegmentId max_segment_seen_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_CATALOG_CATALOG_H_
