#ifndef MMDB_INDEX_LINEAR_HASH_H_
#define MMDB_INDEX_LINEAR_HASH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "index/node_format.h"
#include "storage/addr.h"
#include "storage/entity_store.h"
#include "util/status.h"

namespace mmdb {

/// Modified Linear Hashing index (Lehman & Carey, VLDB '86), the paper's
/// memory-resident hash index.
///
/// Buckets are chains of fixed-capacity hash nodes; nodes are entities in
/// the index segment's partitions, so node modifications produce ordinary
/// per-partition log records (small entry ops for insert/remove, full
/// images for chain-pointer changes and splits). The bucket heads live in
/// fixed-size directory segments of kSegmentBuckets heads each, addressed
/// from a fixed-size meta entity at the well-known address (segment,
/// partition 0, slot 0) that holds the split state (level, next pointer),
/// the indexed relation's segment and the segment table. Every stored
/// address is a 6-byte ref (node_format.h): values lie in the relation's
/// segment, links in the index's own. A lookup reads the meta, one
/// directory segment and the bucket's chain as far as the key (below); a
/// split rewrites the meta and at most two segments. Every directory
/// entity keeps its size for life, so growth never needs room next to the
/// meta — the whole index is recoverable from checkpoint images plus log
/// records.
///
/// Split policy: classic linear hashing's split pointer, advanced
/// whenever an insert lengthens a chain beyond `max_chain_nodes`. This is
/// the "performance monitor" flavour of Modified Linear Hashing: splits
/// are triggered by observed chain growth rather than a global load
/// factor, so the split trigger needs no per-insert metadata updates.
///
/// Chain order: each bucket chain keeps its entries in ascending (key,
/// value) order, within a node and from node to node, as T-tree nodes do.
/// A lookup stops after the first node whose last key lies past the probe
/// key, and a remove after the first node whose last entry does not
/// precede the pair. An insert goes into that same first node (the tail if
/// there is none). A full node takes the entry, keeps the lower half and
/// moves the upper half into a new node linked after it. The exception is
/// an entry past the last entry of a full tail node: it opens a new tail
/// alone, so ascending keys pack nodes full. A chain walk that reads more
/// than 2^20 nodes takes the chain for a loop and returns Corruption.
///
/// Duplicate keys are supported; removal requires the exact (key, value)
/// pair. The directory holds at most kMaxBuckets buckets (the segment
/// table's capacity); beyond that, inserts keep extending overflow chains
/// (documented limit).
class LinearHash {
 public:
  static constexpr uint16_t kDefaultNodeCapacity = 8;
  static constexpr uint32_t kDefaultMaxChainNodes = 8;
  /// Bucket heads per directory segment.
  static constexpr uint32_t kSegmentBuckets = 256;
  /// Directory segments the meta's segment table can address.
  static constexpr uint32_t kMaxSegments = 256;
  static constexpr uint32_t kMaxBuckets = kSegmentBuckets * kMaxSegments;

  /// An empty index in `segment` over values in the `relation` segment:
  /// Build over no entries.
  static Result<LinearHash> Create(EntityStore& store, SegmentId segment,
                                   SegmentId relation,
                                   uint32_t initial_buckets = 8,
                                   uint16_t node_capacity =
                                       kDefaultNodeCapacity,
                                   uint32_t max_chain_nodes =
                                       kDefaultMaxChainNodes);

  /// Builds an index over `entries` in one pass into the empty `segment`.
  /// The directory is the smallest full round, initial_buckets × 2^level
  /// buckets (at most kMaxBuckets), that holds node_capacity ×
  /// max_chain_nodes entries per bucket. Each chain is sorted by (key,
  /// value) and packed full, and every node and directory segment is
  /// written once. The meta is reserved first, so it lands at (segment,
  /// 0, 0), and filled in at the end. Every value must lie in the
  /// `relation` segment with a slot below 2^16 (InvalidArgument).
  static Result<LinearHash> Build(EntityStore& store, SegmentId segment,
                                  SegmentId relation,
                                  std::span<const node::Entry> entries,
                                  uint32_t initial_buckets = 8,
                                  uint16_t node_capacity =
                                      kDefaultNodeCapacity,
                                  uint32_t max_chain_nodes =
                                      kDefaultMaxChainNodes);

  static Result<LinearHash> Attach(EntityStore& store, SegmentId segment);

  SegmentId segment() const { return segment_; }
  /// The segment every indexed value lies in (from the meta).
  SegmentId relation() const { return relation_; }
  EntityAddr meta_addr() const { return meta_addr_; }

  /// Insert and Remove take values in relation() with a slot below 2^16
  /// (InvalidArgument otherwise).
  Status Insert(EntityStore& store, int64_t key, EntityAddr value);
  Status Remove(EntityStore& store, int64_t key, EntityAddr value);
  /// All values stored under `key`, in ascending order.
  Result<std::vector<EntityAddr>> Lookup(EntityStore& store,
                                         int64_t key) const;

  /// Total entries (walks all chains).
  Result<size_t> Size(EntityStore& store) const;

  /// Verifies: the segment table matches the split state; every entry
  /// hashes to the bucket holding it; every chain is in (key, value) order;
  /// chain structure well formed; node fill within capacity.
  Status CheckInvariants(EntityStore& store) const;

  /// Current bucket count (reads metadata).
  Result<uint32_t> BucketCount(EntityStore& store) const;

 private:
  struct Meta {
    uint32_t level = 0;
    uint32_t next = 0;  // split pointer
    uint32_t base_buckets = 8;  // N0
    uint16_t node_capacity = kDefaultNodeCapacity;
    uint32_t max_chain_nodes = kDefaultMaxChainNodes;
    SegmentId relation = 0;
    /// kMaxSegments link refs, null past the last segment: a lookup
    /// needs one of them, so they are not parsed.
    std::vector<uint8_t> table;

    uint32_t BucketCount() const;
    uint32_t BucketOf(uint64_t hash) const;
    /// Directory segment `index`, in the index's `segment`.
    EntityAddr Segment(uint32_t index, SegmentId segment) const;
    void SetSegment(uint32_t index, const EntityAddr& addr);
    std::vector<uint8_t> Serialize() const;
    static Result<Meta> Parse(std::span<const uint8_t> bytes);
  };

  /// One directory segment: the serialized heads of kSegmentBuckets
  /// consecutive buckets.
  struct DirSegment {
    EntityAddr addr;
    std::vector<uint8_t> bytes;

    static DirSegment Empty();
    EntityAddr Head(uint32_t bucket) const;
    void SetHead(uint32_t bucket, const EntityAddr& head);
  };

  LinearHash(SegmentId segment, SegmentId relation, EntityAddr meta_addr)
      : segment_(segment), relation_(relation), meta_addr_(meta_addr) {}

  node::Segments node_segments() const { return {relation_, segment_}; }

  /// Where a key lives: the meta, the key's bucket and the directory
  /// segment holding that bucket's head.
  struct Probe {
    Meta meta;
    uint32_t bucket = 0;
    DirSegment seg;
  };

  Result<Meta> ReadMeta(EntityStore& store) const;
  /// The directory segment holding `bucket`.
  Result<DirSegment> ReadSegment(EntityStore& store, const Meta& meta,
                                 uint32_t bucket) const;
  Result<Probe> ProbeKey(EntityStore& store, int64_t key) const;

  /// Packs `entries`, in chain order, into a fresh chain, tail first so
  /// every node is written once with its chain pointer. Returns the head
  /// (null if `entries` is empty).
  Result<EntityAddr> BuildChain(EntityStore& store,
                                std::span<const node::Entry> entries,
                                uint16_t node_capacity) const;

  /// Splits the bucket at the split pointer.
  Status SplitOne(EntityStore& store, Meta* meta);

  /// Calls `visit(bucket, node)` for every node of every chain, in
  /// bucket order.
  Status VisitNodes(
      EntityStore& store, const Meta& meta,
      const std::function<Status(uint32_t, const node::HashNode&)>& visit)
      const;

  static uint64_t HashKey(int64_t key);

  SegmentId segment_;
  SegmentId relation_;
  EntityAddr meta_addr_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_LINEAR_HASH_H_
