#ifndef MMDB_INDEX_TTREE_H_
#define MMDB_INDEX_TTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/node_format.h"
#include "storage/addr.h"
#include "storage/entity_store.h"
#include "util/status.h"

namespace mmdb {

/// T-Tree index (Lehman & Carey, VLDB '86), the paper's memory-resident
/// ordered index.
///
/// A T-Tree is a balanced binary tree whose nodes each hold a sorted
/// array of entries; it combines the space efficiency of AVL trees with
/// the cache behaviour of arrays. Nodes are entities stored inside the
/// index segment's partitions, so every node modification produces
/// ordinary per-partition log records: a single-entry insert or delete in
/// a node is logged as a small kNodeInsertEntry/kNodeRemoveEntry record,
/// while structural changes (node creation, rotations, splices) are
/// logged as full node images.
///
/// Entries are (key, value) pairs ordered lexicographically, so duplicate
/// keys are supported with multiset semantics; removal requires the exact
/// (key, value) pair.
///
/// The tree's root pointer and the indexed relation's segment live in a
/// metadata entity at the well-known address (segment, partition 0, slot
/// 0), so the entire index — data and structure — is recoverable purely
/// from partition checkpoint images and log records. Every stored address
/// is a 6-byte ref (node_format.h): values lie in the relation's segment,
/// child links in the index's own.
class TTree {
 public:
  static constexpr uint16_t kDefaultNodeCapacity = 10;

  /// An empty index in `segment` over values in the `relation` segment:
  /// Build over no entries, which writes only the meta.
  static Result<TTree> Create(EntityStore& store, SegmentId segment,
                              SegmentId relation,
                              uint16_t node_capacity = kDefaultNodeCapacity);

  /// Builds an index over `entries` in one pass into the empty `segment`.
  /// The entries are sorted by (key, value) and spread evenly over
  /// ⌈n / node_capacity⌉ nodes, which form a median-split tree: sibling
  /// subtrees differ by at most one node, so the tree is AVL-balanced.
  /// Nodes are written children first, so each is written once with its
  /// children and height. The meta is reserved first, so it lands at
  /// (segment, 0, 0), and its root is filled in once at the end. Every
  /// value must lie in the `relation` segment with a slot below 2^16
  /// (InvalidArgument).
  static Result<TTree> Build(EntityStore& store, SegmentId segment,
                             SegmentId relation,
                             std::span<const node::Entry> entries,
                             uint16_t node_capacity = kDefaultNodeCapacity);

  /// Attaches to an existing index (e.g. after recovery).
  static Result<TTree> Attach(EntityStore& store, SegmentId segment);

  SegmentId segment() const { return segment_; }
  /// The segment every indexed value lies in (from the meta).
  SegmentId relation() const { return relation_; }
  EntityAddr meta_addr() const { return meta_addr_; }

  /// Insert and Remove take values in relation() with a slot below 2^16
  /// (InvalidArgument otherwise).
  Status Insert(EntityStore& store, int64_t key, EntityAddr value);

  /// Removes the exact (key, value) entry. NotFound if absent.
  Status Remove(EntityStore& store, int64_t key, EntityAddr value);

  /// All values stored under `key`.
  Result<std::vector<EntityAddr>> Lookup(EntityStore& store,
                                         int64_t key) const;

  /// All entries with lo <= key <= hi, in key order.
  Result<std::vector<node::Entry>> Range(EntityStore& store, int64_t lo,
                                         int64_t hi) const;

  /// Total number of entries (walks the tree).
  Result<size_t> Size(EntityStore& store) const;

  /// Verifies BST ordering, AVL balance, height bookkeeping and node
  /// fill invariants. Used by property tests.
  Status CheckInvariants(EntityStore& store) const;

 private:
  TTree(SegmentId segment, SegmentId relation, EntityAddr meta_addr,
        uint16_t node_capacity)
      : segment_(segment), relation_(relation), meta_addr_(meta_addr),
        node_capacity_(node_capacity) {}

  node::Segments node_segments() const { return {relation_, segment_}; }

  Result<EntityAddr> root(EntityStore& store) const;
  Status SetRoot(EntityStore& store, EntityAddr root) const;

  Result<node::TTreeNode> ReadNode(EntityStore& store, EntityAddr a) const;
  Status WriteNode(EntityStore& store, EntityAddr a,
                   const node::TTreeNode& n) const;
  Result<int32_t> HeightOf(EntityStore& store, EntityAddr a) const;

  /// Allocates a new single-entry leaf node.
  Result<EntityAddr> NewLeaf(EntityStore& store, const node::Entry& e) const;

  /// Writes the median-split subtree over nodes [lo, hi) of a build that
  /// spreads `sorted` over `nodes` nodes, children first. Returns its
  /// root (null for an empty range).
  Result<EntityAddr> BuildSubtree(EntityStore& store,
                                  std::span<const node::Entry> sorted,
                                  size_t nodes, size_t lo, size_t hi) const;

  /// AVL rotations; return the new subtree root.
  Result<EntityAddr> RotateRight(EntityStore& store, EntityAddr x) const;
  Result<EntityAddr> RotateLeft(EntityStore& store, EntityAddr x) const;

  /// Rebalances bottom-up along `path` (root first). After any subtree
  /// root change, fixes the parent's child pointer (or the tree root).
  Status RebalancePath(EntityStore& store,
                       const std::vector<EntityAddr>& path) const;

  Status CheckSubtree(EntityStore& store, EntityAddr a, bool has_lo,
                      node::Entry lo, bool has_hi, node::Entry hi,
                      int32_t* height_out) const;

  SegmentId segment_;
  SegmentId relation_;
  EntityAddr meta_addr_;
  uint16_t node_capacity_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_TTREE_H_
