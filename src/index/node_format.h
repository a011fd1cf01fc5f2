#ifndef MMDB_INDEX_NODE_FORMAT_H_
#define MMDB_INDEX_NODE_FORMAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/addr.h"
#include "util/status.h"

namespace mmdb::node {

/// Serialized index-component ("node") format, shared by the T-Tree, the
/// Modified Linear Hash table, and the recovery REDO-apply path.
///
/// Index components are ordinary entities inside partitions; the paper's
/// index log records are *partition-specific operations on index
/// components* (§2.5.1), so the REDO machinery must understand just enough
/// node structure to apply the two small entry-level operations
/// (insert-entry / remove-entry). Structural changes (rotations, splits)
/// are logged as full node images and need no node knowledge to apply.
///
/// No stored address repeats a segment its reader already knows: an
/// entry's value lies in the indexed relation's segment and a link in the
/// index's own, so each is a 6-byte ref, u32 partition number | u16 slot.
/// A link ref of (0, 0) is null: (index segment, 0, 0) is the index's
/// meta, which no link names.
///
/// Layout (little-endian):
///   u8 kind; u16 count; u16 capacity;                         5 bytes
///   kind-specific header:
///     kTTree: left ref (6) | right ref (6) | u8 height        13 bytes
///     kHashBucket: next-overflow ref (6)                       6 bytes
///     kMeta: (none; payload is index-specific opaque bytes)
///   entries: count * (i64 key | ref (6))                    14 bytes each
///
/// Nodes are padded to their capacity, so a capacity-8 hash node is
/// 5 + 6 + 8 * 14 = 123 bytes and a capacity-10 T-tree node 5 + 13 +
/// 10 * 14 = 158 bytes.
enum class NodeKind : uint8_t {
  kTTree = 1,
  kHashBucket = 2,
  kMeta = 3,
};

/// Index entries order by (key, value), in T-tree nodes and along hash
/// bucket chains alike. Every value of one index lies in one segment, so
/// the order is (key, partition, slot).
struct Entry {
  int64_t key = 0;
  EntityAddr value;

  friend bool operator==(const Entry&, const Entry&) = default;
  friend auto operator<=>(const Entry&, const Entry&) = default;
};

/// The segments a node's refs leave out.
struct Segments {
  SegmentId relation = 0;  // every entry's value
  SegmentId index = 0;     // every link
};

inline constexpr size_t kRefSize = 4 + 2;
inline constexpr uint32_t kMaxSlot = 0xFFFF;
inline constexpr size_t kEntrySize = 8 + kRefSize;
inline constexpr size_t kCommonHeaderSize = 1 + 2 + 2;
inline constexpr size_t kTTreeHeaderSize =
    kCommonHeaderSize + 2 * kRefSize + 1;
inline constexpr size_t kHashHeaderSize = kCommonHeaderSize + kRefSize;

/// InvalidArgument unless `value` can be an entry of an index over the
/// `relation` segment: it lies there and its slot fits in 16 bits.
Status CheckValue(const EntityAddr& value, SegmentId relation);
/// Appends `a`'s ref (its segment is left out). `a.slot` must be at most
/// kMaxSlot.
void PutRef(std::vector<uint8_t>* out, const EntityAddr& a);
/// Reads the link ref at `pos` into `segment` ((0, 0) reads as null).
/// False when the ref runs past the end of `in`.
bool GetLink(std::span<const uint8_t> in, size_t pos, SegmentId segment,
             EntityAddr* a);

/// Parsed view of a T-Tree node.
struct TTreeNode {
  EntityAddr left;
  EntityAddr right;
  /// Stored in one byte: a tree that fits in memory is far lower.
  int32_t height = 1;
  uint16_t capacity = 0;
  std::vector<Entry> entries;  // sorted by (key, value)

  std::vector<uint8_t> Serialize() const;
  static Result<TTreeNode> Parse(std::span<const uint8_t> bytes,
                                 Segments segments);
};

/// Parsed view of a hash bucket node.
struct HashNode {
  EntityAddr next;  // overflow chain
  uint16_t capacity = 0;
  std::vector<Entry> entries;  // sorted by (key, value)

  std::vector<uint8_t> Serialize() const;
  static Result<HashNode> Parse(std::span<const uint8_t> bytes,
                                Segments segments);
};

/// Builds a kMeta node wrapping opaque index metadata.
std::vector<uint8_t> SerializeMeta(std::span<const uint8_t> payload);
Result<std::vector<uint8_t>> ParseMeta(std::span<const uint8_t> bytes);

Result<NodeKind> KindOf(std::span<const uint8_t> bytes);

/// Applies the small logged entry operations directly to serialized node
/// bytes (used both by the live index code and by REDO/UNDO apply). They
/// know no segment: they match on the entry's (key, partition, slot), and
/// a slot wider than 16 bits is Corruption. Either kind of node takes the
/// entry at its (key, value) position. Fails with Full when count ==
/// capacity.
Status InsertEntry(std::vector<uint8_t>* node_bytes, const Entry& e);

/// Removes the entry matching (key, partition, slot) exactly. NotFound if
/// absent.
Status RemoveEntry(std::vector<uint8_t>* node_bytes, const Entry& e);

}  // namespace mmdb::node

#endif  // MMDB_INDEX_NODE_FORMAT_H_
