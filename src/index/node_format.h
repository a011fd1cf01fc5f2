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
/// Layout (little-endian):
///   u8  kind; u8 reserved; u16 count; u16 capacity;
///   kind-specific header:
///     kTTree: left addr (12) | right addr (12) | i32 height
///     kHashBucket: next-overflow addr (12)
///     kMeta: (none; payload is index-specific opaque bytes)
///   entries: count * (i64 key | addr (12))
enum class NodeKind : uint8_t {
  kTTree = 1,
  kHashBucket = 2,
  kMeta = 3,
};

/// Index entries order by (key, value), in T-tree nodes and along hash
/// bucket chains alike.
struct Entry {
  int64_t key = 0;
  EntityAddr value;

  friend bool operator==(const Entry&, const Entry&) = default;
  friend auto operator<=>(const Entry&, const Entry&) = default;
};

inline constexpr size_t kEntrySize = 8 + 12;
inline constexpr size_t kCommonHeaderSize = 6;
inline constexpr size_t kTTreeHeaderSize = kCommonHeaderSize + 12 + 12 + 4;
inline constexpr size_t kHashHeaderSize = kCommonHeaderSize + 12;

void PutAddr(std::vector<uint8_t>* out, const EntityAddr& a);
bool GetAddr(std::span<const uint8_t> in, size_t pos, EntityAddr* a);

/// Parsed view of a T-Tree node.
struct TTreeNode {
  EntityAddr left;
  EntityAddr right;
  int32_t height = 1;
  uint16_t capacity = 0;
  std::vector<Entry> entries;  // sorted by (key, value)

  std::vector<uint8_t> Serialize() const;
  static Result<TTreeNode> Parse(std::span<const uint8_t> bytes);
};

/// Parsed view of a hash bucket node.
struct HashNode {
  EntityAddr next;  // overflow chain
  uint16_t capacity = 0;
  std::vector<Entry> entries;  // sorted by (key, value)

  std::vector<uint8_t> Serialize() const;
  static Result<HashNode> Parse(std::span<const uint8_t> bytes);
};

/// Builds a kMeta node wrapping opaque index metadata.
std::vector<uint8_t> SerializeMeta(std::span<const uint8_t> payload);
Result<std::vector<uint8_t>> ParseMeta(std::span<const uint8_t> bytes);

Result<NodeKind> KindOf(std::span<const uint8_t> bytes);

/// Applies the small logged entry operations directly to serialized node
/// bytes (used both by the live index code and by REDO/UNDO apply).
/// Either kind of node takes the entry at its (key, value) position.
/// Fails with Full when count == capacity.
Status InsertEntry(std::vector<uint8_t>* node_bytes, const Entry& e);

/// Removes the entry matching (key, value) exactly. NotFound if absent.
Status RemoveEntry(std::vector<uint8_t>* node_bytes, const Entry& e);

}  // namespace mmdb::node

#endif  // MMDB_INDEX_NODE_FORMAT_H_
