#include "index/node_format.h"

#include <algorithm>

#include "catalog/schema.h"  // wire helpers
#include "util/logging.h"

namespace mmdb::node {

Status CheckValue(const EntityAddr& value, SegmentId relation) {
  if (value.partition.segment != relation || value.slot > kMaxSlot) {
    return Status::InvalidArgument("index value " + value.ToString() +
                                   " outside its relation's segment or "
                                   "16-bit slots");
  }
  return Status::OK();
}

void PutRef(std::vector<uint8_t>* out, const EntityAddr& a) {
  MMDB_CHECK(a.slot <= kMaxSlot);
  wire::PutU32(out, a.partition.number);
  wire::PutU16(out, static_cast<uint16_t>(a.slot));
}

namespace {

bool GetRef(wire::Reader* r, SegmentId segment, EntityAddr* a) {
  uint16_t slot = 0;
  if (!r->GetU32(&a->partition.number) || !r->GetU16(&slot)) return false;
  a->partition.segment = segment;
  a->slot = slot;
  return true;
}

bool GetLink(wire::Reader* r, SegmentId segment, EntityAddr* a) {
  if (!GetRef(r, segment, a)) return false;
  if (a->partition.number == 0 && a->slot == 0) *a = EntityAddr::Null();
  return true;
}

void PutCommonHeader(std::vector<uint8_t>* out, NodeKind kind, uint16_t count,
                     uint16_t capacity) {
  wire::PutU8(out, static_cast<uint8_t>(kind));
  wire::PutU16(out, count);
  wire::PutU16(out, capacity);
}

/// Reads the common header of a node of kind `want`.
Status GetCommonHeader(wire::Reader* r, NodeKind want, uint16_t* count,
                       uint16_t* capacity) {
  uint8_t kind = 0;
  if (!r->GetU8(&kind) || !r->GetU16(count) || !r->GetU16(capacity)) {
    return Status::Corruption("truncated node header");
  }
  if (kind != static_cast<uint8_t>(want)) {
    return Status::Corruption("node of the wrong kind");
  }
  if (*count > *capacity) {
    return Status::Corruption("node count above its capacity");
  }
  return Status::OK();
}

void PutEntries(std::vector<uint8_t>* out, const std::vector<Entry>& entries) {
  for (const Entry& e : entries) {
    wire::PutI64(out, e.key);
    PutRef(out, e.value);
  }
}

bool GetEntries(wire::Reader* r, uint16_t count, SegmentId relation,
                std::vector<Entry>* out) {
  out->clear();
  out->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Entry e;
    if (!r->GetI64(&e.key) || !GetRef(r, relation, &e.value)) return false;
    out->push_back(e);
  }
  return true;
}

// The entry ops on a T-tree or hash node: both keep their entries in
// (key, value) order. The node's entries are read into `e`'s segment, so
// the order and the match are on (key, partition, slot); links are
// written back as they were read.
template <typename Node>
Result<Node> ParseForEntryOp(std::span<const uint8_t> node_bytes,
                             const Entry& e) {
  if (e.value.slot > kMaxSlot) {
    return Status::Corruption("index entry slot wider than 16 bits");
  }
  return Node::Parse(node_bytes, Segments{e.value.partition.segment, 0});
}

template <typename Node>
Status InsertSorted(std::vector<uint8_t>* node_bytes, const Entry& e) {
  auto n = ParseForEntryOp<Node>(*node_bytes, e);
  if (!n.ok()) return n.status();
  Node& node = n.value();
  if (node.entries.size() >= node.capacity) {
    return Status::Full("index node full");
  }
  node.entries.insert(
      std::lower_bound(node.entries.begin(), node.entries.end(), e), e);
  *node_bytes = node.Serialize();
  return Status::OK();
}

template <typename Node>
Status RemoveExact(std::vector<uint8_t>* node_bytes, const Entry& e) {
  auto n = ParseForEntryOp<Node>(*node_bytes, e);
  if (!n.ok()) return n.status();
  Node& node = n.value();
  auto it = std::find(node.entries.begin(), node.entries.end(), e);
  if (it == node.entries.end()) {
    return Status::NotFound("entry not in index node");
  }
  node.entries.erase(it);
  *node_bytes = node.Serialize();
  return Status::OK();
}

}  // namespace

bool GetLink(std::span<const uint8_t> in, size_t pos, SegmentId segment,
             EntityAddr* a) {
  if (in.size() < pos + kRefSize) return false;
  wire::Reader r(in.subspan(pos, kRefSize));
  return GetLink(&r, segment, a);
}

std::vector<uint8_t> TTreeNode::Serialize() const {
  std::vector<uint8_t> out;
  PutCommonHeader(&out, NodeKind::kTTree, static_cast<uint16_t>(entries.size()),
                  capacity);
  PutRef(&out, left);
  PutRef(&out, right);
  wire::PutU8(&out, static_cast<uint8_t>(height));
  PutEntries(&out, entries);
  // Nodes serialize at fixed full-capacity size so in-place updates
  // (entry inserts, rotations) never need to grow within a partition.
  out.resize(kTTreeHeaderSize + static_cast<size_t>(capacity) * kEntrySize, 0);
  return out;
}

Result<TTreeNode> TTreeNode::Parse(std::span<const uint8_t> bytes,
                                   Segments segments) {
  wire::Reader r(bytes);
  uint16_t count = 0;
  TTreeNode n;
  MMDB_RETURN_IF_ERROR(
      GetCommonHeader(&r, NodeKind::kTTree, &count, &n.capacity));
  uint8_t height = 0;
  if (!GetLink(&r, segments.index, &n.left) ||
      !GetLink(&r, segments.index, &n.right) || !r.GetU8(&height)) {
    return Status::Corruption("truncated T-Tree header");
  }
  n.height = height;
  if (!GetEntries(&r, count, segments.relation, &n.entries)) {
    return Status::Corruption("truncated T-Tree entries");
  }
  return n;
}

std::vector<uint8_t> HashNode::Serialize() const {
  std::vector<uint8_t> out;
  PutCommonHeader(&out, NodeKind::kHashBucket,
                  static_cast<uint16_t>(entries.size()), capacity);
  PutRef(&out, next);
  PutEntries(&out, entries);
  // Fixed full-capacity size (see TTreeNode::Serialize).
  out.resize(kHashHeaderSize + static_cast<size_t>(capacity) * kEntrySize, 0);
  return out;
}

Result<HashNode> HashNode::Parse(std::span<const uint8_t> bytes,
                                 Segments segments) {
  wire::Reader r(bytes);
  uint16_t count = 0;
  HashNode n;
  MMDB_RETURN_IF_ERROR(
      GetCommonHeader(&r, NodeKind::kHashBucket, &count, &n.capacity));
  if (!GetLink(&r, segments.index, &n.next)) {
    return Status::Corruption("truncated hash header");
  }
  if (!GetEntries(&r, count, segments.relation, &n.entries)) {
    return Status::Corruption("truncated hash entries");
  }
  return n;
}

std::vector<uint8_t> SerializeMeta(std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  PutCommonHeader(&out, NodeKind::kMeta, 0, 0);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<std::vector<uint8_t>> ParseMeta(std::span<const uint8_t> bytes) {
  if (bytes.size() < kCommonHeaderSize) {
    return Status::Corruption("truncated meta node");
  }
  if (bytes[0] != static_cast<uint8_t>(NodeKind::kMeta)) {
    return Status::Corruption("not a meta node");
  }
  return std::vector<uint8_t>(bytes.begin() + kCommonHeaderSize, bytes.end());
}

Result<NodeKind> KindOf(std::span<const uint8_t> bytes) {
  if (bytes.empty()) return Status::Corruption("empty node");
  uint8_t k = bytes[0];
  if (k < 1 || k > 3) return Status::Corruption("unknown node kind");
  return static_cast<NodeKind>(k);
}

Status InsertEntry(std::vector<uint8_t>* node_bytes, const Entry& e) {
  auto kind = KindOf(*node_bytes);
  if (!kind.ok()) return kind.status();
  switch (kind.value()) {
    case NodeKind::kTTree:
      return InsertSorted<TTreeNode>(node_bytes, e);
    case NodeKind::kHashBucket:
      return InsertSorted<HashNode>(node_bytes, e);
    case NodeKind::kMeta:
      return Status::InvalidArgument("entry op on meta node");
  }
  return Status::InvalidArgument("bad node kind");
}

Status RemoveEntry(std::vector<uint8_t>* node_bytes, const Entry& e) {
  auto kind = KindOf(*node_bytes);
  if (!kind.ok()) return kind.status();
  switch (kind.value()) {
    case NodeKind::kTTree:
      return RemoveExact<TTreeNode>(node_bytes, e);
    case NodeKind::kHashBucket:
      return RemoveExact<HashNode>(node_bytes, e);
    case NodeKind::kMeta:
      return Status::InvalidArgument("entry op on meta node");
  }
  return Status::InvalidArgument("bad node kind");
}

}  // namespace mmdb::node
