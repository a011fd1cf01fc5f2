#include "index/node_format.h"

#include <algorithm>
#include <cstring>

#include "catalog/schema.h"  // wire helpers
#include "util/logging.h"

namespace mmdb::node {

void PutAddr(std::vector<uint8_t>* out, const EntityAddr& a) {
  wire::PutU32(out, a.partition.segment);
  wire::PutU32(out, a.partition.number);
  wire::PutU32(out, a.slot);
}

bool GetAddr(std::span<const uint8_t> in, size_t pos, EntityAddr* a) {
  if (in.size() < pos + 12) return false;
  wire::Reader r(in.subspan(pos, 12));
  return r.GetU32(&a->partition.segment) && r.GetU32(&a->partition.number) &&
         r.GetU32(&a->slot);
}

namespace {

void PutCommonHeader(std::vector<uint8_t>* out, NodeKind kind, uint16_t count,
                     uint16_t capacity) {
  wire::PutU8(out, static_cast<uint8_t>(kind));
  wire::PutU8(out, 0);
  wire::PutU16(out, count);
  wire::PutU16(out, capacity);
}

bool GetEntries(wire::Reader* r, uint16_t count, std::vector<Entry>* out) {
  out->clear();
  out->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Entry e;
    if (!r->GetI64(&e.key) || !r->GetU32(&e.value.partition.segment) ||
        !r->GetU32(&e.value.partition.number) || !r->GetU32(&e.value.slot)) {
      return false;
    }
    out->push_back(e);
  }
  return true;
}

// The entry ops on a T-tree or hash node: both keep their entries in
// (key, value) order.
template <typename Node>
Status InsertSorted(std::vector<uint8_t>* node_bytes, const Entry& e) {
  auto n = Node::Parse(*node_bytes);
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
  auto n = Node::Parse(*node_bytes);
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

std::vector<uint8_t> TTreeNode::Serialize() const {
  std::vector<uint8_t> out;
  PutCommonHeader(&out, NodeKind::kTTree, static_cast<uint16_t>(entries.size()),
                  capacity);
  PutAddr(&out, left);
  PutAddr(&out, right);
  wire::PutU32(&out, static_cast<uint32_t>(height));
  for (const Entry& e : entries) {
    wire::PutI64(&out, e.key);
    PutAddr(&out, e.value);
  }
  // Nodes serialize at fixed full-capacity size so in-place updates
  // (entry inserts, rotations) never need to grow within a partition.
  out.resize(kTTreeHeaderSize + static_cast<size_t>(capacity) * kEntrySize, 0);
  return out;
}

Result<TTreeNode> TTreeNode::Parse(std::span<const uint8_t> bytes) {
  wire::Reader r(bytes);
  uint8_t kind, reserved;
  uint16_t count;
  TTreeNode n;
  uint32_t height;
  if (!r.GetU8(&kind) || !r.GetU8(&reserved) || !r.GetU16(&count) ||
      !r.GetU16(&n.capacity)) {
    return Status::Corruption("truncated node header");
  }
  if (kind != static_cast<uint8_t>(NodeKind::kTTree)) {
    return Status::Corruption("not a T-Tree node");
  }
  if (!r.GetU32(&n.left.partition.segment) ||
      !r.GetU32(&n.left.partition.number) || !r.GetU32(&n.left.slot) ||
      !r.GetU32(&n.right.partition.segment) ||
      !r.GetU32(&n.right.partition.number) || !r.GetU32(&n.right.slot) ||
      !r.GetU32(&height)) {
    return Status::Corruption("truncated T-Tree header");
  }
  n.height = static_cast<int32_t>(height);
  if (count > n.capacity) {
    return Status::Corruption("T-Tree node count above its capacity");
  }
  if (!GetEntries(&r, count, &n.entries)) {
    return Status::Corruption("truncated T-Tree entries");
  }
  return n;
}

std::vector<uint8_t> HashNode::Serialize() const {
  std::vector<uint8_t> out;
  PutCommonHeader(&out, NodeKind::kHashBucket,
                  static_cast<uint16_t>(entries.size()), capacity);
  PutAddr(&out, next);
  for (const Entry& e : entries) {
    wire::PutI64(&out, e.key);
    PutAddr(&out, e.value);
  }
  // Fixed full-capacity size (see TTreeNode::Serialize).
  out.resize(kHashHeaderSize + static_cast<size_t>(capacity) * kEntrySize, 0);
  return out;
}

Result<HashNode> HashNode::Parse(std::span<const uint8_t> bytes) {
  wire::Reader r(bytes);
  uint8_t kind, reserved;
  uint16_t count;
  HashNode n;
  if (!r.GetU8(&kind) || !r.GetU8(&reserved) || !r.GetU16(&count) ||
      !r.GetU16(&n.capacity)) {
    return Status::Corruption("truncated node header");
  }
  if (kind != static_cast<uint8_t>(NodeKind::kHashBucket)) {
    return Status::Corruption("not a hash bucket node");
  }
  if (!r.GetU32(&n.next.partition.segment) ||
      !r.GetU32(&n.next.partition.number) || !r.GetU32(&n.next.slot)) {
    return Status::Corruption("truncated hash header");
  }
  if (count > n.capacity) {
    return Status::Corruption("hash node count above its capacity");
  }
  if (!GetEntries(&r, count, &n.entries)) {
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
