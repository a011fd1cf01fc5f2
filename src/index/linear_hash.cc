#include "index/linear_hash.h"

#include <algorithm>

#include "catalog/schema.h"  // wire helpers
#include "util/logging.h"

namespace mmdb {

namespace {

// Meta payload: level, next, base_buckets (u32 each), node_capacity (u16),
// max_chain_nodes and the relation's segment (u32 each), then the segment
// table of link refs.
constexpr size_t kMetaFieldBytes = 4 + 4 + 4 + 2 + 4 + 4;
constexpr size_t kTableBytes = LinearHash::kMaxSegments * node::kRefSize;
constexpr size_t kMetaBytes =
    node::kCommonHeaderSize + kMetaFieldBytes + kTableBytes;
constexpr size_t kSegmentBytes =
    node::kCommonHeaderSize + LinearHash::kSegmentBuckets * node::kRefSize;

// The link at `pos` into the index's `segment`. Callers only pass offsets
// inside entities whose size was checked.
EntityAddr LinkAt(std::span<const uint8_t> bytes, size_t pos,
                  SegmentId segment) {
  EntityAddr a;
  MMDB_CHECK(node::GetLink(bytes, pos, segment, &a));
  return a;
}

void PutRefAt(std::vector<uint8_t>* bytes, size_t pos, const EntityAddr& a) {
  std::vector<uint8_t> enc;
  node::PutRef(&enc, a);
  std::copy(enc.begin(), enc.end(),
            bytes->begin() + static_cast<std::ptrdiff_t>(pos));
}

size_t HeadOffset(uint32_t bucket) {
  return node::kCommonHeaderSize +
         (bucket % LinearHash::kSegmentBuckets) * node::kRefSize;
}

// Nodes one chain walk may read. Real chains stay near the chain target
// (longer only past kMaxBuckets or under one much-duplicated key), so a
// walk this long has met a chain that loops.
constexpr uint32_t kMaxChainWalk = 1u << 20;

// Reads the next node of a chain walk that has read `*walked` nodes so
// far. Every chain node holds entries: Remove unlinks a node it empties.
Result<node::HashNode> ReadChainNode(EntityStore& store, EntityAddr addr,
                                     node::Segments segments,
                                     uint32_t* walked) {
  if (++*walked > kMaxChainWalk) {
    return Status::Corruption("hash chain loops");
  }
  auto bytes = store.Read(addr);
  if (!bytes.ok()) return bytes.status();
  auto n = node::HashNode::Parse(bytes.value(), segments);
  if (!n.ok()) return n.status();
  if (n.value().entries.empty()) {
    return Status::Corruption("empty hash chain node");
  }
  return n;
}

}  // namespace

uint64_t LinearHash::HashKey(int64_t key) {
  // splitmix64 finalizer: well-mixed 64-bit hash of the key.
  uint64_t x = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- meta and directory segments -------------------------------------------

uint32_t LinearHash::Meta::BucketCount() const {
  return (base_buckets << level) + next;
}

uint32_t LinearHash::Meta::BucketOf(uint64_t hash) const {
  uint64_t round = static_cast<uint64_t>(base_buckets) << level;
  uint64_t b = hash % round;
  if (b < next) b = hash % (round << 1);
  return static_cast<uint32_t>(b);
}

EntityAddr LinearHash::Meta::Segment(uint32_t index, SegmentId segment) const {
  return LinkAt(table, index * node::kRefSize, segment);
}

void LinearHash::Meta::SetSegment(uint32_t index, const EntityAddr& addr) {
  PutRefAt(&table, index * node::kRefSize, addr);
}

std::vector<uint8_t> LinearHash::Meta::Serialize() const {
  std::vector<uint8_t> p;
  p.reserve(kMetaFieldBytes + kTableBytes);
  wire::PutU32(&p, level);
  wire::PutU32(&p, next);
  wire::PutU32(&p, base_buckets);
  wire::PutU16(&p, node_capacity);
  wire::PutU32(&p, max_chain_nodes);
  wire::PutU32(&p, relation);
  p.insert(p.end(), table.begin(), table.end());
  return node::SerializeMeta(p);
}

Result<LinearHash::Meta> LinearHash::Meta::Parse(
    std::span<const uint8_t> bytes) {
  auto kind = node::KindOf(bytes);
  if (!kind.ok()) return kind.status();
  if (kind.value() != node::NodeKind::kMeta || bytes.size() != kMetaBytes) {
    return Status::Corruption("bad linear hash meta");
  }
  wire::Reader r(bytes.subspan(node::kCommonHeaderSize));
  Meta m;
  if (!r.GetU32(&m.level) || !r.GetU32(&m.next) ||
      !r.GetU32(&m.base_buckets) || !r.GetU16(&m.node_capacity) ||
      !r.GetU32(&m.max_chain_nodes) || !r.GetU32(&m.relation)) {
    return Status::Corruption("truncated linear hash meta");
  }
  if (m.base_buckets == 0 || m.node_capacity == 0 ||
      m.max_chain_nodes == 0 || m.level >= 32 ||
      (uint64_t{m.base_buckets} << m.level) + m.next > kMaxBuckets ||
      m.next >= (uint64_t{m.base_buckets} << m.level)) {
    return Status::Corruption("linear hash split state out of range");
  }
  m.table.assign(bytes.end() - kTableBytes, bytes.end());
  return m;
}

LinearHash::DirSegment LinearHash::DirSegment::Empty() {
  DirSegment s;
  s.bytes = node::SerializeMeta(
      std::vector<uint8_t>(kSegmentBuckets * node::kRefSize, 0));
  return s;
}

EntityAddr LinearHash::DirSegment::Head(uint32_t bucket) const {
  // A directory segment lies in the index's segment, as its heads do.
  return LinkAt(bytes, HeadOffset(bucket), addr.partition.segment);
}

void LinearHash::DirSegment::SetHead(uint32_t bucket, const EntityAddr& head) {
  PutRefAt(&bytes, HeadOffset(bucket), head);
}

Result<LinearHash::Meta> LinearHash::ReadMeta(EntityStore& store) const {
  auto bytes = store.Read(meta_addr_);
  if (!bytes.ok()) return bytes.status();
  return Meta::Parse(bytes.value());
}

Result<LinearHash::DirSegment> LinearHash::ReadSegment(
    EntityStore& store, const Meta& meta, uint32_t bucket) const {
  DirSegment seg;
  seg.addr = meta.Segment(bucket / kSegmentBuckets, segment_);
  if (seg.addr.IsNull()) {
    return Status::Corruption("hash directory segment missing");
  }
  auto bytes = store.Read(seg.addr);
  if (!bytes.ok()) return bytes.status();
  auto kind = node::KindOf(bytes.value());
  if (!kind.ok()) return kind.status();
  if (kind.value() != node::NodeKind::kMeta ||
      bytes.value().size() != kSegmentBytes) {
    return Status::Corruption("bad hash directory segment");
  }
  seg.bytes = std::move(bytes).value();
  return seg;
}

Result<LinearHash::Probe> LinearHash::ProbeKey(EntityStore& store,
                                               int64_t key) const {
  auto meta = ReadMeta(store);
  if (!meta.ok()) return meta.status();
  Probe p;
  p.meta = std::move(meta).value();
  p.bucket = p.meta.BucketOf(HashKey(key));
  auto seg = ReadSegment(store, p.meta, p.bucket);
  if (!seg.ok()) return seg.status();
  p.seg = std::move(seg).value();
  return p;
}

// --- construction ----------------------------------------------------------

Result<LinearHash> LinearHash::Create(EntityStore& store, SegmentId segment,
                                      SegmentId relation,
                                      uint32_t initial_buckets,
                                      uint16_t node_capacity,
                                      uint32_t max_chain_nodes) {
  return Build(store, segment, relation, {}, initial_buckets, node_capacity,
               max_chain_nodes);
}

Result<LinearHash> LinearHash::Build(EntityStore& store, SegmentId segment,
                                     SegmentId relation,
                                     std::span<const node::Entry> entries,
                                     uint32_t initial_buckets,
                                     uint16_t node_capacity,
                                     uint32_t max_chain_nodes) {
  if (initial_buckets == 0 || initial_buckets > kMaxBuckets ||
      node_capacity == 0 || max_chain_nodes == 0) {
    return Status::InvalidArgument("bad linear hash parameters");
  }
  for (const node::Entry& e : entries) {
    MMDB_RETURN_IF_ERROR(node::CheckValue(e.value, relation));
  }
  Meta m;
  m.relation = relation;
  m.base_buckets = initial_buckets;
  m.node_capacity = node_capacity;
  m.max_chain_nodes = max_chain_nodes;
  m.table.assign(kTableBytes, 0);
  // A full round (split pointer 0) loads every bucket alike; part-way
  // through one, the unsplit buckets would hold twice the entries of the
  // split ones.
  const uint64_t per_bucket = uint64_t{node_capacity} * max_chain_nodes;
  while ((uint64_t{initial_buckets} << m.level) * per_bucket <
             entries.size() &&
         (uint64_t{initial_buckets} << (m.level + 1)) <= kMaxBuckets) {
    ++m.level;
  }
  const uint32_t buckets = initial_buckets << m.level;

  // Reserve the meta first: it must be the segment's first entity.
  auto meta_addr = store.Insert(segment, m.Serialize());
  if (!meta_addr.ok()) return meta_addr.status();
  if (meta_addr.value() != EntityAddr{{segment, 0}, 0}) {
    return Status::InvalidArgument("linear hash segment is not empty");
  }
  LinearHash h(segment, relation, meta_addr.value());

  // Group the entries by bucket (counting sort).
  std::vector<uint32_t> bucket_of(entries.size());
  std::vector<size_t> begin(static_cast<size_t>(buckets) + 1, 0);
  for (size_t i = 0; i < entries.size(); ++i) {
    bucket_of[i] = m.BucketOf(HashKey(entries[i].key));
    ++begin[bucket_of[i] + 1];
  }
  for (uint32_t b = 0; b < buckets; ++b) begin[b + 1] += begin[b];
  std::vector<node::Entry> sorted(entries.size());
  std::vector<size_t> fill(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    sorted[fill[bucket_of[i]]++] = entries[i];
  }

  for (uint32_t first = 0; first < buckets; first += kSegmentBuckets) {
    DirSegment seg = DirSegment::Empty();
    const uint32_t end = std::min(buckets, first + kSegmentBuckets);
    for (uint32_t b = first; b < end; ++b) {
      std::span<node::Entry> chain = std::span<node::Entry>(sorted).subspan(
          begin[b], begin[b + 1] - begin[b]);
      std::sort(chain.begin(), chain.end());
      auto head = h.BuildChain(store, chain, node_capacity);
      if (!head.ok()) return head.status();
      seg.SetHead(b, head.value());
    }
    auto addr = store.Insert(segment, seg.bytes);
    if (!addr.ok()) return addr.status();
    m.SetSegment(first / kSegmentBuckets, addr.value());
  }
  MMDB_RETURN_IF_ERROR(store.Update(meta_addr.value(), m.Serialize()));
  return h;
}

Result<LinearHash> LinearHash::Attach(EntityStore& store, SegmentId segment) {
  LinearHash h(segment, 0, EntityAddr{{segment, 0}, 0});
  auto meta = h.ReadMeta(store);
  if (!meta.ok()) return meta.status();
  h.relation_ = meta.value().relation;
  return h;
}

Result<EntityAddr> LinearHash::BuildChain(EntityStore& store,
                                          std::span<const node::Entry> entries,
                                          uint16_t node_capacity) const {
  EntityAddr next = EntityAddr::Null();
  for (size_t end = entries.size(); end > 0;) {
    const size_t begin = (end - 1) / node_capacity * node_capacity;
    node::HashNode n;
    n.capacity = node_capacity;
    n.next = next;
    n.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(begin),
                     entries.begin() + static_cast<std::ptrdiff_t>(end));
    auto addr = store.Insert(segment_, n.Serialize());
    if (!addr.ok()) return addr.status();
    next = addr.value();
    end = begin;
  }
  return next;
}

// --- mutation ----------------------------------------------------------------

Status LinearHash::Insert(EntityStore& store, int64_t key, EntityAddr value) {
  MMDB_RETURN_IF_ERROR(node::CheckValue(value, relation_));
  auto pr = ProbeKey(store, key);
  if (!pr.ok()) return pr.status();
  auto& [meta, bucket, seg] = pr.value();
  const node::Entry e{key, value};
  node::HashNode fresh;
  fresh.capacity = meta.node_capacity;

  EntityAddr cur = seg.Head(bucket);
  if (cur.IsNull()) {
    // Empty bucket: the entry opens its chain.
    fresh.entries.push_back(e);
    auto addr = store.Insert(segment_, fresh.Serialize());
    if (!addr.ok()) return addr.status();
    seg.SetHead(bucket, addr.value());
    return store.Update(seg.addr, seg.bytes);
  }

  // The entry belongs in the first node whose last entry does not precede
  // it, or in the tail when every entry does.
  uint32_t walked = 0;
  node::HashNode n;
  while (true) {
    auto nr = ReadChainNode(store, cur, node_segments(), &walked);
    if (!nr.ok()) return nr.status();
    n = std::move(nr).value();
    if (!(n.entries.back() < e) || n.next.IsNull()) break;
    cur = n.next;
  }
  if (n.entries.size() < n.capacity) return store.NodeInsertEntry(cur, e);

  // The node is full. An entry past the tail's last one opens a new tail
  // alone, so ascending keys keep packing nodes full. Otherwise the upper
  // half of the node's entries, the new one included, moves into a new
  // node linked after it.
  fresh.next = n.next;
  if (n.entries.back() < e) {
    fresh.entries.push_back(e);
  } else {
    n.entries.insert(std::lower_bound(n.entries.begin(), n.entries.end(), e),
                     e);
    const auto upper = n.entries.begin() +
                       static_cast<std::ptrdiff_t>(n.entries.size() / 2);
    fresh.entries.assign(upper, n.entries.end());
    n.entries.erase(upper, n.entries.end());
  }
  auto addr = store.Insert(segment_, fresh.Serialize());
  if (!addr.ok()) return addr.status();
  n.next = addr.value();
  MMDB_RETURN_IF_ERROR(store.Update(cur, n.Serialize()));

  // Modified-linear-hashing trigger: split when the chain (the `walked`
  // nodes read so far plus the new one) is longer than the target. The
  // nodes after the new one are read only until the count decides it.
  for (EntityAddr rest = fresh.next;
       !rest.IsNull() && walked + 1 <= meta.max_chain_nodes;) {
    auto nr = ReadChainNode(store, rest, node_segments(), &walked);
    if (!nr.ok()) return nr.status();
    rest = nr.value().next;
  }
  if (walked + 1 > meta.max_chain_nodes) return SplitOne(store, &meta);
  return Status::OK();
}

Status LinearHash::SplitOne(EntityStore& store, Meta* meta) {
  const uint32_t victim = meta->next;
  const uint32_t new_bucket = meta->BucketCount();
  // Segment table full: chains lengthen, correctness is unaffected.
  if (new_bucket >= kMaxBuckets) return Status::OK();
  auto vr = ReadSegment(store, *meta, victim);
  if (!vr.ok()) return vr.status();
  DirSegment victim_seg = std::move(vr).value();

  // Collect the victim chain's entries; the old chain is dismantled only
  // after the new chains and directory are in place.
  std::vector<node::Entry> entries;
  std::vector<EntityAddr> old_nodes;
  uint32_t walked = 0;
  for (EntityAddr cur = victim_seg.Head(victim); !cur.IsNull();) {
    auto nr = ReadChainNode(store, cur, node_segments(), &walked);
    if (!nr.ok()) return nr.status();
    entries.insert(entries.end(), nr.value().entries.begin(),
                   nr.value().entries.end());
    old_nodes.push_back(cur);
    cur = nr.value().next;
  }

  // Advance split state first so BucketOf reflects the new round. Both
  // halves keep the chain's (key, value) order.
  if (++meta->next == (meta->base_buckets << meta->level)) {
    ++meta->level;
    meta->next = 0;
  }
  std::vector<node::Entry> stay, move;
  for (const node::Entry& e : entries) {
    uint32_t b = meta->BucketOf(HashKey(e.key));
    if (b == victim) {
      stay.push_back(e);
    } else if (b == new_bucket) {
      move.push_back(e);
    } else {
      return Status::Corruption("split rehash landed outside pair");
    }
  }
  auto stay_head = BuildChain(store, stay, meta->node_capacity);
  if (!stay_head.ok()) return stay_head.status();
  auto move_head = BuildChain(store, move, meta->node_capacity);
  if (!move_head.ok()) return move_head.status();

  victim_seg.SetHead(victim, stay_head.value());
  const uint32_t new_index = new_bucket / kSegmentBuckets;
  if (new_index == victim / kSegmentBuckets) {
    victim_seg.SetHead(new_bucket, move_head.value());
  } else if (new_bucket % kSegmentBuckets == 0) {
    // The new bucket opens a directory segment.
    DirSegment fresh = DirSegment::Empty();
    fresh.SetHead(new_bucket, move_head.value());
    auto addr = store.Insert(segment_, fresh.bytes);
    if (!addr.ok()) return addr.status();
    meta->SetSegment(new_index, addr.value());
  } else {
    auto nr = ReadSegment(store, *meta, new_bucket);
    if (!nr.ok()) return nr.status();
    DirSegment new_seg = std::move(nr).value();
    new_seg.SetHead(new_bucket, move_head.value());
    MMDB_RETURN_IF_ERROR(store.Update(new_seg.addr, new_seg.bytes));
  }
  MMDB_RETURN_IF_ERROR(store.Update(victim_seg.addr, victim_seg.bytes));
  MMDB_RETURN_IF_ERROR(store.Update(meta_addr_, meta->Serialize()));
  for (const EntityAddr& n : old_nodes) {
    MMDB_RETURN_IF_ERROR(store.Delete(n));
  }
  return Status::OK();
}

Status LinearHash::Remove(EntityStore& store, int64_t key, EntityAddr value) {
  MMDB_RETURN_IF_ERROR(node::CheckValue(value, relation_));
  auto pr = ProbeKey(store, key);
  if (!pr.ok()) return pr.status();
  auto& [_, bucket, seg] = pr.value();
  const node::Entry e{key, value};

  // The first node whose last entry does not precede the entry holds it,
  // or no node does.
  uint32_t walked = 0;
  EntityAddr prev = EntityAddr::Null();
  node::HashNode prev_node;
  for (EntityAddr cur = seg.Head(bucket); !cur.IsNull();) {
    auto nr = ReadChainNode(store, cur, node_segments(), &walked);
    if (!nr.ok()) return nr.status();
    node::HashNode n = std::move(nr).value();
    if (!(n.entries.back() < e)) {
      if (std::find(n.entries.begin(), n.entries.end(), e) ==
          n.entries.end()) {
        break;
      }
      MMDB_RETURN_IF_ERROR(store.NodeRemoveEntry(cur, e));
      if (n.entries.size() == 1) {
        // Node emptied: unlink it from the chain.
        if (prev.IsNull()) {
          seg.SetHead(bucket, n.next);
          MMDB_RETURN_IF_ERROR(store.Update(seg.addr, seg.bytes));
        } else {
          prev_node.next = n.next;
          MMDB_RETURN_IF_ERROR(store.Update(prev, prev_node.Serialize()));
        }
        MMDB_RETURN_IF_ERROR(store.Delete(cur));
      }
      return Status::OK();
    }
    prev = cur;
    cur = n.next;
    prev_node = std::move(n);
  }
  return Status::NotFound("entry not in hash index");
}

// --- reads -------------------------------------------------------------------

Result<std::vector<EntityAddr>> LinearHash::Lookup(EntityStore& store,
                                                   int64_t key) const {
  auto pr = ProbeKey(store, key);
  if (!pr.ok()) return pr.status();
  std::vector<EntityAddr> out;
  uint32_t walked = 0;
  for (EntityAddr cur = pr.value().seg.Head(pr.value().bucket);
       !cur.IsNull();) {
    auto nr = ReadChainNode(store, cur, node_segments(), &walked);
    if (!nr.ok()) return nr.status();
    const node::HashNode& n = nr.value();
    for (const node::Entry& e : n.entries) {
      if (e.key == key) out.push_back(e.value);
    }
    // Every later node's entries lie past this node's last one.
    if (n.entries.back().key > key) break;
    cur = n.next;
  }
  return out;
}

Status LinearHash::VisitNodes(
    EntityStore& store, const Meta& meta,
    const std::function<Status(uint32_t, const node::HashNode&)>& visit)
    const {
  const uint32_t buckets = meta.BucketCount();
  for (uint32_t first = 0; first < buckets; first += kSegmentBuckets) {
    auto sr = ReadSegment(store, meta, first);
    if (!sr.ok()) return sr.status();
    const uint32_t end = std::min(buckets, first + kSegmentBuckets);
    for (uint32_t b = first; b < end; ++b) {
      uint32_t walked = 0;
      for (EntityAddr cur = sr.value().Head(b); !cur.IsNull();) {
        auto nr = ReadChainNode(store, cur, node_segments(), &walked);
        if (!nr.ok()) return nr.status();
        MMDB_RETURN_IF_ERROR(visit(b, nr.value()));
        cur = nr.value().next;
      }
    }
  }
  return Status::OK();
}

Result<size_t> LinearHash::Size(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  size_t total = 0;
  MMDB_RETURN_IF_ERROR(VisitNodes(
      store, mr.value(), [&](uint32_t, const node::HashNode& n) {
        total += n.entries.size();
        return Status::OK();
      }));
  return total;
}

Result<uint32_t> LinearHash::BucketCount(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  return mr.value().BucketCount();
}

Status LinearHash::CheckInvariants(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  const Meta& meta = mr.value();
  const uint32_t buckets = meta.BucketCount();
  const uint32_t segments = (buckets + kSegmentBuckets - 1) / kSegmentBuckets;
  for (uint32_t s = 0; s < kMaxSegments; ++s) {
    if (meta.Segment(s, segment_).IsNull() != (s >= segments)) {
      return Status::Corruption("segment table inconsistent with split state");
    }
  }
  auto last = ReadSegment(store, meta, buckets - 1);
  if (!last.ok()) return last.status();
  for (uint32_t b = buckets; b % kSegmentBuckets != 0; ++b) {
    if (!last.value().Head(b).IsNull()) {
      return Status::Corruption("bucket head past the last bucket");
    }
  }
  // The last entry of the previous node visited and its bucket.
  uint32_t prev_bucket = buckets;
  node::Entry prev_last;
  return VisitNodes(
      store, meta, [&](uint32_t b, const node::HashNode& n) -> Status {
        if (n.entries.size() > n.capacity) {
          return Status::Corruption("overfull hash node");
        }
        const node::Entry* before = b == prev_bucket ? &prev_last : nullptr;
        for (const node::Entry& e : n.entries) {
          if (meta.BucketOf(HashKey(e.key)) != b) {
            return Status::Corruption("entry hashed to wrong bucket");
          }
          if (before != nullptr && e < *before) {
            return Status::Corruption("hash chain out of (key, value) order");
          }
          before = &e;
        }
        prev_bucket = b;
        prev_last = n.entries.back();
        return Status::OK();
      });
}

}  // namespace mmdb
