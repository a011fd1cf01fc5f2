#include "catalog/catalog.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb {

namespace {
constexpr uint32_t kRootMagic = 0x4D52424B;  // "MRBK"
}  // namespace

// ---------------------------------------------------------------------------
// DiskAllocationMap
// ---------------------------------------------------------------------------

DiskAllocationMap::DiskAllocationMap(uint64_t num_slots,
                                     uint32_t pages_per_slot)
    : slots_(num_slots, kFree), pages_per_slot_(pages_per_slot) {}

Result<uint64_t> DiskAllocationMap::Allocate(uint64_t owner) {
  if (slots_.empty()) return Status::Full("checkpoint disk has no slots");
  for (uint64_t i = 0; i < slots_.size(); ++i) {
    uint64_t slot = (head_ + i) % slots_.size();
    if (slots_[slot] == kFree) {
      slots_[slot] = owner;
      head_ = (slot + 1) % slots_.size();
      return slot;
    }
  }
  return Status::Full("checkpoint disk full");
}

Status DiskAllocationMap::Free(uint64_t slot) {
  if (slot >= slots_.size()) return Status::InvalidArgument("bad slot");
  if (slots_[slot] == kFree) return Status::InvalidArgument("slot not in use");
  slots_[slot] = kFree;
  return Status::OK();
}

Status DiskAllocationMap::Reclaim(uint64_t slot, uint64_t owner) {
  if (slot >= slots_.size()) return Status::InvalidArgument("bad slot");
  if (slots_[slot] != kFree) return Status::InvalidArgument("slot in use");
  slots_[slot] = owner;
  return Status::OK();
}

uint64_t DiskAllocationMap::free_count() const {
  uint64_t n = 0;
  for (uint64_t s : slots_) {
    if (s == kFree) ++n;
  }
  return n;
}

std::vector<uint8_t> DiskAllocationMap::SerializeChunk(uint32_t chunk) const {
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(CatalogRowTag::kDiskMapChunk));
  wire::PutU32(&out, chunk);
  wire::PutU32(&out, pages_per_slot_);
  wire::PutU64(&out, slots_.size());
  wire::PutU64(&out, head_);
  uint64_t begin = static_cast<uint64_t>(chunk) * kChunkSlots;
  uint64_t end = std::min<uint64_t>(begin + kChunkSlots, slots_.size());
  wire::PutU32(&out, static_cast<uint32_t>(end - begin));
  for (uint64_t s = begin; s < end; ++s) wire::PutU64(&out, slots_[s]);
  return out;
}

Status DiskAllocationMap::ApplyChunk(std::span<const uint8_t> payload) {
  wire::Reader r(payload);
  uint8_t tag;
  uint32_t chunk, pps, count;
  uint64_t total, head;
  if (!r.GetU8(&tag) || !r.GetU32(&chunk) || !r.GetU32(&pps) ||
      !r.GetU64(&total) || !r.GetU64(&head) || !r.GetU32(&count)) {
    return Status::Corruption("truncated disk map chunk");
  }
  if (tag != static_cast<uint8_t>(CatalogRowTag::kDiskMapChunk)) {
    return Status::Corruption("not a disk map chunk");
  }
  // Restart sizes the map from the options the database was created
  // with, so a chunk written by this database always matches it.
  if (total != slots_.size() || pps != pages_per_slot_) {
    return Status::Corruption("disk map chunk does not match the map");
  }
  uint64_t begin = static_cast<uint64_t>(chunk) * kChunkSlots;
  if (begin + count > total) return Status::Corruption("chunk out of range");
  head_ = head;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t v;
    if (!r.GetU64(&v)) return Status::Corruption("truncated chunk slots");
    slots_[begin + i] = v;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Catalog: relations and indexes
// ---------------------------------------------------------------------------

Result<RelationInfo*> Catalog::CreateRelation(std::string name, Schema schema,
                                              SegmentId segment) {
  if (relations_.count(name) != 0) {
    return Status::InvalidArgument("relation exists: " + name);
  }
  RelationInfo info;
  info.id = next_relation_id_++;
  info.name = name;
  info.schema = std::move(schema);
  info.segment = segment;
  NoteSegment(segment);
  auto [it, _] = relations_.emplace(name, std::move(info));
  relation_names_[it->second.id] = name;
  return &it->second;
}

Result<RelationInfo*> Catalog::GetRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + name);
  }
  return &it->second;
}

Result<const RelationInfo*> Catalog::GetRelation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + name);
  }
  return &it->second;
}

Result<RelationInfo*> Catalog::GetRelationById(uint32_t id) {
  auto it = relation_names_.find(id);
  if (it == relation_names_.end()) {
    return Status::NotFound("no relation with id " + std::to_string(id));
  }
  return GetRelation(it->second);
}

Status Catalog::DropRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Status::NotFound("no relation " + name);
  for (const std::string& idx : it->second.index_names) indexes_.erase(idx);
  relation_names_.erase(it->second.id);
  relations_.erase(it);
  return Status::OK();
}

Result<IndexInfo*> Catalog::CreateIndex(std::string name, uint32_t relation_id,
                                        uint32_t column, IndexType type,
                                        SegmentId segment) {
  if (indexes_.count(name) != 0) {
    return Status::InvalidArgument("index exists: " + name);
  }
  auto rel = GetRelationById(relation_id);
  if (!rel.ok()) return rel.status();
  IndexInfo info;
  info.name = name;
  info.relation_id = relation_id;
  info.column = column;
  info.type = type;
  info.segment = segment;
  NoteSegment(segment);
  auto [it, _] = indexes_.emplace(name, std::move(info));
  rel.value()->index_names.push_back(name);
  return &it->second;
}

Result<IndexInfo*> Catalog::GetIndex(const std::string& name) {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) return Status::NotFound("no index named " + name);
  return &it->second;
}

Status Catalog::DropIndex(const std::string& name) {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) return Status::NotFound("no index " + name);
  auto rel = GetRelationById(it->second.relation_id);
  if (rel.ok()) {
    auto& names = rel.value()->index_names;
    names.erase(std::remove(names.begin(), names.end(), name), names.end());
  }
  indexes_.erase(it);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Catalog: partition descriptors
// ---------------------------------------------------------------------------

Catalog::Owner Catalog::OwnerOf(SegmentId segment) const {
  for (const auto& [_, r] : relations_) {
    if (r.segment == segment) return Owner{&r, nullptr};
  }
  for (const auto& [_, i] : indexes_) {
    if (i.segment == segment) return Owner{nullptr, &i};
  }
  return Owner{};
}

Result<std::vector<PartitionDescriptor>*> Catalog::PartitionsOf(
    SegmentId segment) {
  if (segment == catalog_segment_) return &catalog_partitions_;
  Owner o = OwnerOf(segment);
  if (o.relation != nullptr) return &relations_.at(o.relation->name).partitions;
  if (o.index != nullptr) return &indexes_.at(o.index->name).partitions;
  return Status::NotFound("no object owns segment " + std::to_string(segment));
}

Result<PartitionDescriptor*> Catalog::FindDescriptor(PartitionId pid) {
  auto list = PartitionsOf(pid.segment);
  if (!list.ok()) return list.status();
  for (PartitionDescriptor& d : *list.value()) {
    if (d.id == pid) return &d;
  }
  return Status::NotFound("no descriptor for " + pid.ToString());
}

Result<RelationInfo*> Catalog::RelationOfSegment(SegmentId segment) {
  Owner o = OwnerOf(segment);
  if (o.relation != nullptr) return GetRelation(o.relation->name);
  if (o.index != nullptr) return GetRelationById(o.index->relation_id);
  return Status::NotFound("no relation owns segment " +
                          std::to_string(segment));
}

Result<IndexInfo*> Catalog::IndexOfSegment(SegmentId segment) {
  Owner o = OwnerOf(segment);
  if (o.index == nullptr) {
    return Status::NotFound("no index owns segment " +
                            std::to_string(segment));
  }
  return GetIndex(o.index->name);
}

void Catalog::AppendRelationPartitions(
    const RelationInfo& r,
    std::vector<const PartitionDescriptor*>* out) const {
  for (const PartitionDescriptor& d : r.partitions) out->push_back(&d);
  // Rebuild rejects a relation row naming an undefined index, and DDL
  // changes index_names and indexes_ together, so every name resolves.
  for (const std::string& iname : r.index_names) {
    for (const PartitionDescriptor& d : indexes_.at(iname).partitions) {
      out->push_back(&d);
    }
  }
}

std::vector<const PartitionDescriptor*> Catalog::DataPartitions() const {
  std::vector<const PartitionDescriptor*> out;
  for (const auto& [_, r] : relations_) AppendRelationPartitions(r, &out);
  return out;
}

Result<std::vector<const PartitionDescriptor*>> Catalog::RelationPartitions(
    const std::string& name) const {
  auto rel = GetRelation(name);
  if (!rel.ok()) return rel.status();
  std::vector<const PartitionDescriptor*> out;
  AppendRelationPartitions(*rel.value(), &out);
  return out;
}

// ---------------------------------------------------------------------------
// Root block
// ---------------------------------------------------------------------------

std::vector<uint8_t> Catalog::RootBlock(uint32_t partition_size) const {
  std::vector<uint8_t> b;
  wire::PutU32(&b, kRootMagic);
  wire::PutU32(&b, catalog_segment_);
  wire::PutU32(&b, partition_size);
  wire::PutU32(&b, static_cast<uint32_t>(catalog_partitions_.size()));
  for (const PartitionDescriptor& d : catalog_partitions_) {
    wire::PutU32(&b, d.id.segment);
    wire::PutU32(&b, d.id.number);
    wire::PutU64(&b, d.checkpoint_page);
    wire::PutU64(&b, d.checkpoint_slot);
  }
  // Trailing CRC over the whole payload: a stable-memory bit flip in one
  // copy is caught by LoadRoot, and restart falls back to the other copy.
  wire::PutU32(&b, Crc32(b.data(), b.size()));
  return b;
}

Status Catalog::LoadRoot(std::span<const uint8_t> block,
                         uint32_t partition_size) {
  if (block.size() < 4) {
    return Status::Corruption("truncated catalog root block");
  }
  const size_t body = block.size() - 4;
  uint32_t stored_crc;
  wire::Reader tail(block.subspan(body));
  MMDB_CHECK(tail.GetU32(&stored_crc));
  if (Crc32(block.data(), body) != stored_crc) {
    return Status::Corruption("catalog root block checksum mismatch");
  }
  wire::Reader r(block.subspan(0, body));
  uint32_t magic, segment, size, count;
  if (!r.GetU32(&magic) || !r.GetU32(&segment) || !r.GetU32(&size) ||
      !r.GetU32(&count)) {
    return Status::Corruption("truncated catalog root block");
  }
  if (magic != kRootMagic) {
    return Status::Corruption("catalog root block has bad magic");
  }
  if (size != partition_size) {
    return Status::Corruption("partition size changed across restart");
  }
  std::vector<PartitionDescriptor> parts;
  for (uint32_t i = 0; i < count; ++i) {
    PartitionDescriptor d;
    if (!r.GetU32(&d.id.segment) || !r.GetU32(&d.id.number) ||
        !r.GetU64(&d.checkpoint_page) || !r.GetU64(&d.checkpoint_slot)) {
      return Status::Corruption("truncated catalog root entry");
    }
    if (d.id.segment != segment) {
      return Status::Corruption("catalog root entry outside its segment");
    }
    d.resident = false;
    parts.push_back(d);
  }
  catalog_segment_ = segment;
  catalog_partitions_ = std::move(parts);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Row serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> Catalog::SerializeRelationRow(const RelationInfo& r) {
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(CatalogRowTag::kRelation));
  wire::PutU32(&out, r.id);
  wire::PutString(&out, r.name);
  wire::PutU32(&out, r.segment);
  std::vector<uint8_t> schema = r.schema.Serialize();
  wire::PutU32(&out, static_cast<uint32_t>(schema.size()));
  wire::PutBytes(&out, schema);
  wire::PutU32(&out, static_cast<uint32_t>(r.index_names.size()));
  for (const auto& n : r.index_names) wire::PutString(&out, n);
  return out;
}

std::vector<uint8_t> Catalog::SerializeIndexRow(const IndexInfo& i) {
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(CatalogRowTag::kIndex));
  wire::PutString(&out, i.name);
  wire::PutU32(&out, i.relation_id);
  wire::PutU32(&out, i.column);
  wire::PutU8(&out, static_cast<uint8_t>(i.type));
  wire::PutU32(&out, i.segment);
  return out;
}

Result<std::vector<uint8_t>> Catalog::PartitionRow(
    const PartitionDescriptor& d) const {
  Owner o = OwnerOf(d.id.segment);
  if (o.relation == nullptr && o.index == nullptr) {
    return Status::NotFound("no relation or index owns " + d.id.ToString());
  }
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(CatalogRowTag::kPartition));
  wire::PutU32(&out, o.index != nullptr ? o.index->relation_id
                                        : o.relation->id);
  wire::PutU8(&out, o.index != nullptr ? 1 : 0);
  wire::PutString(&out, o.index != nullptr ? o.index->name : o.relation->name);
  wire::PutU32(&out, d.id.segment);
  wire::PutU32(&out, d.id.number);
  wire::PutU64(&out, d.checkpoint_page);
  wire::PutU64(&out, d.checkpoint_slot);
  return out;
}

Status Catalog::Rebuild(
    const std::vector<std::pair<EntityAddr, std::vector<uint8_t>>>& rows,
    DiskAllocationMap* disk_map) {
  relations_.clear();
  relation_names_.clear();
  indexes_.clear();
  next_relation_id_ = 1;
  max_segment_seen_ = 0;

  // Pass 1: relations, indexes, disk map chunks.
  for (const auto& [addr, bytes] : rows) {
    if (bytes.empty()) continue;
    auto tag = static_cast<CatalogRowTag>(bytes[0]);
    wire::Reader r(std::span<const uint8_t>(bytes).subspan(1));
    switch (tag) {
      case CatalogRowTag::kRelation: {
        RelationInfo info;
        uint32_t schema_len;
        if (!r.GetU32(&info.id) || !r.GetString(&info.name) ||
            !r.GetU32(&info.segment) || !r.GetU32(&schema_len)) {
          return Status::Corruption("truncated relation row");
        }
        std::span<const uint8_t> schema_bytes;
        if (!r.GetBytes(schema_len, &schema_bytes)) {
          return Status::Corruption("truncated relation schema");
        }
        auto schema = Schema::Deserialize(schema_bytes, nullptr);
        if (!schema.ok()) return schema.status();
        info.schema = std::move(schema).value();
        uint32_t n_idx;
        if (!r.GetU32(&n_idx)) return Status::Corruption("truncated rel row");
        for (uint32_t k = 0; k < n_idx; ++k) {
          std::string idx;
          if (!r.GetString(&idx)) return Status::Corruption("truncated rel row");
          info.index_names.push_back(std::move(idx));
        }
        info.row_addr = addr;
        NoteSegment(info.segment);
        if (info.id >= next_relation_id_) next_relation_id_ = info.id + 1;
        relation_names_[info.id] = info.name;
        relations_[info.name] = std::move(info);
        break;
      }
      case CatalogRowTag::kIndex: {
        IndexInfo info;
        uint8_t type;
        if (!r.GetString(&info.name) || !r.GetU32(&info.relation_id) ||
            !r.GetU32(&info.column) || !r.GetU8(&type) ||
            !r.GetU32(&info.segment)) {
          return Status::Corruption("truncated index row");
        }
        info.type = static_cast<IndexType>(type);
        info.row_addr = addr;
        NoteSegment(info.segment);
        indexes_[info.name] = std::move(info);
        break;
      }
      case CatalogRowTag::kDiskMapChunk: {
        MMDB_RETURN_IF_ERROR(disk_map->ApplyChunk(bytes));
        uint32_t chunk = 0;
        {
          wire::Reader rr(std::span<const uint8_t>(bytes).subspan(1));
          rr.GetU32(&chunk);
        }
        if (disk_map->chunk_row_addrs.size() <= chunk) {
          disk_map->chunk_row_addrs.resize(chunk + 1);
        }
        disk_map->chunk_row_addrs[chunk] = addr;
        break;
      }
      case CatalogRowTag::kPartition:
        break;  // pass 2
      default:
        return Status::Corruption("unknown catalog row tag");
    }
  }

  for (const auto& [_, rel] : relations_) {
    for (const std::string& iname : rel.index_names) {
      if (indexes_.count(iname) == 0) {
        return Status::Corruption("relation " + rel.name +
                                  " names unknown index " + iname);
      }
    }
  }

  // Pass 2: partition descriptor rows.
  for (const auto& [addr, bytes] : rows) {
    if (bytes.empty() ||
        static_cast<CatalogRowTag>(bytes[0]) != CatalogRowTag::kPartition) {
      continue;
    }
    wire::Reader r(std::span<const uint8_t>(bytes).subspan(1));
    uint32_t rel_id;
    uint8_t is_index;
    std::string owner;
    PartitionDescriptor d;
    if (!r.GetU32(&rel_id) || !r.GetU8(&is_index) || !r.GetString(&owner) ||
        !r.GetU32(&d.id.segment) || !r.GetU32(&d.id.number) ||
        !r.GetU64(&d.checkpoint_page) || !r.GetU64(&d.checkpoint_slot)) {
      return Status::Corruption("truncated partition row");
    }
    d.resident = false;  // residency is volatile; restart manager sets it
    d.row_addr = addr;
    if (is_index != 0) {
      auto it = indexes_.find(owner);
      if (it == indexes_.end()) {
        return Status::Corruption("partition row for unknown index " + owner);
      }
      it->second.partitions.push_back(d);
    } else {
      auto it = relations_.find(owner);
      if (it == relations_.end()) {
        return Status::Corruption("partition row for unknown relation " +
                                  owner);
      }
      it->second.partitions.push_back(d);
    }
  }

  // Keep descriptor lists ordered by partition number.
  auto sort_descriptors = [](std::vector<PartitionDescriptor>* v) {
    std::sort(v->begin(), v->end(),
              [](const PartitionDescriptor& a, const PartitionDescriptor& b) {
                return a.id < b.id;
              });
  };
  for (auto& [_, rel] : relations_) sort_descriptors(&rel.partitions);
  for (auto& [_, idx] : indexes_) sort_descriptors(&idx.partitions);
  return Status::OK();
}

}  // namespace mmdb
