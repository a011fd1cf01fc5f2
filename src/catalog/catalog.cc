#include "catalog/catalog.h"

#include <algorithm>

#include "util/logging.h"

namespace mmdb {

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
  if (slots_.size() != total) slots_.assign(total, kFree);
  pages_per_slot_ = pps;
  head_ = head;
  uint64_t begin = static_cast<uint64_t>(chunk) * kChunkSlots;
  if (begin + count > total) return Status::Corruption("chunk out of range");
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

std::vector<const RelationInfo*> Catalog::AllRelations() const {
  std::vector<const RelationInfo*> out;
  for (const auto& [_, r] : relations_) out.push_back(&r);
  return out;
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

std::vector<IndexInfo*> Catalog::RelationIndexes(uint32_t relation_id) {
  std::vector<IndexInfo*> out;
  for (auto& [_, idx] : indexes_) {
    if (idx.relation_id == relation_id) out.push_back(&idx);
  }
  return out;
}

Result<PartitionDescriptor*> Catalog::FindDescriptor(PartitionId pid) {
  for (auto& [_, r] : relations_) {
    if (r.segment == pid.segment) {
      for (auto& d : r.partitions) {
        if (d.id == pid) return &d;
      }
      return Status::NotFound("no descriptor for " + pid.ToString());
    }
  }
  for (auto& [_, i] : indexes_) {
    if (i.segment == pid.segment) {
      for (auto& d : i.partitions) {
        if (d.id == pid) return &d;
      }
      return Status::NotFound("no descriptor for " + pid.ToString());
    }
  }
  return Status::NotFound("no object owns segment " +
                          std::to_string(pid.segment));
}

std::string Catalog::SegmentOwnerName(SegmentId segment) const {
  for (const auto& [name, r] : relations_) {
    if (r.segment == segment) return "relation " + name;
  }
  for (const auto& [name, i] : indexes_) {
    if (i.segment == segment) return "index " + name;
  }
  return "unknown segment " + std::to_string(segment);
}

Result<RelationInfo*> Catalog::RelationOfSegment(SegmentId segment) {
  for (auto& [_, r] : relations_) {
    if (r.segment == segment) return &r;
  }
  for (auto& [_, i] : indexes_) {
    if (i.segment == segment) return GetRelationById(i.relation_id);
  }
  return Status::NotFound("no relation owns segment " +
                          std::to_string(segment));
}

Result<IndexInfo*> Catalog::IndexOfSegment(SegmentId segment) {
  for (auto& [_, i] : indexes_) {
    if (i.segment == segment) return &i;
  }
  return Status::NotFound("no index owns segment " + std::to_string(segment));
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

std::vector<uint8_t> Catalog::SerializePartitionRow(
    uint32_t owner_relation_id, bool owner_is_index,
    const std::string& owner_name, const PartitionDescriptor& d) {
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(CatalogRowTag::kPartition));
  wire::PutU32(&out, owner_relation_id);
  wire::PutU8(&out, owner_is_index ? 1 : 0);
  wire::PutString(&out, owner_name);
  wire::PutU32(&out, d.id.segment);
  wire::PutU32(&out, d.id.number);
  wire::PutU64(&out, d.checkpoint_page);
  wire::PutU64(&out, d.checkpoint_slot);
  return out;
}

std::vector<uint8_t> Catalog::SerializeDiskMapRow(const DiskAllocationMap& m,
                                                  uint32_t chunk) {
  return m.SerializeChunk(chunk);
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
