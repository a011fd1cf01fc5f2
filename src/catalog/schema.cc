#include "catalog/schema.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace mmdb {

namespace wire {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutBytes(std::vector<uint8_t>* out, std::span<const uint8_t> v) {
  out->insert(out->end(), v.begin(), v.end());
}

void PutString(std::vector<uint8_t>* out, const std::string& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->insert(out->end(), v.begin(), v.end());
}

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool Reader::GetU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = data_[pos_++];
  return true;
}

bool Reader::GetU16(uint16_t* v) {
  if (remaining() < 2) return false;
  *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return true;
}

bool Reader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = r;
  return true;
}

bool Reader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = r;
  return true;
}

bool Reader::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Reader::GetBytes(size_t n, std::span<const uint8_t>* v) {
  if (remaining() < n) return false;
  *v = data_.subspan(pos_, n);
  pos_ += n;
  return true;
}

bool Reader::GetString(std::string* v) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  if (remaining() < len) return false;
  v->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return true;
}

bool Reader::GetVarint(uint64_t* v) {
  uint64_t r = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (remaining() < 1) return false;
    const uint8_t b = data_[pos_++];
    // The tenth byte holds bit 63 alone.
    if (shift == 63 && b > 1) return false;
    r |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *v = r;
      return true;
    }
  }
  return false;
}

bool Reader::GetVarint(uint32_t* v) {
  uint64_t r;
  if (!GetVarint(&r) || r > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(r);
  return true;
}

bool Reader::GetVarint(uint16_t* v) {
  uint64_t r;
  if (!GetVarint(&r) || r > UINT16_MAX) return false;
  *v = static_cast<uint16_t>(r);
  return true;
}

}  // namespace wire

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::Validate(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    bool want_int = columns_[i].type == ColumnType::kInt64;
    bool is_int = std::holds_alternative<int64_t>(tuple[i]);
    if (want_int != is_int) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> Schema::Encode(const Tuple& tuple) const {
  MMDB_RETURN_IF_ERROR(Validate(tuple));
  std::vector<uint8_t> out;
  wire::PutU8(&out, static_cast<uint8_t>(RowKind::kHome));
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == ColumnType::kInt64) {
      wire::PutVarint(&out, wire::ZigZag(std::get<int64_t>(tuple[i])));
    } else {
      const std::string& v = std::get<std::string>(tuple[i]);
      wire::PutVarint(&out, v.size());
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  if (out.size() < kStubSize) out.resize(kStubSize, 0);
  return out;
}

Result<Tuple> Schema::Decode(std::span<const uint8_t> data) const {
  auto kind = KindOf(data);
  if (!kind.ok()) return kind.status();
  if (kind.value() == RowKind::kStub) {
    return Status::Corruption("a stub holds no tuple");
  }
  wire::Reader r(data.subspan(1));
  Tuple tuple;
  tuple.reserve(columns_.size());
  for (const Column& c : columns_) {
    if (c.type == ColumnType::kInt64) {
      uint64_t v;
      if (!r.GetVarint(&v)) {
        return Status::Corruption("truncated or overlong int64 field");
      }
      tuple.emplace_back(wire::UnZigZag(v));
    } else {
      uint32_t len;
      std::span<const uint8_t> v;
      if (!r.GetVarint(&len) || !r.GetBytes(len, &v)) {
        return Status::Corruption("truncated string field");
      }
      tuple.emplace_back(std::string(v.begin(), v.end()));
    }
  }
  // Past the last field only the zero padding up to a stub's length.
  const size_t end = 1 + r.pos();
  if (data.size() != std::max(end, kStubSize) ||
      std::any_of(data.begin() + static_cast<ptrdiff_t>(end), data.end(),
                  [](uint8_t b) { return b != 0; })) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return tuple;
}

Result<RowKind> Schema::KindOf(std::span<const uint8_t> row) {
  if (row.size() < kStubSize) {
    return Status::Corruption("row shorter than a stub");
  }
  if (row[0] > static_cast<uint8_t>(RowKind::kMoved)) {
    return Status::Corruption("unknown row kind");
  }
  return static_cast<RowKind>(row[0]);
}

std::vector<uint8_t> Schema::EncodeStub(const EntityAddr& target) {
  MMDB_CHECK(target.slot <= UINT16_MAX);
  std::vector<uint8_t> out;
  out.reserve(kStubSize);
  wire::PutU8(&out, static_cast<uint8_t>(RowKind::kStub));
  wire::PutU32(&out, target.partition.number);
  wire::PutU16(&out, static_cast<uint16_t>(target.slot));
  return out;
}

Result<EntityAddr> Schema::DecodeStub(std::span<const uint8_t> row,
                                      SegmentId segment) {
  wire::Reader r(row);
  uint8_t kind;
  EntityAddr target;
  target.partition.segment = segment;
  uint16_t slot;
  if (row.size() != kStubSize || !r.GetU8(&kind) ||
      kind != static_cast<uint8_t>(RowKind::kStub) ||
      !r.GetU32(&target.partition.number) || !r.GetU16(&slot)) {
    return Status::Corruption("malformed stub");
  }
  target.slot = slot;
  return target;
}

std::vector<uint8_t> Schema::Serialize() const {
  std::vector<uint8_t> out;
  wire::PutU32(&out, static_cast<uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    wire::PutString(&out, c.name);
    wire::PutU8(&out, static_cast<uint8_t>(c.type));
  }
  return out;
}

Result<Schema> Schema::Deserialize(std::span<const uint8_t> data,
                                   size_t* consumed) {
  wire::Reader r(data);
  uint32_t n;
  if (!r.GetU32(&n)) return Status::Corruption("truncated schema");
  if (n > 4096) return Status::Corruption("implausible column count");
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    uint8_t type;
    if (!r.GetString(&c.name) || !r.GetU8(&type)) {
      return Status::Corruption("truncated schema column");
    }
    if (type > 1) return Status::Corruption("unknown column type");
    c.type = static_cast<ColumnType>(type);
    cols.push_back(std::move(c));
  }
  if (consumed != nullptr) *consumed = r.pos();
  return Schema(std::move(cols));
}

}  // namespace mmdb
