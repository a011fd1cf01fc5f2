#ifndef MMDB_CATALOG_SCHEMA_H_
#define MMDB_CATALOG_SCHEMA_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Column types supported by relations. Long fields (voice/image data)
/// are out of scope, exactly as in the paper ("managed by a separate
/// mechanism not described here").
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kString = 1,
};

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt64;

  friend bool operator==(const Column&, const Column&) = default;
};

/// A single field value.
using Value = std::variant<int64_t, std::string>;

/// A materialized tuple (one Value per schema column).
using Tuple = std::vector<Value>;

/// The first byte of every stored relation row.
enum class RowKind : uint8_t {
  /// A tuple in its home slot, the address indexes and callers hold.
  kHome = 0,
  /// A home slot whose tuple has moved: a forwarding stub naming the slot
  /// of the moved row in another partition of the same relation.
  kStub = 1,
  /// A tuple moved out of its home slot, reached only through its stub.
  kMoved = 2,
};

/// Relation schema: an ordered list of typed, named columns, plus the
/// row wire format used inside partitions and log records.
///
/// Wire format: a u8 RowKind, then for kHome and kMoved rows, per
/// column, an int64 as a zigzag LEB128 varint and a string as a varint
/// length and its bytes; a kStub is the kind, the u32 partition number
/// and the u16 slot of its moved row (the segment is the relation's).
/// A row is zero-padded to kStubSize, so any home slot can take a stub
/// in place. The format is self-delimiting given the schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Validates that `tuple` matches the schema's arity and types.
  Status Validate(const Tuple& tuple) const;

  /// Encodes a tuple as a kHome row; the tuple layer turns the kind byte
  /// to kMoved for a row it writes away from home. Fails on schema
  /// mismatch.
  Result<std::vector<uint8_t>> Encode(const Tuple& tuple) const;

  /// Decodes a kHome or kMoved row. Fails with Corruption on malformed
  /// input: an unknown kind or a stub, a truncated or overlong varint, a
  /// string past the end, or trailing bytes other than zero padding up to
  /// kStubSize.
  Result<Tuple> Decode(std::span<const uint8_t> data) const;

  /// The shortest row: a stub's length.
  static constexpr size_t kStubSize = 1 + 4 + 2;
  /// The kind of a stored row; Corruption when it has none or an unknown
  /// one.
  static Result<RowKind> KindOf(std::span<const uint8_t> row);
  /// The stub naming `target`, whose segment is left out and whose slot
  /// must fit 16 bits.
  static std::vector<uint8_t> EncodeStub(const EntityAddr& target);
  /// The moved row a stub in `segment` names; Corruption unless `row` is
  /// a stub of exactly kStubSize bytes.
  static Result<EntityAddr> DecodeStub(std::span<const uint8_t> row,
                                       SegmentId segment);

  /// Serializes the schema itself (for catalog rows).
  std::vector<uint8_t> Serialize() const;
  static Result<Schema> Deserialize(std::span<const uint8_t> data,
                                    size_t* consumed);

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<Column> columns_;
};

/// Append helpers shared by catalog/log serialization code.
namespace wire {
void PutU8(std::vector<uint8_t>* out, uint8_t v);
void PutU16(std::vector<uint8_t>* out, uint16_t v);
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);
void PutI64(std::vector<uint8_t>* out, int64_t v);
void PutBytes(std::vector<uint8_t>* out, std::span<const uint8_t> v);
void PutString(std::vector<uint8_t>* out, const std::string& v);

/// Unsigned LEB128: seven bits per byte, least significant group first,
/// the high bit set on every byte but the last. 1 byte below 2^7, at
/// most 10 for a u64.
void PutVarint(std::vector<uint8_t>* out, uint64_t v);
/// Bytes PutVarint writes for `v`: one per started group of seven bits.
inline size_t VarintSize(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}
/// Zigzag maps signed to unsigned so small magnitudes stay short:
/// 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Cursor-style reader; every Get checks bounds and returns false on
/// truncation so decoders can surface Corruption.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}
  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetBytes(size_t n, std::span<const uint8_t>* v);
  bool GetString(std::string* v);
  /// Reads a PutVarint value. False when it is truncated, runs past 10
  /// bytes, or does not fit the destination's type.
  bool GetVarint(uint64_t* v);
  bool GetVarint(uint32_t* v);
  bool GetVarint(uint16_t* v);
  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};
}  // namespace wire

}  // namespace mmdb

#endif  // MMDB_CATALOG_SCHEMA_H_
