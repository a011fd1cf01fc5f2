#ifndef MMDB_TESTS_TEST_UTIL_H_
#define MMDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "log/log_record.h"
#include "storage/entity_store.h"
#include "storage/partition_manager.h"
#include "util/status.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    auto _st = (expr);                                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    auto _st = (expr);                                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define MMDB_TEST_CONCAT_INNER(a, b) a##b
#define MMDB_TEST_CONCAT(a, b) MMDB_TEST_CONCAT_INNER(a, b)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr) \
  ASSERT_OK_AND_ASSIGN_IMPL(MMDB_TEST_CONCAT(_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(result, lhs, rexpr)       \
  auto result = (rexpr);                                    \
  ASSERT_TRUE(result.ok()) << result.status().ToString();   \
  lhs = std::move(result).value()

namespace mmdb::testing {

/// Plain unlogged EntityStore over a PartitionManager, for index unit
/// tests that exercise data-structure behaviour without the database.
class PlainEntityStore : public EntityStore {
 public:
  explicit PlainEntityStore(uint32_t partition_bytes = 48 * 1024)
      : pm_(partition_bytes) {}

  SegmentId NewSegment() { return pm_.AllocateSegment(); }

  Result<EntityAddr> Insert(SegmentId segment,
                            std::span<const uint8_t> data) override {
    for (Partition* p : pm_.SegmentPartitions(segment)) {
      auto slot = p->Insert(data);
      if (slot.ok()) return EntityAddr{p->id(), slot.value()};
      if (!slot.status().IsFull()) return slot.status();
    }
    auto created = pm_.CreatePartition(segment, next_bin_++);
    if (!created.ok()) return created.status();
    auto slot = created.value()->Insert(data);
    if (!slot.ok()) return slot.status();
    return EntityAddr{created.value()->id(), slot.value()};
  }

  Status Update(const EntityAddr& addr,
                std::span<const uint8_t> data) override {
    auto p = pm_.Get(addr.partition);
    if (!p.ok()) return p.status();
    return p.value()->Update(addr.slot, data);
  }

  Status Delete(const EntityAddr& addr) override {
    auto p = pm_.Get(addr.partition);
    if (!p.ok()) return p.status();
    return p.value()->Delete(addr.slot);
  }

  Result<std::vector<uint8_t>> Read(const EntityAddr& addr) override {
    auto p = pm_.Get(addr.partition);
    if (!p.ok()) return p.status();
    auto bytes = p.value()->Read(addr.slot);
    if (!bytes.ok()) return bytes.status();
    return std::vector<uint8_t>(bytes.value().begin(), bytes.value().end());
  }

  Status NodeInsertEntry(const EntityAddr& addr,
                         const node::Entry& e) override {
    auto bytes = Read(addr);
    if (!bytes.ok()) return bytes.status();
    std::vector<uint8_t> b = std::move(bytes).value();
    MMDB_RETURN_IF_ERROR(node::InsertEntry(&b, e));
    return Update(addr, b);
  }

  Status NodeRemoveEntry(const EntityAddr& addr,
                         const node::Entry& e) override {
    auto bytes = Read(addr);
    if (!bytes.ok()) return bytes.status();
    std::vector<uint8_t> b = std::move(bytes).value();
    MMDB_RETURN_IF_ERROR(node::RemoveEntry(&b, e));
    return Update(addr, b);
  }

  PartitionManager& pm() { return pm_; }

 private:
  PartitionManager pm_;
  uint32_t next_bin_ = 0;
};

/// A PlainEntityStore that counts the entities read, inserted and updated
/// at each address.
class CountingStore : public PlainEntityStore {
 public:
  Result<EntityAddr> Insert(SegmentId segment,
                            std::span<const uint8_t> data) override {
    auto a = PlainEntityStore::Insert(segment, data);
    if (a.ok()) ++inserts[a.value()];
    return a;
  }
  Status Update(const EntityAddr& addr,
                std::span<const uint8_t> data) override {
    ++updates[addr];
    return PlainEntityStore::Update(addr, data);
  }
  Result<std::vector<uint8_t>> Read(const EntityAddr& addr) override {
    ++reads[addr];
    return PlainEntityStore::Read(addr);
  }

  std::map<EntityAddr, int> reads;
  std::map<EntityAddr, int> inserts;
  std::map<EntityAddr, int> updates;
};

inline std::vector<uint8_t> Bytes(std::initializer_list<int> xs) {
  std::vector<uint8_t> out;
  for (int x : xs) out.push_back(static_cast<uint8_t>(x));
  return out;
}

/// On-wire size of the `op` REDO record transaction `txn_id` logs against
/// `slot` of `p` with a `payload`-byte image or span: the record's varint
/// header depends on those ids.
inline size_t RedoSize(LogOp op, uint64_t txn_id, const Partition& p,
                       uint32_t slot, uint16_t offset, size_t payload) {
  LogRecord r;
  r.op = op;
  r.bin_index = p.bin_index();
  r.txn_id = txn_id;
  r.partition = p.id();
  r.slot = slot;
  r.offset = offset;
  r.data.resize(payload);
  return r.SerializedSize();
}

inline std::vector<uint8_t> FilledBytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

}  // namespace mmdb::testing

#endif  // MMDB_TESTS_TEST_UTIL_H_
