#ifndef MMDB_STORAGE_ENTITY_STORE_H_
#define MMDB_STORAGE_ENTITY_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/node_format.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Transactional access to entities (tuples, index components) inside
/// partitions.
///
/// This is the seam between the data structures (relations, T-Tree,
/// linear hash) and the recovery machinery: the Database's implementation
/// acquires two-phase locks, applies the mutation to the memory-resident
/// partition, appends the REDO record to the Stable Log Buffer and the
/// UNDO record to the volatile UNDO space. Index and relation code is
/// oblivious to logging. Tests use a plain unlogged implementation.
class EntityStore {
 public:
  virtual ~EntityStore() = default;

  /// Inserts a new entity somewhere in `segment`, allocating a new
  /// partition if no resident partition of the segment has room.
  virtual Result<EntityAddr> Insert(SegmentId segment,
                                    std::span<const uint8_t> data) = 0;

  /// Replaces an entity with a full post-image.
  virtual Status Update(const EntityAddr& addr,
                        std::span<const uint8_t> data) = 0;

  virtual Status Delete(const EntityAddr& addr) = 0;

  /// Reads an entity (copies: partition spans are invalidated by
  /// mutations).
  virtual Result<std::vector<uint8_t>> Read(const EntityAddr& addr) = 0;

  /// Small logged index operations (paper's typical 8-24 byte records):
  /// insert/remove a single (key, addr) entry in the index node at
  /// `addr`.
  virtual Status NodeInsertEntry(const EntityAddr& addr,
                                 const node::Entry& e) = 0;
  virtual Status NodeRemoveEntry(const EntityAddr& addr,
                                 const node::Entry& e) = 0;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_ENTITY_STORE_H_
