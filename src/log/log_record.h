#ifndef MMDB_LOG_LOG_RECORD_H_
#define MMDB_LOG_LOG_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/addr.h"
#include "storage/partition.h"
#include "util/status.h"

namespace mmdb {

/// REDO/UNDO operations on a single partition.
///
/// The paper (§2.3.2): "A log record corresponds to an entity in a
/// partition: a relation tuple or an index structure component... Log
/// records have different formats depending on the type of database
/// entity... All log records have four main parts:
/// TAG | Bin Index | Tran Id | Operation."
///
/// A given log record always affects exactly one partition (§2.5.1).
enum class LogOp : uint8_t {
  /// Insert an entity image at a specific slot.
  kInsert = 1,
  /// Delete the entity at a slot.
  kDelete = 2,
  /// Replace the entity at a slot with a full post-image (also used for
  /// index structural changes: rotations, splits, pointer updates).
  kUpdate = 3,
  /// Insert one (key, addr) entry into the index node at a slot. This is
  /// the common small index log record (~paper's 8-24 byte records).
  kNodeInsertEntry = 4,
  /// Remove one (key, addr) entry from the index node at a slot.
  kNodeRemoveEntry = 5,
  /// Overwrite `data` at byte `offset` of the entity at a slot, keeping
  /// its length: a same-length update logs only the span from its first
  /// to its last changed byte.
  kPatch = 6,
};

/// One REDO (or, in the volatile UNDO space, UNDO) log record.
struct LogRecord {
  LogOp op = LogOp::kInsert;
  uint32_t bin_index = 0;  // direct index into the Stable Log Tail bin table
  uint64_t txn_id = 0;
  PartitionId partition;
  uint32_t slot = 0;
  // Payload for kInsert / kUpdate: the entity image; for kPatch: the
  // changed span, which starts `offset` bytes into the entity.
  std::vector<uint8_t> data;
  uint16_t offset = 0;
  // Payload for kNode*Entry: one index entry.
  int64_t key = 0;
  EntityAddr child;

  /// Commit-epoch stamp (partitioned-log mode, DatabaseOptions::
  /// log_streams > 1): the group-commit epoch the owning transaction
  /// committed in, and its global commit sequence number. Not part of the
  /// record itself: multi-stream log pages carry both in an
  /// [epoch | csn] varint frame before each record.
  uint32_t epoch = 0;
  uint64_t csn = 0;

  /// Exact on-wire size in bytes (header + payload), excluding any epoch
  /// frame.
  size_t SerializedSize() const;

  /// Writes the multi-stream epoch frame ([epoch | csn], two varints).
  void AppendEpochFrame(std::vector<uint8_t>* out) const;

  void AppendTo(std::vector<uint8_t>* out) const;

  /// Parses one record at the reader's cursor. A truncated record, a
  /// varint longer than 10 bytes, or a value too large for its field
  /// (u32 ids, u16 lengths and offsets) is Corruption.
  static Result<LogRecord> Parse(wire::Reader* r);

  std::string ToString() const;
};

/// Applies a single REDO (or UNDO) record to its partition. Records are
/// deterministic: applying the committed record sequence, in commit
/// order, to a transaction-consistent checkpoint image reproduces the
/// partition exactly. A kPatch that runs past its entity's end is
/// Corruption.
Status ApplyLogRecord(const LogRecord& rec, Partition* partition);

/// Builds the UNDO (inverse) record for a REDO record given the
/// pre-image state. `pre_image` is the entity's bytes before the change
/// (required for kUpdate, kPatch and kDelete; ignored otherwise). The
/// UNDO of a kPatch is a full-image kUpdate.
LogRecord MakeUndo(const LogRecord& redo, std::span<const uint8_t> pre_image);

}  // namespace mmdb

#endif  // MMDB_LOG_LOG_RECORD_H_
