#ifndef MMDB_TXN_UNDO_SPACE_H_
#define MMDB_TXN_UNDO_SPACE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "log/log_record.h"

namespace mmdb {

/// The volatile UNDO space (paper §2.3.1).
///
/// UNDO log records live in ordinary (volatile) memory, never in stable
/// memory: "UNDO log records are not kept in stable memory because they
/// are not needed after a transaction commits — the memory-resident
/// database system does not allow modified, uncommitted data to be
/// written to the stable disk database." Like the SLB, the space is
/// managed as fixed-size blocks dedicated to a single transaction, so no
/// synchronization hot spot exists; here we keep the records parsed and
/// model only the byte accounting.
///
/// The whole structure is destroyed by a crash, which is exactly correct:
/// after a crash, no uncommitted effects exist anywhere in stable storage,
/// so nothing needs undoing.
class UndoSpace {
 public:
  explicit UndoSpace(uint32_t block_bytes = 2048)
      : block_bytes_(block_bytes) {}

  /// Pushes an UNDO record for `txn_id` (called before or after the
  /// in-memory mutation; records are applied in reverse order on abort).
  void Push(uint64_t txn_id, LogRecord undo);

  /// Takes the transaction's UNDO records, most recent first (abort).
  std::vector<LogRecord> TakeReversed(uint64_t txn_id);

  /// Chain length for `txn_id` — a statement-rollback mark.
  size_t Depth(uint64_t txn_id) const;

  /// Takes the records pushed after `depth`, most recent first, leaving
  /// the first `depth` in place (statement-level rollback: the concurrent
  /// executor unwinds a blocked operation's partial effects while the
  /// transaction itself lives on to replay it).
  std::vector<LogRecord> TakeReversedFrom(uint64_t txn_id, size_t depth);

  /// The transaction's UNDO records in push order, or nullptr if it has
  /// none. Used at commit to enumerate the addresses this transaction
  /// wrote (the version store installs committed post-images for them)
  /// before the chain is discarded.
  const std::vector<LogRecord>* Peek(uint64_t txn_id) const {
    auto it = chains_.find(txn_id);
    return it == chains_.end() ? nullptr : &it->second;
  }

  /// Drops the transaction's UNDO records (commit).
  void Discard(uint64_t txn_id);

  uint64_t bytes_in_use() const { return bytes_in_use_; }
  uint64_t high_water_bytes() const { return high_water_bytes_; }

  /// Crash: everything volatile vanishes.
  void Clear() {
    chains_.clear();
    bytes_in_use_ = 0;
  }

 private:
  uint32_t block_bytes_;
  std::unordered_map<uint64_t, std::vector<LogRecord>> chains_;
  uint64_t bytes_in_use_ = 0;
  uint64_t high_water_bytes_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_TXN_UNDO_SPACE_H_
