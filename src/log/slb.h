#ifndef MMDB_LOG_SLB_H_
#define MMDB_LOG_SLB_H_

#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "log/log_record.h"
#include "obs/metrics.h"
#include "sim/stable_memory.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// State of a partition checkpoint request in the SLB communication
/// buffer (paper §2.4: request -> in-progress -> finished).
enum class CheckpointState : uint8_t {
  kRequest = 0,
  kInProgress = 1,
  kFinished = 2,
};

/// Why a checkpoint was triggered (paper §2.3.3: update count vs age).
enum class CheckpointTrigger : uint8_t {
  kUpdateCount = 0,
  kAge = 1,
  kForced = 2,  // explicit/administrative (baseline full-database sweeps)
};

struct CheckpointRequest {
  PartitionId partition;
  CheckpointState state = CheckpointState::kRequest;
  CheckpointTrigger trigger = CheckpointTrigger::kUpdateCount;
};

/// The Stable Log Buffer (paper §2.2, §2.3.1).
///
/// A region of stable, reliable memory shared by the main CPU and the
/// recovery CPU. Transactions write REDO log records here so they can
/// commit instantly, without waiting for any disk I/O. It is managed as a
/// set of fixed-size blocks allocated to transactions on demand; each
/// block is dedicated to a single transaction for its lifetime, so
/// critical sections are needed only for block allocation and the
/// traditional log-tail hot spot disappears (§2.3.1).
///
/// Block chains live on one of two lists: the *uncommitted* list (still
/// running; discarded by a crash) or the *committed* list, kept in commit
/// order so the recovery CPU's sort process can consume records in the
/// order transactions committed.
///
/// The SLB also hosts the communication buffer between the two CPUs (the
/// checkpoint request queue) and one of the two stable copies of the
/// catalog root block (§2.5).
///
/// The object survives Database::Crash() by ownership: it lives in the
/// crash-surviving StableStore. `OnCrash()` applies the crash semantics
/// that *do* lose state: uncommitted chains are discarded (their
/// transactions never committed) and in-flight checkpoint requests are
/// dropped (their partitions' bins still hold all log information).
class StableLogBuffer {
 public:
  struct Config {
    uint32_t block_bytes = 2048;
    /// Stable-memory budget for SLB blocks.
    uint64_t capacity_bytes = 2 * 1024 * 1024;
  };

  StableLogBuffer(Config config, sim::StableMemoryMeter* meter)
      : config_(config), meter_(meter) {}

  StableLogBuffer(const StableLogBuffer&) = delete;
  StableLogBuffer& operator=(const StableLogBuffer&) = delete;

  const Config& config() const { return config_; }

  /// Registers the SLB's metric series (`slb.*`, each name followed by
  /// `suffix`): append counters plus occupancy (current gauge and
  /// per-append distribution), so buffer pressure between the main CPU
  /// and the sort process is visible.
  void AttachMetrics(obs::MetricsRegistry* reg, const std::string& suffix = "");

  /// Arms fault barriers at the SLB's stable-mutation entry points and a
  /// bit-flip hook on the catalog-root copy (device "slb.catalog_root").
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  // --- transaction-side (main CPU) ----------------------------------------

  /// Appends a REDO record to `txn_id`'s private chain, allocating blocks
  /// on demand. Returns Full if the stable-memory budget is exhausted
  /// (the caller should pump the recovery CPU's sort process and retry).
  Status Append(uint64_t txn_id, const LogRecord& rec);

  /// Moves the transaction's chain to the tail of the committed list.
  /// Commit is instantaneous: records are already in stable memory. In
  /// partitioned-log mode the chain is stamped with its group-commit
  /// epoch and commit sequence number (zero in single-stream mode).
  Status Commit(uint64_t txn_id, uint32_t epoch = 0, uint64_t csn = 0);

  /// Discards the transaction's chain (abort).
  Status Discard(uint64_t txn_id);

  /// Snapshot of a transaction's uncommitted chain, used by the
  /// concurrent executor for statement-level rollback: a blocked
  /// operation's partial appends are rewound while the transaction (and
  /// its earlier operations' records) live on.
  struct ChainMark {
    uint64_t records = 0;
    size_t blocks = 0;
    uint32_t last_used = 0;
  };
  ChainMark Mark(uint64_t txn_id) const;

  /// Rewinds `txn_id`'s uncommitted chain to `mark`: blocks allocated
  /// past the mark are released back to the stable-memory budget and the
  /// tail block's fill level is restored. Append counters stay monotonic
  /// (they count work performed, not work retained).
  void Rewind(uint64_t txn_id, const ChainMark& mark);

  // --- sort-side (recovery CPU) -------------------------------------------

  /// True when the next committed record (in commit order) is visible to
  /// the sort process. `max_epoch` bounds visibility in partitioned-log
  /// mode: chains stamped with a later epoch are not yet acknowledged as
  /// durable by every stream and must stay in the buffer (epochs are
  /// monotone along the committed list, so the bound is a prefix rule).
  bool HasCommittedRecords(uint32_t max_epoch = UINT32_MAX) const;

  /// Pops the next committed record, in commit order, subject to the
  /// same epoch bound. Frees fully consumed blocks back to the
  /// stable-memory budget. The record carries its chain's epoch/csn.
  Result<LogRecord> PopCommitted(uint32_t max_epoch = UINT32_MAX);

  /// Crash semantics for partitioned-log mode: committed chains stamped
  /// past the discard frontier (`epoch > frontier`) lose their committed
  /// status — the group-commit rule never acknowledged them. Their
  /// blocks are released.
  void DiscardCommittedAfter(uint32_t frontier);

  // --- communication buffer ------------------------------------------------

  /// Enqueues a checkpoint request unless one is already pending for the
  /// partition. Returns true if enqueued.
  bool RequestCheckpoint(PartitionId pid, CheckpointTrigger trigger);

  std::list<CheckpointRequest>& checkpoint_requests() { return requests_; }

  /// Removes finished requests for `pid`.
  void ClearFinished(PartitionId pid);

  // --- catalog root block (one of two stable copies) -----------------------

  void SetCatalogRoot(std::vector<uint8_t> root);
  const std::vector<uint8_t>& catalog_root() const { return catalog_root_; }

  /// High-water transaction id, persisted so restart never reuses ids.
  void NoteTxnId(uint64_t id) {
    if (id > max_txn_id_) max_txn_id_ = id;
  }
  uint64_t max_txn_id() const { return max_txn_id_; }

  // --- crash ---------------------------------------------------------------

  /// Applies crash semantics (see class comment). Stable contents —
  /// committed chains, the catalog root, the txn-id high-water mark —
  /// survive.
  void OnCrash();

  // --- statistics -----------------------------------------------------------

  uint64_t blocks_allocated() const { return blocks_allocated_; }
  uint64_t committed_backlog_records() const;
  /// Bytes currently held in SLB blocks (uncommitted + committed chains).
  uint64_t occupancy_bytes() const { return occupancy_bytes_; }

 private:
  struct Block {
    std::vector<uint8_t> buf;
    uint32_t used = 0;
  };
  struct Chain {
    uint64_t txn_id = 0;
    std::deque<Block> blocks;
    uint64_t records = 0;
    /// Group-commit stamp (partitioned-log mode; zero otherwise).
    uint32_t epoch = 0;
    uint64_t csn = 0;
  };

  Status AppendToChain(Chain* chain, const LogRecord& rec);
  void ReleaseChain(Chain* chain);
  void NoteOccupancy(int64_t delta_bytes);

  Config config_;
  sim::StableMemoryMeter* meter_;
  fault::FaultInjector* fault_ = nullptr;
  std::unordered_map<uint64_t, Chain> uncommitted_;
  std::deque<Chain> committed_;  // commit order
  size_t read_offset_ = 0;       // cursor into committed_.front()'s block 0

  std::list<CheckpointRequest> requests_;
  std::vector<uint8_t> catalog_root_;
  uint64_t max_txn_id_ = 0;
  /// Reused serialization scratch for AppendToChain (hot path: one append
  /// per log record; keeping the buffer avoids a per-record allocation).
  std::vector<uint8_t> append_scratch_;

  uint64_t blocks_allocated_ = 0;
  uint64_t occupancy_bytes_ = 0;

  // Optional registry series (null until AttachMetrics).
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_blocks_ = nullptr;
  obs::Gauge* m_occupancy_ = nullptr;
  obs::Histogram* m_occupancy_dist_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_LOG_SLB_H_
