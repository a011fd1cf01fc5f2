#ifndef MMDB_TXN_LOCK_MANAGER_H_
#define MMDB_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Lock modes. Relations take intention locks (IS/IX) from readers/
/// writers and a shared lock (S) from checkpoint transactions — the paper
/// (§2.4): "a single read lock on a relation is sufficient to ensure that
/// its relation and index partitions are all in a transaction consistent
/// state". Entities (tuples, index components) take S/X held until
/// commit (§2.3.2, two-phase locks per [Eswaran 76]).
enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kX = 3 };

/// What is being locked.
struct LockResource {
  enum class Kind : uint8_t { kRelation = 0, kEntity = 1 };

  Kind kind = Kind::kRelation;
  uint64_t hi = 0;  // relation id, or packed PartitionId
  uint64_t lo = 0;  // 0, or slot

  static LockResource Relation(uint32_t relation_id) {
    return LockResource{Kind::kRelation, relation_id, 0};
  }
  static LockResource Entity(const EntityAddr& a) {
    return LockResource{Kind::kEntity, a.partition.Pack(), a.slot};
  }

  friend bool operator==(const LockResource&, const LockResource&) = default;
};

struct LockResourceHash {
  size_t operator()(const LockResource& r) const noexcept {
    uint64_t h = r.hi * 0x9E3779B97F4A7C15ull ^ r.lo;
    return std::hash<uint64_t>{}(h ^ static_cast<uint64_t>(r.kind));
  }
};

/// Two-phase lock manager with two conflict policies:
///
///  * `Acquire` — *no-wait*: a conflicting request returns Busy and the
///    caller decides (retry later or abort). System, checkpoint, and
///    recovery transactions stay on this path: they hold locks briefly
///    and their callers know how to defer (the checkpointer re-queues a
///    relation whose S lock is busy).
///  * `AcquireOrWait` — *wait-queue*: a conflicting user request joins a
///    strict-FIFO queue on the resource and suspends until every
///    incompatible earlier holder and waiter is gone. Waiting forms a
///    wait-for graph; a request whose new edges close a cycle triggers
///    deadlock detection, and the youngest transaction on the cycle
///    (largest txn id — least work invested) is the victim, aborted
///    through the ordinary undo path by the executor.
///
/// Both policies run inside the single-threaded cooperative simulation:
/// queues are FIFO and the wait-for graph iterates waiters in txn-id
/// order, so a fixed seed + worker count replays identical grants,
/// waits, and victim choices. The paper's design is agnostic to the
/// waiting policy; the wait-queue path is what the concurrent executor
/// (src/txn/executor.h) drives user transactions through.
///
/// Lock upgrades (e.g. S -> X) succeed when the requester is the only
/// incompatible holder; S+IX held together escalate to X.
class LockManager {
 public:
  LockManager() = default;

  /// Outcome of a wait-queue acquisition attempt.
  enum class LockOutcome : uint8_t {
    kGranted,       // lock held; proceed
    kWaiting,       // enqueued; suspend until a release grants it
    kDeadlockSelf,  // requester is the youngest on the cycle it would
                    // close: not enqueued, caller aborts the requester
  };
  struct LockRequestResult {
    LockOutcome outcome = LockOutcome::kGranted;
    /// Suspended transactions that must be aborted to break wait-for
    /// cycles the new request closed (youngest member of each cycle).
    /// Only non-empty with kWaiting.
    std::vector<uint64_t> victims;
  };

  /// One granted acquisition, recorded when history is enabled. `seq` is
  /// the global grant order — the serializability oracle rebuilds the
  /// conflict graph from these events.
  struct LockEvent {
    uint64_t seq = 0;
    uint64_t txn_id = 0;
    LockResource res;
    LockMode mode = LockMode::kIS;
  };

  /// Registers the lock manager's metric series (`lock.*`). The lock
  /// table lives in volatile memory and is rebuilt empty after a crash,
  /// so these are volatile-scope: they reset with the state they measure.
  void AttachMetrics(obs::MetricsRegistry* reg) {
    m_acquisitions_ = reg->counter("lock.acquisitions", obs::Scope::kVolatile);
    m_conflicts_ = reg->counter("lock.conflicts", obs::Scope::kVolatile);
    m_waits_ = reg->counter("lock.waits", obs::Scope::kVolatile);
    m_deadlocks_ = reg->counter("lock.deadlocks", obs::Scope::kVolatile);
    m_wait_queue_depth_ =
        reg->gauge("lock.wait_queue_depth", obs::Scope::kVolatile);
  }

  /// Acquires (or upgrades to) `mode` on `res` for `txn_id`. No-wait.
  Status Acquire(uint64_t txn_id, const LockResource& res, LockMode mode);

  /// Wait-queue acquisition: grant, enqueue, or declare the requester a
  /// deadlock victim (see LockOutcome). A kWaiting requester stays
  /// registered until a release/cancel grants it or CancelWait removes
  /// it; the caller learns of the grant through ReleaseAll/CancelWait
  /// return values.
  LockRequestResult AcquireOrWait(uint64_t txn_id, const LockResource& res,
                                  LockMode mode);

  /// Releases everything `txn_id` holds (commit or abort: strict 2PL)
  /// and runs the grant pass on each freed resource. Returns the
  /// transactions whose pending request was granted, in grant order.
  std::vector<uint64_t> ReleaseAll(uint64_t txn_id);

  /// Removes `txn_id`'s pending wait (no-op when not waiting) and
  /// re-runs the grant pass on that queue — waiters behind the removed
  /// entry may become grantable. Returns newly granted transactions.
  std::vector<uint64_t> CancelWait(uint64_t txn_id);

  /// True if `txn_id` holds `res` in a mode at least as strong as `mode`.
  bool Holds(uint64_t txn_id, const LockResource& res, LockMode mode) const;
  bool IsWaiting(uint64_t txn_id) const { return waiting_.count(txn_id) > 0; }

  size_t held_count(uint64_t txn_id) const;
  size_t waiting_count() const { return waiting_.size(); }
  uint64_t conflicts() const { return conflicts_; }
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t waits() const { return waits_; }
  uint64_t deadlocks() const { return deadlocks_; }

  /// Mode tables, public for the serializability oracle in tests.
  static bool Compatible(LockMode a, LockMode b);
  static bool Covers(LockMode held, LockMode want);

  /// Grant history for the serializability oracle. An event is recorded
  /// for every *new* grant (immediate, upgrade, or queue grant); a
  /// request already covered by the held mode records nothing, so a
  /// replayed operation does not duplicate its events.
  void EnableHistory(bool on = true) { history_on_ = on; }
  const std::vector<LockEvent>& history() const { return history_; }

 private:
  struct Holder {
    uint64_t txn_id;
    LockMode mode;
  };
  struct Waiter {
    uint64_t txn_id;
    LockMode mode;  // requested mode; effective mode recomputed at grant
  };
  struct WaitInfo {
    LockResource res;
    LockMode mode;
  };

  /// Grantable right now given the other holders (handles upgrades:
  /// `txn_id` may already hold a weaker mode). Writes the effective mode
  /// (S+IX held together escalate to X) to `*effective`.
  bool CanGrant(uint64_t txn_id, const LockResource& res, LockMode mode,
                LockMode* effective) const;
  void Grant(uint64_t txn_id, const LockResource& res, LockMode effective);
  /// Strict-FIFO grant pass over `res`'s queue: grants the longest
  /// grantable prefix, stopping at the first waiter that still conflicts
  /// so later compatible requests cannot barge past it. Appends granted
  /// txn ids to `*granted`.
  void GrantPass(const LockResource& res, std::vector<uint64_t>* granted);
  /// Hunts wait-for cycles through `start`, appending the youngest
  /// member of each to `*victims` (treated as removed) until no cycle
  /// through `start` remains.
  void CollectVictims(uint64_t start, std::vector<uint64_t>* victims) const;
  /// Mirrors waiting_.size() into the wait-queue-depth gauge; call after
  /// every waiting_ mutation.
  void SyncWaitDepth() {
    if (m_wait_queue_depth_ != nullptr) {
      m_wait_queue_depth_->Set(static_cast<double>(waiting_.size()));
    }
  }

  std::unordered_map<LockResource, std::vector<Holder>, LockResourceHash>
      table_;
  std::unordered_map<LockResource, std::deque<Waiter>, LockResourceHash>
      queues_;
  std::unordered_map<uint64_t, std::vector<LockResource>> by_txn_;
  /// txn-id-ordered so wait-for-graph traversal is deterministic.
  std::map<uint64_t, WaitInfo> waiting_;
  uint64_t conflicts_ = 0;
  uint64_t acquisitions_ = 0;
  uint64_t waits_ = 0;
  uint64_t deadlocks_ = 0;
  bool history_on_ = false;
  uint64_t history_seq_ = 0;
  std::vector<LockEvent> history_;

  // Optional registry series (null until AttachMetrics).
  obs::Counter* m_conflicts_ = nullptr;
  obs::Counter* m_acquisitions_ = nullptr;
  obs::Counter* m_waits_ = nullptr;
  obs::Counter* m_deadlocks_ = nullptr;
  obs::Gauge* m_wait_queue_depth_ = nullptr;
};

using LockOutcome = LockManager::LockOutcome;
using LockRequestResult = LockManager::LockRequestResult;
using LockEvent = LockManager::LockEvent;

}  // namespace mmdb

#endif  // MMDB_TXN_LOCK_MANAGER_H_
