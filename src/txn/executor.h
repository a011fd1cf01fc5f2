#ifndef MMDB_TXN_EXECUTOR_H_
#define MMDB_TXN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "util/status.h"

namespace mmdb {

/// One transaction operation: runs against the database inside the
/// transaction. An operation must be **replayable** — if it returns Busy
/// because a lock parked the transaction, its partial effects are rolled
/// back (statement-level) and the whole closure runs again after the
/// grant, so it must not carry side effects outside the database other
/// than idempotent writes to captured state.
using TxnOp = std::function<Status(Database&, Transaction*)>;

/// Per-script execution options.
struct ExecOptions {
  /// MVCC snapshot reader: the transaction begins with Database::Begin's
  /// read_only flag set, never touches the lock manager, and every op
  /// must be a pure read (writes fail with InvalidArgument).
  bool read_only = false;
};

/// A scripted transaction: Begin + ops in order + Commit, retried from
/// scratch (fresh transaction id) when it loses a deadlock.
struct TxnScript {
  std::string label;
  std::vector<TxnOp> ops;
  ExecOptions options;
};

enum class ScriptOutcome : uint8_t { kPending = 0, kCommitted = 1, kAborted = 2 };

struct ScriptResult {
  ScriptOutcome outcome = ScriptOutcome::kPending;
  /// Transaction id of the final attempt (0 before the script started).
  uint64_t txn_id = 0;
  uint64_t commit_ns = 0;
  uint32_t worker = 0;
  uint32_t deadlock_retries = 0;
  /// Lock waits this script sat through across all attempts. A read-only
  /// script must finish with 0 — that is the lock-free guarantee the
  /// read-mostly bench asserts.
  uint64_t waits = 0;
  /// The script's Commit returned the injected-crash fault: the classic
  /// in-doubt transaction (durable iff its SLB commit beat the crash).
  bool commit_faulted = false;
  /// Partitioned-log mode: the commit's group-commit stamp, sampled right
  /// after a successful Commit (zeros with a single log stream).
  uint32_t commit_epoch = 0;
  uint64_t commit_csn = 0;
  /// Non-deadlock failure that aborted the script (OK otherwise).
  Status error = Status::OK();
};

/// Concurrent transaction executor: N simulated main-CPU workers
/// (DatabaseOptions::txn_workers) interleaving scripted transactions at
/// operation granularity on the virtual clock.
///
/// Scheduling is discrete-event and fully deterministic: each worker is
/// a private sim::CpuModel timeline, and every step the runnable worker
/// with the smallest (busy-until, worker index) dispatches its next
/// operation. An operation that blocks on a lock is rolled back to its
/// operation mark (block-and-replay) and the worker parks until the
/// holder's release grants the lock, at which point the worker's
/// timeline jumps to the grant instant and the operation replays.
/// Deadlock victims chosen by the lock manager's wait-for-graph search
/// are aborted through the ordinary undo path and their scripts retried
/// with a fresh transaction id.
///
/// No host threads anywhere: same seed + same worker count -> identical
/// commit order, metrics, and trace, which is what the serializability/
/// determinism test layer asserts.
///
/// The loop can also interleave the heat-ordered background recovery
/// sweep (background_sweep=true, post-crash): the recovery-lane loop
/// (Database::LaneLoop) runs N lanes on the executor's event scheduler,
/// rebuilding non-resident partitions between transaction operations
/// and installing each at its virtual completion instant, with a
/// periodic maintenance tick pumping the sort process and checkpointer.
/// A background event runs before the next worker step only when it is
/// due strictly earlier, so transactions, recovery lanes, and the sweep
/// share one virtual timeline. The exception is the run's start: the
/// sweep lanes take their first partitions before any worker steps.
class ConcurrentExecutor {
 public:
  struct Options {
    /// A script that loses this many deadlocks is abandoned (kAborted).
    uint32_t max_deadlock_retries = 32;
    /// Interleave the heat-ordered background recovery sweep with
    /// transaction execution.
    bool background_sweep = false;
    /// Sweep recovery lanes; 0 = DatabaseOptions::recovery_parallelism.
    uint32_t sweep_lanes = 0;
  };

  explicit ConcurrentExecutor(Database* db) : ConcurrentExecutor(db, {}) {}
  ConcurrentExecutor(Database* db, Options opts);

  /// Enqueues a script. Scripts are admitted to workers in submission
  /// order as workers free up.
  void Submit(TxnScript script);

  /// Runs every submitted script to completion (committed or abandoned).
  /// Returns early with the failure on infrastructure errors and on
  /// injected faults (fault::Barrier crash latching) — in the fault case
  /// in-flight transactions are left as the crash would find them.
  Status Run();

  /// Committed transaction ids, in commit order.
  const std::vector<uint64_t>& commit_order() const { return commit_order_; }
  /// Per-script results, in submission order.
  const std::vector<ScriptResult>& results() const { return results_; }

  uint32_t workers() const { return static_cast<uint32_t>(lanes_.size()); }
  const sim::CpuModel& worker_cpu(uint32_t w) const { return *lanes_[w].cpu; }
  /// Virtual completion time: max worker busy-until across the run.
  uint64_t completion_ns() const;

  uint64_t waits() const { return waits_; }
  uint64_t deadlocks() const { return deadlocks_; }

  /// Loop statistics from the most recent Run(): worker steps plus
  /// background events run, and the background event heap's peak depth
  /// and SmallFn heap fallbacks.
  uint64_t scheduler_events_run() const { return sched_events_run_; }
  size_t scheduler_peak_depth() const { return sched_peak_depth_; }
  uint64_t scheduler_heap_fallbacks() const { return sched_heap_fallbacks_; }
  /// Partitions installed by the interleaved sweep, and the virtual time
  /// of the last install (proof the sweep overlapped the transactions).
  uint64_t sweep_recovered() const { return sweep_recovered_; }
  uint64_t last_sweep_install_ns() const { return last_sweep_install_ns_; }

 private:
  struct Lane {
    std::unique_ptr<sim::CpuModel> cpu;
    int script = -1;  // index into scripts_, -1 = free
    Transaction* txn = nullptr;
    size_t next_op = 0;
    bool blocked = false;
    // Phase-latency bookkeeping for the per-txn sketches. The queue-wait
    // fields cover the whole script (set once, at first admission); the
    // rest describe the current attempt and reset on deadlock retry.
    uint64_t attempt_begin_ns = 0;
    uint64_t queue_wait_ns = 0;
    bool queue_recorded = false;
    uint64_t lock_wait_ns = 0;
    uint64_t park_ns = 0;
  };

  /// Applies pending lock grants: unparks the granted transactions'
  /// workers at the grant instant.
  void DrainGrants();
  void UnblockTxn(uint64_t txn_id, uint64_t grant_ns);
  /// Admits pending scripts to free workers, submission order, lowest
  /// worker index first.
  void AdmitScripts();
  /// Dispatches one step (Begin+op, op, or Commit) of lane `li`'s script.
  Status DispatchOne(size_t li);
  /// The one abort path: aborts lane `li`'s transaction at `now_ns`.
  /// `error` OK means it lost a deadlock: the script retries, or ends
  /// kAborted past the retry budget; otherwise the script ends kAborted
  /// with `error`. Either way the lane is reset, and freed when its
  /// script ended.
  Status AbortAttempt(size_t li, uint64_t now_ns, Status error);
  /// Aborts parked deadlock victims at `now_ns` (AbortAttempt).
  Status AbortVictims(const std::vector<uint64_t>& victims, uint64_t now_ns);
  /// Resets lane state so the script retries from scratch.
  void ResetForRetry(Lane* lane);

  /// The runnable worker with the smallest (busy-until, index), or
  /// workers() when none is runnable.
  size_t NextWorker() const;
  /// Periodic sort-process + checkpointer pump (background_sweep only);
  /// stops rescheduling once no worker is runnable and no other
  /// background event is pending.
  void MaintenanceTick(uint64_t now_ns);

  /// Run() tail: per-worker busy accounting + the epoch fence.
  Status FinishRun();

  /// Records the committed/aborted transaction's phase breakdown into
  /// the txn.sketch.* percentile sketches.
  void RecordCommitSketches(const Lane& lane, uint64_t commit_end_ns,
                            uint64_t fence_ns);
  void RecordAbortSketch(const Lane& lane, uint64_t now_ns);

  Database* db_;
  Options opts_;
  std::vector<Lane> lanes_;
  std::vector<TxnScript> scripts_;
  std::vector<ScriptResult> results_;
  std::vector<uint64_t> submit_ns_;  // parallel to scripts_
  size_t admit_cursor_ = 0;
  /// Lanes with no script assigned — lets AdmitScripts skip its lane
  /// scan entirely in the steady state (every dispatch calls it).
  size_t free_lanes_ = 0;
  std::vector<uint64_t> commit_order_;
  uint64_t waits_ = 0;
  uint64_t deadlocks_ = 0;

  /// Background event heap, live only inside Run().
  sim::EventScheduler* sched_ = nullptr;
  uint64_t sweep_recovered_ = 0;
  uint64_t last_sweep_install_ns_ = 0;
  uint64_t sched_events_run_ = 0;
  size_t sched_peak_depth_ = 0;
  uint64_t sched_heap_fallbacks_ = 0;
  obs::Counter* m_waits_ = nullptr;
  obs::Counter* m_deadlocks_ = nullptr;
  obs::Histogram* m_worker_busy_ns_ = nullptr;
  obs::Counter* m_sched_events_ = nullptr;
  obs::Gauge* m_sched_peak_depth_ = nullptr;
  /// Per-txn latency percentiles (p50/p95/p99/p999), split by outcome
  /// and by phase: queue-wait (submit -> first admission), lock-wait
  /// (parked on grants, final attempt), execute (operation work),
  /// commit-fence (the Commit call itself, durability included).
  obs::LogSketch* s_commit_latency_ = nullptr;
  obs::LogSketch* s_abort_latency_ = nullptr;
  obs::LogSketch* s_queue_wait_ = nullptr;
  obs::LogSketch* s_lock_wait_ = nullptr;
  obs::LogSketch* s_execute_ = nullptr;
  obs::LogSketch* s_commit_fence_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_TXN_EXECUTOR_H_
