#ifndef MMDB_CORE_DATABASE_H_
#define MMDB_CORE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "core/log_streams.h"
#include "core/version_store.h"
#include "fault/fault.h"
#include "index/linear_hash.h"
#include "index/ttree.h"
#include "log/audit_log.h"
#include "log/log_disk.h"
#include "log/slb.h"
#include "log/slt.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "recovery/archive.h"
#include "recovery/progress.h"
#include "recovery/resilver.h"
#include "sim/clock.h"
#include "sim/cpu.h"
#include "sim/disk.h"
#include "sim/scheduler.h"
#include "sim/stable_memory.h"
#include "storage/entity_store.h"
#include "storage/partition_manager.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "txn/undo_space.h"
#include "util/status.h"

namespace mmdb {

/// Commit durability strategy. The paper's design commits *instantly*
/// because REDO records are already in stable memory (§2.3.1); the other
/// two modes are comparison baselines from the paper's survey (§1.1-1.2).
enum class CommitMode : uint8_t {
  /// Stable Log Buffer: transactions "commit instantly — they do not
  /// need to wait until the REDO log records are flushed to disk."
  kStableMemory = 0,
  /// Disk-resident WAL: every commit forces the transaction's log to the
  /// log disk and waits (classic write-ahead logging without a stable
  /// buffer).
  kDiskForce = 1,
  /// IMS FASTPATH-style group commit: a committing transaction
  /// *precommits* (its locks are released, its log is still in volatile
  /// buffer), and officially commits when the accumulated group is
  /// flushed.
  kGroupCommit = 2,
};

/// Post-crash recovery policy (paper §2.5, §3.4).
enum class RestartPolicy : uint8_t {
  /// Partition-level: catalogs first, then partitions on demand as
  /// transactions reference them, remainder in the background. The
  /// paper's proposal.
  kOnDemand = 0,
  /// Database-level recovery (the §3.4 comparison baseline): the entire
  /// database is reloaded and all log applied before the first
  /// transaction can run — "a special case of partition-level recovery,
  /// with one very large partition".
  kFullReload = 1,
};

struct DatabaseOptions {
  uint32_t partition_size_bytes = 48 * 1024;
  uint32_t log_page_bytes = 8 * 1024;
  uint32_t slb_block_bytes = 2048;
  uint64_t slb_capacity_bytes = 2 * 1024 * 1024;
  /// Total stable reliable memory (SLB blocks + SLT info blocks and
  /// active pages). Paper: "a few megabytes".
  uint64_t stable_memory_bytes = 16ull * 1024 * 1024;
  /// Log Page Directory entries per bin (Table 2 environs: median pages
  /// per active partition).
  uint32_t directory_entries = 8;
  /// Log window size in pages; small windows force age checkpoints.
  uint64_t log_window_pages = 1ull << 30;
  uint64_t grace_pages = 64;
  /// Update-count checkpoint threshold (Table 2's N_update).
  uint64_t n_update = 1000;
  /// Checkpoint-disk capacity in partition-sized slots.
  uint64_t checkpoint_disk_slots = 8192;

  sim::DiskParams log_disk_params;
  sim::DiskParams checkpoint_disk_params;
  double main_cpu_mips = 6.0;
  double recovery_cpu_mips = 1.0;
  /// Instruction-count model (Table 2) charged to the recovery CPU.
  analysis::Table2 costs;

  /// Main-CPU instruction estimates (not part of the paper's analysis;
  /// used only so the main CPU has a sensible timeline).
  double dml_instructions = 300.0;
  double lock_instructions = 25.0;
  double apply_instructions_per_record = 50.0;

  /// Post-crash recovery lanes: up to this many partitions are rebuilt
  /// concurrently, one per lane, with contention on the checkpoint disk
  /// and the log disks serialized by the devices' own queues. Restart()
  /// phase 1 (catalogs), the kFullReload restart, RecoverRelation,
  /// BackgroundRecoveryStep (one batch of this many per call) and, by
  /// default, the executor's interleaved sweep run this many lanes; an
  /// on-demand fault rebuilds its one partition on one lane, except on an
  /// index, whose non-resident partitions are all rebuilt in the fault's
  /// batch on these lanes.
  uint32_t recovery_parallelism = 1;
  /// Overlap each partition's rebuild on the virtual timeline (§2.5.1
  /// "overlapped with apply"): the backward anchor walk starts with the
  /// checkpoint-image read, and records apply page by page as the log
  /// arrives. False is the no-overlap ablation of the same pipeline: the
  /// walk waits for the image and the apply waits for the last log read.
  bool pipelined_recovery = true;

  RestartPolicy restart_policy = RestartPolicy::kOnDemand;
  CommitMode commit_mode = CommitMode::kStableMemory;
  /// Group-commit batch size (transactions per forced flush).
  uint32_t group_commit_txns = 8;
  /// Audit trail logging (paper §2.3.2; stable memory, DeWitt-style).
  bool audit_logging = true;
  uint64_t audit_buffer_bytes = 64 * 1024;
  /// Pump the recovery CPU's sort process automatically after each user
  /// commit (models the parallel recovery CPU).
  bool auto_pump_recovery = true;
  /// Run pending checkpoint transactions between user transactions
  /// (paper §2.4 step 2).
  bool auto_run_checkpoints = true;
  /// Simulated main-CPU transaction workers for the concurrent executor
  /// (src/txn/executor.h): N in-flight user transactions interleave at
  /// operation granularity on the virtual clock, contending on locks and
  /// the SLB allocation gate. 1 models the legacy single-stream main CPU.
  /// The Database itself stays single-threaded either way — workers are
  /// cooperative timelines, never host threads.
  uint32_t txn_workers = 1;

  /// Record Chrome trace_event spans (transactions, log flushes,
  /// checkpoints, crash/restart) on the virtual clock. Off by default:
  /// a disabled tracer costs one branch per site and never perturbs
  /// virtual time either way.
  bool enable_tracing = false;

  /// Window width of the built-in time series (txn.commit_rate /
  /// txn.abort_rate counter curves, recovery.ready_fraction gauge
  /// curve). 1 virtual ms by default — the bucket granularity of the
  /// throughput-over-time recovery curves.
  uint64_t telemetry_bucket_ns = 1'000'000;

  uint16_t ttree_node_capacity = TTree::kDefaultNodeCapacity;
  uint32_t hash_initial_buckets = 8;
  uint16_t hash_node_capacity = LinearHash::kDefaultNodeCapacity;

  /// Partitioned parallel logging: number of independent log streams,
  /// each with its own SLB block pool, SLT bin table, duplexed log-disk
  /// pair, sort process, and block-allocation gate. Executor-bound user
  /// transactions are routed to stream (worker % log_streams); everything
  /// else uses stream 0. Commit durability across streams is coordinated
  /// by epoch group commit (see epoch_interval_ns). 1 (the default) is
  /// the paper's single-stream design and stays byte- and
  /// timing-identical to the legacy path. 0 reads as 1.
  uint32_t log_streams = 1;
  /// Group-commit epoch length in virtual ns (log_streams > 1 only):
  /// each commit is stamped with epoch max(vnow / interval + 1, last
  /// stamped) and becomes externally durable only once every stream has
  /// written its epoch flush marker at or past that epoch.
  uint64_t epoch_interval_ns = 100'000;

  /// Largest partition: a partition's slot numbers must fit the 16-bit
  /// slot of an index ref (index/node_format.h), and each slot takes 8
  /// bytes of its directory.
  static constexpr uint32_t kMaxPartitionBytes = 512 * 1024;

  /// OK, or InvalidArgument naming the first field the Database cannot
  /// run with. The Database constructor checks it.
  Status Validate() const;
};

/// Aggregated counters for benches and tests.
struct DatabaseStats {
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t records_logged = 0;
  uint64_t bytes_logged = 0;
  uint64_t records_sorted = 0;
  uint64_t log_pages_flushed = 0;
  uint64_t checkpoints_completed = 0;
  uint64_t checkpoints_update_count = 0;
  uint64_t checkpoints_age = 0;
  uint64_t partitions_resident = 0;
  uint64_t on_demand_recoveries = 0;
  uint64_t background_recoveries = 0;
  double main_cpu_instructions = 0;
  double recovery_cpu_instructions = 0;
  uint64_t stable_memory_high_water = 0;
  uint64_t lock_conflicts = 0;
  /// Commit-mode accounting: forced log flushes and total/average commit
  /// wait in virtual milliseconds (zero under kStableMemory).
  uint64_t log_forces = 0;
  double commit_wait_ms_total = 0;
  uint64_t commits_waited = 0;
};

/// Timings of the most recent Restart() (virtual milliseconds).
struct RestartReport {
  double catalog_ms = 0;            // time until catalogs usable
  double total_ms = 0;              // time until Restart() returned
  uint64_t catalog_partitions = 0;
  uint64_t partitions_recovered = 0;  // during Restart itself
  uint64_t log_pages_read = 0;
  uint64_t records_applied = 0;
  /// Partitioned-log mode: the epoch frontier the restart recovered to —
  /// min over streams of the last epoch whose flush marker that stream
  /// persisted before the crash. Committed transactions stamped past the
  /// frontier were discarded on every stream (the cross-stream discard
  /// invariant). UINT32_MAX with a single stream (no epoch gating).
  uint32_t epoch_frontier = UINT32_MAX;
};

/// The memory-resident database system with the paper's recovery
/// architecture.
///
/// Volatile state (the primary memory copy of the database, lock tables,
/// UNDO space) is destroyed by Crash(); the stable store (Stable Log
/// Buffer, Stable Log Tail, log/checkpoint/archive disks) survives and is
/// the source for Restart().
///
/// Single-threaded cooperative simulation: the "recovery CPU" runs when
/// pumped (automatically after commits by default), with its work
/// accounted on its own private timeline so the two processors remain
/// logically parallel.
class Database {
 public:
  explicit Database(DatabaseOptions opts = DatabaseOptions());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseOptions& options() const { return opts_; }

  // --- DDL ------------------------------------------------------------------
  Status CreateRelation(const std::string& name, Schema schema);
  Status CreateIndex(const std::string& index_name,
                     const std::string& relation_name,
                     const std::string& column_name, IndexType type);
  /// Drops an index: its catalog rows are deleted transactionally, its
  /// checkpoint-disk slots freed, its partitions and Stable Log Tail
  /// bins released. DDL is auto-committed (not undone by user aborts).
  Status DropIndex(const std::string& index_name);
  /// Drops a relation and all of its indexes.
  Status DropRelation(const std::string& relation_name);

  // --- transactions -----------------------------------------------------------
  /// Begins a transaction. The pointer is owned by the database and is
  /// invalidated by Commit/Abort. `user_data` (e.g. the initiating
  /// message) goes to the audit trail log.
  /// `read_only` (user transactions only) declares an MVCC snapshot
  /// reader: it captures the newest commit stamp as its snapshot, never
  /// touches the lock manager, and rejects writes.
  Result<Transaction*> Begin(TxnKind kind = TxnKind::kUser,
                             const std::string& user_data = "",
                             bool read_only = false);
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Runs one version-reclamation pass: drops versions older than the
  /// oldest live snapshot (all of them when no snapshot is live). Pure
  /// bookkeeping — no virtual time, no log or disk traffic — so the
  /// maintenance loop may call it anywhere. Idempotent; returns the
  /// number of versions reclaimed.
  uint64_t PruneVersions();
  /// Versions currently held by the MVCC store (mvcc.versions_live).
  size_t mvcc_versions_live() const;

  // --- DML ------------------------------------------------------------------
  Result<EntityAddr> Insert(Transaction* txn, const std::string& relation,
                            const Tuple& tuple);
  Status Update(Transaction* txn, const std::string& relation,
                const EntityAddr& addr, const Tuple& tuple);
  Status Delete(Transaction* txn, const std::string& relation,
                const EntityAddr& addr);
  Result<Tuple> Read(Transaction* txn, const std::string& relation,
                     const EntityAddr& addr);
  Result<std::vector<EntityAddr>> IndexLookup(Transaction* txn,
                                              const std::string& index_name,
                                              int64_t key);
  Result<std::vector<node::Entry>> IndexRange(Transaction* txn,
                                              const std::string& index_name,
                                              int64_t lo, int64_t hi);
  Result<std::vector<std::pair<EntityAddr, Tuple>>> Scan(
      Transaction* txn, const std::string& relation);

  // --- recovery control -------------------------------------------------------
  /// Lets the recovery CPU sort up to `max_records` committed records
  /// (per stream in partitioned-log mode, after fencing epochs).
  Status PumpRecovery(uint64_t max_records = ~0ull) {
    return log_->Drain(clock_.now_ns(), max_records);
  }
  /// Partitioned-log mode: writes every stream's epoch flush marker so
  /// all epochs stamped so far become externally durable (the group-
  /// commit fence). A crash between the per-stream markers leaves the
  /// fenced epoch acknowledged on some streams only — restart discards
  /// it everywhere. No-op with a single stream.
  Status FenceEpochs() { return log_->Fence(); }
  /// Group-commit stamp of the most recent commit (partitioned-log mode;
  /// zero with a single stream). The concurrent executor samples these
  /// right after each successful Commit.
  uint32_t last_commit_epoch() const { return log_->last_commit().epoch; }
  uint64_t last_commit_csn() const { return log_->last_commit().csn; }
  uint32_t log_streams() const { return log_->size(); }
  /// Main CPU processes pending checkpoint requests (between
  /// transactions).
  Status RunCheckpoints();
  /// Forces checkpoints of every partition of a relation and its indexes.
  Status ForceCheckpointRelation(const std::string& relation);
  /// Baseline sweep: checkpoint every partition in the database
  /// (including catalog partitions).
  Status CheckpointEverything();

  /// Simulated crash: power loss / wild CPU. All volatile state is lost.
  void Crash();
  /// Post-crash restart: restores catalogs (and, under kFullReload,
  /// everything) before returning. Under kOnDemand, data partitions are
  /// restored lazily by DML or explicitly below.
  Status Restart();
  /// Predeclared recovery (paper §2.5 method 1): restore a relation and
  /// its indexes in their entirety.
  Status RecoverRelation(const std::string& relation);
  /// Recovers one more batch of partitions off the heat-ordered sweep
  /// queue (low-priority background recovery, §2.5; batch size =
  /// recovery_parallelism). Sets *done when nothing is left to recover.
  Status BackgroundRecoveryStep(bool* done);
  bool FullyResident();
  bool IsRelationResident(const std::string& relation);

  // --- partition rebuild pipeline (parallel_recovery.cc) ---------------------
  /// Pops the next non-resident partition off the heat-ordered sweep
  /// queue (hottest first; see EnsureSweepQueue). Returns false when
  /// nothing is left to sweep. Shared by BackgroundRecoveryStep, the
  /// kFullReload restart and the executor's sweep lanes, so no two of
  /// them rebuild the same partition.
  bool NextSweepItem(PartitionId* pid);

  /// A recovery lane: the CPU timeline its rebuilds' record applies
  /// occupy, and the trace track their spans land on.
  struct RecoveryLane {
    explicit RecoveryLane(uint32_t i)
        : index(i), cpu("recovery-lane-" + std::to_string(i)) {}
    uint32_t index;
    sim::DeviceTimeline cpu;
  };
  /// Which member of each duplexed log pair serves a rebuild's reads.
  enum class LogReads : uint8_t {
    /// Whichever member is free sooner: for rebuilds a caller waits on.
    kFanned,
    /// The primary only: rebuilds beside live commits leave the mirror
    /// to the log writer's duplexed writes.
    kPrimary,
  };
  /// A partition rebuilt off to the side, not yet installed.
  struct RebuiltPartition {
    std::unique_ptr<Partition> part;
    uint32_t lane = 0;
    uint64_t start_ns = 0;    // the rebuild's ready time
    uint64_t done_ns = 0;     // image, log reads and applies all complete
    uint64_t pages_read = 0;  // forward log-page reads, every stream
    uint64_t records_applied = 0;
  };
  /// Rebuilds partition `pid` (§2.5, §2.5.1): reads the checkpoint image
  /// its descriptor names, walks and reads its log chain on every stream
  /// (several streams merge by (epoch, csn)), and applies the records in
  /// per-page chunks on `lane`'s CPU. Time-functional: device time starts
  /// at `ready_ns`, nothing is installed and the global clock does not
  /// move; LaneLoop drives it.
  Result<RebuiltPartition> RebuildPartition(PartitionId pid, uint64_t ready_ns,
                                            RecoveryLane* lane, LogReads reads);
  /// Installs a rebuilt partition at its completion time, marks its
  /// descriptor resident and records the progress, metrics and lane span
  /// for `source`. Returns false — dropping the copy — when an on-demand
  /// fault made the partition resident or DDL dropped it while the
  /// rebuild was in flight; `recovery.stale_rebuilds` counts those.
  Result<bool> Install(RebuiltPartition rebuilt, RecoverySource source);

  /// The recovery-lane loop, the one scheduler of partition rebuilds.
  /// Start puts N lanes on the caller's event scheduler. Each lane takes
  /// the next partition from the loop's work source, rebuilds it at its
  /// ready time (RebuildPartition), installs it as an event at the
  /// rebuild's completion (Install) and takes the next one; a lane whose
  /// source is dry drains, and a failed rebuild or install fails the
  /// scheduler. RecoverPartitionsParallel runs it over a list; the
  /// concurrent executor runs it over the sweep queue between
  /// transaction operations.
  class LaneLoop {
   public:
    /// Lanes over `work` in order (it must outlive the loop), or over the
    /// heat-ordered sweep queue (NextSweepItem) when `work` is null.
    LaneLoop(Database* db, sim::EventScheduler* sched,
             const std::vector<PartitionId>* work, LogReads reads,
             RecoverySource source)
        : db_(db), sched_(sched), work_(work), reads_(reads), source_(source) {}
    LaneLoop(const LaneLoop&) = delete;
    LaneLoop& operator=(const LaneLoop&) = delete;

    /// Starts `lanes` lanes at `t0`; call once.
    void Start(uint32_t lanes, uint64_t t0);

    /// Hands over the copy of `pid` a lane is rebuilding, if any, into
    /// `*out`. That lane's install then finds its slot empty and the lane
    /// pulls its next partition at the copy's completion, as it would
    /// have.
    bool TakeInFlight(PartitionId pid, RebuiltPartition* out);

    const std::vector<RecoveryLane>& lanes() const { return lanes_; }
    /// Log pages read and records applied by every rebuild so far,
    /// dropped stale copies included.
    uint64_t pages_read() const { return pages_read_; }
    uint64_t records_applied() const { return records_applied_; }
    /// Partitions installed, and the virtual time of the last install.
    uint64_t installed() const { return installed_; }
    uint64_t last_install_ns() const { return last_install_ns_; }

   private:
    /// Lane `lane` takes its next partition at `now_ns` and rebuilds it.
    void Pull(uint32_t lane, uint64_t now_ns);
    /// Lane `lane`'s rebuild completes: install it, then pull the next.
    void Land(uint32_t lane, uint64_t now_ns);

    Database* db_;
    sim::EventScheduler* sched_;
    const std::vector<PartitionId>* work_;
    size_t next_ = 0;  // into *work_
    LogReads reads_;
    RecoverySource source_;
    std::vector<RecoveryLane> lanes_;
    /// Per lane: the rebuilt copy awaiting its install (null part when
    /// the lane has none, or a fault took it).
    std::vector<RebuiltPartition> in_flight_;
    uint64_t pages_read_ = 0;
    uint64_t records_applied_ = 0;
    uint64_t installed_ = 0;
    uint64_t last_install_ns_ = 0;
  };

  /// The concurrent executor's sweep loop while its Run is active (null
  /// to detach). An on-demand fault adopts the copies this loop's lanes
  /// have in flight instead of rebuilding those partitions again.
  void AttachSweep(LaneLoop* sweep) { sweep_ = sweep; }

  // --- media failure ----------------------------------------------------------
  /// Simulates a checkpoint-disk media failure and recovers it from the
  /// archive (paper §2.6). The memory copy is unaffected.
  Status FailAndRecoverCheckpointDisk();

  /// Begins re-silvering log-disk member `member` (0 = primary, 1 =
  /// mirror) from its healthy mirror. Repairs the member's media first if
  /// needed; the copy then proceeds in background quanta via
  /// ResilverStep.
  Status StartLogDiskResilver(int member);
  /// Copies one quantum of the active re-silver; sets *done when the
  /// member is fully rebuilt.
  Status ResilverStep(bool* done);
  /// Runs the active re-silver to completion.
  Status ResilverToCompletion();
  Resilverer& resilverer() { return *resilver_; }

  // --- fault injection --------------------------------------------------------
  /// Arms a deterministic fault plan across the injection sites
  /// (disk.write, disk.read, stable_mem.access, slb.flush,
  /// checkpoint.track_write, restart.apply). Hooks are single-branch
  /// no-ops when disarmed and never perturb virtual time, so an unarmed
  /// database behaves byte- and timing-identically to one built before
  /// the fault layer existed.
  void ArmFaultPlan(const fault::FaultPlan& plan) { fault_->Arm(plan); }
  void DisarmFaults() { fault_->Disarm(); }
  fault::FaultInjector& fault_injector() { return *fault_; }

  // --- concurrent execution ---------------------------------------------------
  /// Per-worker execution context, bound by the concurrent executor for
  /// the duration of one dispatched transaction operation. While bound,
  /// main-CPU work is charged to `cpu` (the worker's private timeline)
  /// instead of advancing the global clock, and a user lock conflict
  /// parks the transaction instead of failing: the operation unwinds
  /// with Busy, `blocked` is set, and any deadlock victims chosen by the
  /// wait-for-graph search are reported for the executor to abort.
  struct ExecContext {
    sim::CpuModel* cpu = nullptr;
    uint32_t worker = 0;
    // Out-params, reset at bind time:
    bool blocked = false;               // txn parked on a wait queue
    LockResource blocked_on{};          // what it is waiting for
    std::vector<uint64_t> deadlock_victims;  // includes the txn itself
                                             // when it lost the cycle
  };
  /// Binds (nullptr: unbinds) the executor's per-operation context.
  void BindExecContext(ExecContext* ctx);

  /// Statement-level rollback bracket for block-and-replay: the executor
  /// marks before dispatching an operation; if the operation blocks on a
  /// lock, RollbackOperation undoes its partial effects (UNDO records
  /// past the mark are applied, the SLB chain is rewound, the REDO
  /// counters restored) while the transaction — and its earlier
  /// operations' locks and log — live on to replay the operation after
  /// the lock is granted.
  struct OpMark {
    size_t undo_depth = 0;
    StableLogBuffer::ChainMark slb;
    Transaction::RedoMark redo;
  };
  OpMark MarkOperation(Transaction* txn) const;
  Status RollbackOperation(Transaction* txn, const OpMark& mark);

  /// Drains (txn id, grant-time ns) pairs for waiters granted at lock
  /// release points since the last call, in grant order.
  std::vector<std::pair<uint64_t, uint64_t>> TakePendingGrants();

  // --- introspection ----------------------------------------------------------
  uint64_t now_ns() const { return clock_.now_ns(); }
  /// Advances the global clock to `t_ns`; no-op when `t_ns` is in the
  /// past. Rigs that run successive concurrent-executor waves use this to
  /// move the clock past the last wave's completion so the next wave's
  /// timelines don't overlap it.
  void AdvanceClockTo(uint64_t t_ns) { clock_.AdvanceTo(t_ns); }
  /// True between Crash() and a successful Restart().
  bool crashed() const { return crashed_; }
  double now_ms() const { return clock_.now_seconds() * 1e3; }
  const sim::CpuModel& main_cpu() const { return main_cpu_; }
  const sim::CpuModel& recovery_cpu() const { return recovery_cpu_; }
  // Log stream 0's components.
  StableLogBuffer& slb() { return log_->stream(0).slb(); }
  StableLogTail& slt() { return log_->stream(0).slt(); }
  LogDiskWriter& log_writer() { return log_->stream(0).writer(); }
  sim::DuplexedDisk& log_disks() { return log_->stream(0).disks(); }
  sim::Disk& checkpoint_disk() { return *checkpoint_disk_; }
  ArchiveManager& archive() { return *archive_; }
  AuditLog& audit_log() { return *audit_; }
  Catalog& catalog();
  PartitionManager& partitions();
  LockManager& locks();
  /// Metric series for every instrumented component (disks, SLB/SLT, log
  /// writer, sort process, locks, transactions, checkpoints, restarts).
  /// Volatile-scope series reset with the state they measure at Crash().
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Chrome-trace recorder; enabled via DatabaseOptions::enable_tracing.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  DatabaseStats GetStats() const;
  const RestartReport& last_restart() const { return last_restart_; }
  /// Partition-by-partition recovery progress (ready fraction, source
  /// attribution); feeds the recovery.* metrics and counter-track events.
  const RecoveryProgressTracker& recovery_progress() const {
    return recovery_progress_;
  }

  /// EntityStore adapter binding a transaction to the logged entity
  /// operations (locking + REDO/UNDO). A null transaction gives unlogged
  /// read-only access (used to attach index metadata).
  class TxnEntityStore;

 private:
  /// Everything destroyed by Crash(): the primary memory copy of the
  /// database plus all per-transaction volatile structures.
  struct Volatile {
    explicit Volatile(const DatabaseOptions& o)
        : pm(o.partition_size_bytes),
          disk_map(o.checkpoint_disk_slots,
                   o.partition_size_bytes / o.log_page_bytes) {}

    PartitionManager pm;
    Catalog catalog;
    DiskAllocationMap disk_map;
    LockManager locks;
    UndoSpace undo;
    TransactionManager txns;
    VersionStore versions;
    /// First-fit insert accelerator: InsertEntity's scan proved every
    /// partition of the segment before `idx` unable to fit `need` bytes
    /// as of `epoch`, so a later insert of >= `need` bytes may resume
    /// the scan there. Any operation that can grow a partition's
    /// free+garbage space (update, delete, undo apply, recovery install,
    /// drop) bumps `space_epoch`, voiding every hint — placement stays
    /// byte-identical to the full scan; only proven-full prefixes are
    /// skipped. Without this the scan re-reads every full partition's
    /// header per insert: O(partitions) cache misses per tuple, the
    /// dominant host cost of building million-row tables.
    struct InsertHint {
      size_t idx = 0;
      uint32_t need = 0;
      uint64_t epoch = 0;
    };
    std::unordered_map<SegmentId, InsertHint> insert_hints;
    uint64_t space_epoch = 1;
    /// Segment of the index a CreateIndex is filling (0: none). Its
    /// partitions' descriptor rows join that DDL transaction instead of
    /// committing on their own, so a crash or failure before the index
    /// commits leaves no descriptor behind.
    SegmentId building_segment = 0;
    std::map<std::string, TTree> ttrees;
    std::map<std::string, LinearHash> hashes;
  };

  /// A partition may have regained space: void the first-fit hints.
  void NoteSpaceFreed() { ++v_->space_epoch; }

  // --- logged entity operations (the heart of regular logging, §2.3) ----------
  /// A mutation needs an active read-write transaction.
  Status CheckWritable(const Transaction* txn);
  Result<EntityAddr> InsertEntity(Transaction* txn, SegmentId segment,
                                  std::span<const uint8_t> data);
  Status UpdateEntity(Transaction* txn, const EntityAddr& addr,
                      std::span<const uint8_t> data);
  Status DeleteEntity(Transaction* txn, const EntityAddr& addr);
  /// The resident partition holding `addr`, X-locked for `txn`, and the
  /// entity's pre-image in `*pre`.
  Result<Partition*> LockForWrite(Transaction* txn, const EntityAddr& addr,
                                  std::vector<uint8_t>* pre);
  Result<std::vector<uint8_t>> ReadEntity(Transaction* txn,
                                          const EntityAddr& addr);
  Status NodeEntryOp(Transaction* txn, const EntityAddr& addr, LogOp op,
                     const node::Entry& e);

  // --- the tuple layer: home rows, stubs and moved rows ----------------------
  /// A relation row as a transaction sees it.
  struct Row {
    std::vector<uint8_t> bytes;          // a kHome or kMoved row
    std::optional<EntityAddr> moved_to;  // where a moved row lies
  };
  /// The row at home address `home` as `txn` sees it: the bytes visible
  /// there, or, when those are a stub, its moved row's at the same
  /// snapshot. A moved row's own address reads NotFound.
  Result<Row> ReadRow(Transaction* txn, const RelationInfo& rel,
                      const EntityAddr& home);
  /// The moved row `stub` names in `segment`, read as any entity is
  /// (ReadEntity): at a snapshot reader's snapshot, under an S lock on
  /// the moved slot for a locking reader, which a writer of the moved
  /// row in place holds X.
  Result<Row> FollowStub(Transaction* txn, SegmentId segment,
                         std::span<const uint8_t> stub);
  /// Writes `tuple` over the row `old` at `home`: in place when it fits
  /// its slot's partition. Otherwise the row moves to another partition
  /// of the relation and the home slot keeps a stub; a moved row that
  /// outgrows its slot moves again and frees it, so a row is never more
  /// than one hop from home.
  Status UpdateRow(Transaction* txn, const RelationInfo& rel,
                   const EntityAddr& home, const Row& old,
                   const Tuple& tuple);
  /// The row walk of Scan and CreateIndex: calls `fn(home, bytes)` once
  /// per row of `rel` visible to `txn` (a snapshot reader's at its
  /// snapshot; anyone else's, or a null txn's, as the partitions hold
  /// them), in partition and slot order of the home addresses. A stub is
  /// followed to its moved row; a moved row is skipped where it lies.
  template <typename Fn>
  Status WalkRows(Transaction* txn, const RelationInfo& rel, Fn&& fn);

  /// Commit/abort halves of the MVCC version lifecycle. Install walks
  /// the transaction's UNDO chain (before it is discarded) to find the
  /// written addresses and appends their committed post-images stamped
  /// (epoch, csn) — or drops the chains when no snapshot is live.
  void InstallCommittedVersions(Transaction* txn, uint32_t epoch,
                                uint64_t csn);
  Status CommitReadOnly(Transaction* txn);
  Status AbortReadOnly(Transaction* txn);

  Status AppendRedo(Transaction* txn, const LogRecord& redo,
                    const LogRecord& undo);
  /// Applies `undo` (most recent first) to the primary copy.
  Status ApplyUndo(const Transaction* txn, const std::vector<LogRecord>& undo);
  /// A user transaction's audit-trail record (§2.3.2), when enabled.
  Status AuditUserTxn(TxnKind kind, uint64_t id, AuditKind what,
                      const std::string& data = "");

  /// Resident partition lookup with on-demand post-crash recovery.
  Result<Partition*> ResidentPartition(PartitionId pid);

  /// Creates a partition in `segment` for an insert by `txn`: registers
  /// its SLT bin, persists its descriptor row (or the catalog root for
  /// catalog partitions) in a system transaction of its own, or in `txn`
  /// when `segment` is the index a CreateIndex is building.
  Result<Partition*> CreatePartitionInSegment(SegmentId segment,
                                              Transaction* txn);

  Status PersistDescriptorRow(Transaction* txn, PartitionDescriptor* d);
  /// Writes the disk-allocation-map rows of `chunks` inside `txn`,
  /// inserting the rows of chunks that have none yet.
  Status PersistDiskMapChunks(Transaction* txn,
                              const std::set<uint32_t>& chunks);

  /// Logs an object's drop inside `txn`: its relation's X lock, a log
  /// drain, its partitions' catalog rows and checkpoint slots (with the
  /// disk-map rows), then its own `row`. The non-logged teardown (bins,
  /// resident partitions, checkpoint images on disk and in the archive)
  /// must happen after commit via ReleaseSegmentStorage; a failed drop
  /// goes to AbortObjectDrop.
  Status LogObjectDrop(Transaction* txn, uint32_t relation_id,
                       const std::vector<PartitionDescriptor>& descriptors,
                       EntityAddr row);
  /// Reclaims the slots a failed drop freed, aborts `txn`, returns `why`.
  Status AbortObjectDrop(Transaction* txn,
                         const std::vector<PartitionDescriptor>& descriptors,
                         Status why);
  void ReleaseSegmentStorage(
      const std::vector<PartitionDescriptor>& descriptors);
  /// Writes the catalog's root block to both stable copies (stream 0's
  /// SLB and SLT).
  Status WriteCatalogRootBlock();

  /// Rebuilds and installs `work` on up to recovery_parallelism lanes
  /// (LaneLoop on a private scheduler). Starts at the global clock and
  /// advances it to the last install. Counters accumulate into `report`
  /// when it is given.
  Status RecoverPartitionsParallel(const std::vector<PartitionId>& work,
                                   RecoverySource source,
                                   RestartReport* report);

  /// A relation for a statement of an active transaction (`write`: a
  /// read-write one).
  Result<RelationInfo*> LookupRelation(Transaction* txn,
                                       const std::string& name,
                                       bool write = false);
  /// Moves `addr`'s entries in `rel`'s indexes from the keys of `before`
  /// to those of `after` (null: no entry), skipping unchanged keys.
  Status MaintainIndexes(Transaction* txn, RelationInfo* rel,
                         const Tuple* before, const Tuple* after,
                         const EntityAddr& addr);

  /// An index's in-memory handle, attached from its meta on first use.
  template <typename Index>
  Result<Index*> AttachIndex(std::map<std::string, Index>* attached,
                             const std::string& name, IndexType type,
                             const std::string& what);
  Result<TTree*> GetTTree(const std::string& name);
  Result<LinearHash*> GetLinearHash(const std::string& name);

  void MainWork(double instructions);
  /// Waits for virtual time `t_ns` (I/O completion): advances the global
  /// clock in single-stream mode, or idles just the bound worker.
  void WaitUntil(uint64_t t_ns);
  /// Lock acquisition for a transaction's DML: user transactions under a
  /// bound executor context go through the wait-queue policy (parking
  /// the context on conflict); everything else keeps no-wait semantics.
  Status LockForTxn(Transaction* txn, const LockResource& res, LockMode mode);
  /// Records waiter grants produced at a lock-release point, stamped
  /// with the releasing side's current virtual time.
  void NoteGrants(std::vector<uint64_t> granted);
  /// Runs sort-process pump + pending checkpoint transactions after a
  /// user commit, on the shared system clock when a worker context is
  /// bound (checkpointing is the main CPU's serial between-transactions
  /// duty, §2.4).
  Status PostCommitMaintenance();
  /// Current virtual time of the bound worker, or the global clock.
  uint64_t vnow() const {
    return exec_ != nullptr ? exec_->cpu->busy_until_ns() : clock_.now_ns();
  }
  /// The bound worker's CPU timeline, or null.
  sim::CpuModel* worker_cpu() const {
    return exec_ != nullptr ? exec_->cpu : nullptr;
  }
  /// The trace track of the bound worker, or the main CPU's.
  obs::Track TxnTrack() const {
    return exec_ != nullptr ? obs::WorkerTrack(exec_->worker)
                            : obs::Track::kMainCpu;
  }

  // --- checkpointing (checkpoint.cc) and restart (restart.cc) ---------------
  /// Runs pending checkpoint requests until one cannot run yet (lock
  /// conflict, partition not resident); it stays queued.
  Status PollCheckpoints();
  /// Runs one request from `stream`'s SLB queue as a checkpoint
  /// transaction (§2.4).
  Status RunCheckpoint(CheckpointRequest* req, uint32_t stream);
  /// Restores the catalogs, and under kFullReload every partition, from
  /// the stable store (§2.5).
  Status RestartFromStableStore(RestartReport* report);

  /// Resolves the Database's own metric handles and attaches the stable
  /// components outside the log streams, which attach themselves
  /// (constructor only; handles outlive every crash).
  void AttachStableObservers();
  /// Attaches the freshly built Volatile's components (constructor and
  /// every Crash(): the new lock table / txn manager need new hookups).
  void AttachVolatileObservers();

  DatabaseOptions opts_;
  /// The main CPU's timeline. Work outside the executor advances it;
  /// executor workers run on their own timelines and join it at
  /// synchronization points (an on-demand restore, checkpointing).
  sim::SimClock clock_;
  /// Counts the main CPU's instructions, every worker's included. Its
  /// timeline is clock_, so its own busy-until is never advanced.
  sim::CpuModel main_cpu_;
  sim::CpuModel recovery_cpu_;

  // Observability. Declared before the components that cache handles
  // into it so it outlives them on destruction.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;

  // Stable store: survives Crash(). The fault injector is declared first:
  // every stable component holds a raw pointer to it.
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<sim::StableMemoryMeter> meter_;
  std::unique_ptr<LogStreams> log_;
  std::unique_ptr<sim::Disk> checkpoint_disk_;
  std::unique_ptr<ArchiveManager> archive_;
  std::unique_ptr<AuditLog> audit_;
  std::unique_ptr<Resilverer> resilver_;

  // Volatile state: destroyed by Crash(), rebuilt by Restart().
  std::unique_ptr<Volatile> v_;

  bool crashed_ = false;
  bool in_maintenance_ = false;  // guards checkpoint/pump recursion
  RestartReport last_restart_;

  /// Concurrent-executor state: the bound per-operation context (null in
  /// single-stream mode) and waiter grants awaiting pickup.
  ExecContext* exec_ = nullptr;
  std::vector<std::pair<uint64_t, uint64_t>> pending_grants_;
  /// The executor's sweep loop while its Run is active (AttachSweep).
  LaneLoop* sweep_ = nullptr;

  /// Bumped by every DDL and crash: both change which partitions exist.
  uint64_t ddl_epoch_ = 0;

  /// Heat-ordered sweep queue: all non-resident partitions at build
  /// time, hottest first (heat harvested into partition_heat_ by
  /// Crash()), partition id ascending on ties for determinism. Rebuilt
  /// on DDL-epoch mismatch; already-resident entries are skipped at pop
  /// time. Defined in sweep.cc.
  void EnsureSweepQueue();
  std::vector<PartitionId> bg_queue_;
  size_t bg_queue_pos_ = 0;
  uint64_t bg_queue_epoch_ = ~0ull;
  /// Lifetime access counts per partition (pid.Pack() -> touches),
  /// accumulated across crashes. std::map: deterministic order.
  std::map<uint64_t, uint64_t> partition_heat_;

  // Cached registry handles (resolved once in AttachStableObservers).
  /// Shared with every retrying read path (log writer, restart).
  obs::Counter* m_disk_retries_ = nullptr;
  obs::Counter* m_ckpt_completed_ = nullptr;
  obs::Counter* m_ondemand_count_ = nullptr;
  obs::Counter* m_background_count_ = nullptr;
  obs::Counter* m_stale_rebuilds_ = nullptr;
  obs::Counter* m_adopted_rebuilds_ = nullptr;
  obs::Counter* m_rows_forwarded_ = nullptr;
  obs::Histogram* m_txn_latency_ns_ = nullptr;
  obs::Histogram* m_ckpt_duration_ns_ = nullptr;
  obs::Histogram* m_ondemand_ns_ = nullptr;
  obs::Histogram* m_background_ns_ = nullptr;
  obs::Histogram* m_restart_total_ns_ = nullptr;
  obs::Histogram* m_restart_catalog_ns_ = nullptr;
  /// One sample per lane per parallel-recovery batch: that lane's busy
  /// (servicing, not waiting) virtual ns.
  obs::Histogram* m_lane_busy_ns_ = nullptr;
  /// Commit/abort throughput curves (stable: they must span the crash).
  obs::CounterSeries* m_commit_series_ = nullptr;
  obs::CounterSeries* m_abort_series_ = nullptr;

  /// Recovery-progress observability (stable, like the store it tracks).
  RecoveryProgressTracker recovery_progress_;
};

class Database::TxnEntityStore : public EntityStore {
 public:
  TxnEntityStore(Database* db, Transaction* txn) : db_(db), txn_(txn) {}

  Result<EntityAddr> Insert(SegmentId segment,
                            std::span<const uint8_t> data) override {
    return db_->InsertEntity(txn_, segment, data);
  }
  Status Update(const EntityAddr& addr,
                std::span<const uint8_t> data) override {
    return db_->UpdateEntity(txn_, addr, data);
  }
  Status Delete(const EntityAddr& addr) override {
    return db_->DeleteEntity(txn_, addr);
  }
  Result<std::vector<uint8_t>> Read(const EntityAddr& addr) override {
    return db_->ReadEntity(txn_, addr);
  }
  Status NodeInsertEntry(const EntityAddr& addr,
                         const node::Entry& e) override {
    return db_->NodeEntryOp(txn_, addr, LogOp::kNodeInsertEntry, e);
  }
  Status NodeRemoveEntry(const EntityAddr& addr,
                         const node::Entry& e) override {
    return db_->NodeEntryOp(txn_, addr, LogOp::kNodeRemoveEntry, e);
  }

 private:
  Database* db_;
  Transaction* txn_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_DATABASE_H_
