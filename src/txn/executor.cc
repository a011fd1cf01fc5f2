#include "txn/executor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mmdb {

namespace {
/// Maintenance tick period (background_sweep only): pumps the recovery
/// CPU's sort process and pending checkpoints as events.
constexpr uint64_t kMaintenanceTickNs = 1'000'000;
}  // namespace

ConcurrentExecutor::ConcurrentExecutor(Database* db, Options opts)
    : db_(db), opts_(opts) {
  uint32_t n = db->options().txn_workers;
  if (n == 0) n = 1;
  lanes_.resize(n);
  free_lanes_ = n;
  for (uint32_t w = 0; w < n; ++w) {
    lanes_[w].cpu = std::make_unique<sim::CpuModel>(
        "txn-worker-" + std::to_string(w), db->options().main_cpu_mips);
    // Workers start at the database's present: earlier single-stream work
    // (population, checkpoints) is already on the global clock.
    lanes_[w].cpu->IdleUntil(db->now_ns());
  }
  m_waits_ = db->metrics().counter("txn.waits", obs::Scope::kVolatile);
  m_deadlocks_ =
      db->metrics().counter("txn.deadlocks", obs::Scope::kVolatile);
  m_worker_busy_ns_ =
      db->metrics().histogram("txn.worker_busy_ns", obs::Scope::kVolatile);
  m_sched_events_ =
      db->metrics().counter("scheduler.events_run", obs::Scope::kVolatile);
  m_sched_peak_depth_ =
      db->metrics().gauge("scheduler.peak_heap_depth", obs::Scope::kVolatile);
  obs::MetricsRegistry& reg = db->metrics();
  s_commit_latency_ =
      reg.sketch("txn.sketch.commit_latency_ns", obs::Scope::kVolatile);
  s_abort_latency_ =
      reg.sketch("txn.sketch.abort_latency_ns", obs::Scope::kVolatile);
  s_queue_wait_ = reg.sketch("txn.sketch.queue_wait_ns", obs::Scope::kVolatile);
  s_lock_wait_ = reg.sketch("txn.sketch.lock_wait_ns", obs::Scope::kVolatile);
  s_execute_ = reg.sketch("txn.sketch.execute_ns", obs::Scope::kVolatile);
  s_commit_fence_ =
      reg.sketch("txn.sketch.commit_fence_ns", obs::Scope::kVolatile);
}

void ConcurrentExecutor::Submit(TxnScript script) {
  scripts_.push_back(std::move(script));
  results_.emplace_back();
  submit_ns_.push_back(db_->now_ns());
}

void ConcurrentExecutor::RecordCommitSketches(const Lane& lane,
                                              uint64_t commit_end_ns,
                                              uint64_t fence_ns) {
  if (lane.attempt_begin_ns == 0 || commit_end_ns < lane.attempt_begin_ns) {
    return;
  }
  uint64_t total = commit_end_ns - lane.attempt_begin_ns;
  s_commit_latency_->Record(static_cast<double>(total));
  s_queue_wait_->Record(static_cast<double>(lane.queue_wait_ns));
  s_lock_wait_->Record(static_cast<double>(lane.lock_wait_ns));
  s_commit_fence_->Record(static_cast<double>(fence_ns));
  uint64_t accounted = lane.lock_wait_ns + fence_ns;
  s_execute_->Record(
      static_cast<double>(total > accounted ? total - accounted : 0));
}

void ConcurrentExecutor::RecordAbortSketch(const Lane& lane, uint64_t now_ns) {
  if (lane.attempt_begin_ns == 0 || now_ns < lane.attempt_begin_ns) return;
  s_abort_latency_->Record(static_cast<double>(now_ns - lane.attempt_begin_ns));
}

uint64_t ConcurrentExecutor::completion_ns() const {
  uint64_t t = db_->now_ns();
  for (const Lane& l : lanes_) t = std::max(t, l.cpu->busy_until_ns());
  return t;
}

void ConcurrentExecutor::DrainGrants() {
  for (const auto& [txn_id, grant_ns] : db_->TakePendingGrants()) {
    UnblockTxn(txn_id, grant_ns);
  }
}

void ConcurrentExecutor::UnblockTxn(uint64_t txn_id, uint64_t grant_ns) {
  for (Lane& l : lanes_) {
    if (l.blocked && l.txn != nullptr && l.txn->id() == txn_id) {
      l.blocked = false;
      if (grant_ns > l.park_ns) l.lock_wait_ns += grant_ns - l.park_ns;
      // The worker slept from its park time until the grant.
      l.cpu->IdleUntil(grant_ns);
      return;
    }
  }
}

void ConcurrentExecutor::AdmitScripts() {
  // O(1) in the steady state: the lane scan only runs when a script is
  // waiting *and* some lane is actually free (free_lanes_ counts them).
  if (admit_cursor_ >= scripts_.size() || free_lanes_ == 0) return;
  for (Lane& l : lanes_) {
    if (l.script != -1) continue;
    if (admit_cursor_ >= scripts_.size()) break;
    l.script = static_cast<int>(admit_cursor_++);
    --free_lanes_;
    l.txn = nullptr;
    l.next_op = 0;
    l.blocked = false;
    l.attempt_begin_ns = 0;
    l.queue_wait_ns = 0;
    l.queue_recorded = false;
    l.lock_wait_ns = 0;
    l.park_ns = 0;
  }
}

void ConcurrentExecutor::ResetForRetry(Lane* lane) {
  lane->txn = nullptr;
  lane->next_op = 0;
  lane->blocked = false;
  // Phase sketches describe the final attempt; a retry starts clean.
  lane->attempt_begin_ns = 0;
  lane->lock_wait_ns = 0;
  lane->park_ns = 0;
}

Status ConcurrentExecutor::AbortAttempt(size_t li, uint64_t now_ns,
                                        Status error) {
  Lane& lane = lanes_[li];
  RecordAbortSketch(lane, now_ns);
  lane.cpu->IdleUntil(now_ns);
  Database::ExecContext ctx;
  ctx.cpu = lane.cpu.get();
  ctx.worker = static_cast<uint32_t>(li);
  db_->BindExecContext(&ctx);
  Status st = db_->Abort(lane.txn);
  db_->BindExecContext(nullptr);
  MMDB_RETURN_IF_ERROR(st);
  ScriptResult& r = results_[lane.script];
  if (error.ok()) {
    // A lost deadlock: the script retries from scratch on the same worker
    // with a fresh transaction, unless that exhausts its retry budget.
    deadlocks_++;
    m_deadlocks_->Add();
    if (++r.deadlock_retries > opts_.max_deadlock_retries) {
      error = Status::Busy("deadlock retry budget exhausted");
    }
  }
  if (!error.ok()) {
    r.outcome = ScriptOutcome::kAborted;
    r.error = error;
    lane.script = -1;
    ++free_lanes_;
  }
  ResetForRetry(&lane);
  return Status::OK();
}

Status ConcurrentExecutor::AbortVictims(const std::vector<uint64_t>& victims,
                                        uint64_t now_ns) {
  for (uint64_t vid : victims) {
    size_t li = lanes_.size();
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].txn != nullptr && lanes_[i].txn->id() == vid) {
        li = i;
        break;
      }
    }
    // Victims are always parked waiters chosen from the wait-for graph;
    // an unknown id would mean the lock manager and executor disagree
    // about who is in flight.
    if (li == lanes_.size()) {
      return Status::Corruption("deadlock victim not found among workers");
    }
    Lane& lane = lanes_[li];
    MMDB_DCHECK(lane.blocked);
    // Removing the victim's queue entry can itself unblock waiters queued
    // behind it.
    for (uint64_t granted : db_->locks().CancelWait(vid)) {
      UnblockTxn(granted, now_ns);
    }
    lane.blocked = false;
    // The victim learns of its fate at the moment the requester detected
    // the cycle. Its Abort releases locks; the resulting grants land in
    // the database's pending list and are drained after this step.
    MMDB_RETURN_IF_ERROR(AbortAttempt(li, now_ns, Status::OK()));
  }
  return Status::OK();
}

Status ConcurrentExecutor::DispatchOne(size_t li) {
  Lane& lane = lanes_[li];
  TxnScript& script = scripts_[lane.script];
  ScriptResult& result = results_[lane.script];

  Database::ExecContext ctx;
  ctx.cpu = lane.cpu.get();
  ctx.worker = static_cast<uint32_t>(li);
  db_->BindExecContext(&ctx);

  if (lane.txn == nullptr) {
    auto begun =
        db_->Begin(TxnKind::kUser, script.label, script.options.read_only);
    if (!begun.ok()) {
      db_->BindExecContext(nullptr);
      return begun.status();
    }
    lane.txn = begun.value();
    result.txn_id = lane.txn->id();
    result.worker = static_cast<uint32_t>(li);
    lane.attempt_begin_ns = lane.txn->begin_ns();
    if (!lane.queue_recorded) {
      lane.queue_recorded = true;
      uint64_t submitted = submit_ns_[lane.script];
      lane.queue_wait_ns = lane.attempt_begin_ns > submitted
                               ? lane.attempt_begin_ns - submitted
                               : 0;
    }
  }

  if (lane.next_op < script.ops.size()) {
    Database::OpMark mark = db_->MarkOperation(lane.txn);
    Status st = script.ops[lane.next_op](*db_, lane.txn);
    if (ctx.blocked) {
      // Block-and-replay: undo the operation's partial effects and park.
      // The whole op closure replays after the grant.
      Status rb = db_->RollbackOperation(lane.txn, mark);
      db_->BindExecContext(nullptr);
      MMDB_RETURN_IF_ERROR(rb);
      lane.blocked = true;
      lane.park_ns = lane.cpu->busy_until_ns();
      waits_++;
      m_waits_->Add();
      result.waits++;
      if (db_->tracer().enabled()) {
        db_->tracer().Instant(obs::WorkerTrack(static_cast<uint32_t>(li)),
                              "lock", "wait:" + script.label,
                              lane.cpu->busy_until_ns());
      }
      if (!ctx.deadlock_victims.empty()) {
        // The requester's enqueue closed one or more cycles; every victim
        // is someone else (a self-victim comes back as kDeadlockSelf /
        // not blocked).
        return AbortVictims(ctx.deadlock_victims, lane.cpu->busy_until_ns());
      }
      return Status::OK();
    }
    db_->BindExecContext(nullptr);
    if (!st.ok() && !ctx.deadlock_victims.empty() &&
        ctx.deadlock_victims.front() == lane.txn->id()) {
      // kDeadlockSelf: this transaction is the youngest on a cycle its
      // own request closed. Abort it (full undo covers the partial op —
      // no statement rollback needed first) and retry from scratch.
      const uint64_t now_ns = lane.cpu->busy_until_ns();
      MMDB_RETURN_IF_ERROR(AbortAttempt(li, now_ns, Status::OK()));
      // Other cycles closed by the same request may have appointed
      // additional (parked) victims.
      if (ctx.deadlock_victims.size() > 1) {
        std::vector<uint64_t> others(ctx.deadlock_victims.begin() + 1,
                                     ctx.deadlock_victims.end());
        return AbortVictims(others, now_ns);
      }
      return Status::OK();
    }
    if (st.IsFault()) {
      // Injected crash: stop dead, leaving the transaction in flight as
      // the crash would find it. No abort — volatile state is gone.
      result.error = st;
      return st;
    }
    // Ordinary script failure: abort, record, move on.
    if (!st.ok()) return AbortAttempt(li, lane.cpu->busy_until_ns(), st);
    lane.next_op++;
    return Status::OK();
  }

  // All ops done: commit.
  uint64_t txn_id = lane.txn->id();
  uint64_t commit_start_ns = lane.cpu->busy_until_ns();
  Status st = db_->Commit(lane.txn);
  db_->BindExecContext(nullptr);
  if (st.IsFault()) {
    result.commit_faulted = true;
    result.error = st;
    return st;
  }
  MMDB_RETURN_IF_ERROR(st);
  result.outcome = ScriptOutcome::kCommitted;
  result.commit_ns = lane.cpu->busy_until_ns();
  RecordCommitSketches(lane, result.commit_ns,
                       result.commit_ns - commit_start_ns);
  // Partitioned-log mode: the commit's group-commit stamp (zeros with a
  // single stream).
  result.commit_epoch = db_->last_commit_epoch();
  result.commit_csn = db_->last_commit_csn();
  commit_order_.push_back(txn_id);
  lane.script = -1;
  ++free_lanes_;
  ResetForRetry(&lane);
  return Status::OK();
}

void ConcurrentExecutor::MaintenanceTick(uint64_t now_ns) {
  Status st = db_->PumpRecovery();
  if (st.ok()) st = db_->RunCheckpoints();
  if (!st.ok()) {
    sched_->Fail(st);
    return;
  }
  // Background version reclamation: prune anything older than the
  // oldest live snapshot (pure bookkeeping, no virtual time).
  db_->PruneVersions();
  // Keep ticking only while something else can run: once no worker is
  // runnable and every sweep lane has drained, the loop winds down.
  if (sched_->depth() > 0 || NextWorker() < lanes_.size()) {
    sched_->At(now_ns + kMaintenanceTickNs,
               [this](uint64_t t) { MaintenanceTick(t); });
  }
}

size_t ConcurrentExecutor::NextWorker() const {
  size_t pick = lanes_.size();
  uint64_t pick_ns = 0;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    if (l.script == -1 || l.blocked) continue;
    uint64_t t = l.cpu->busy_until_ns();
    if (pick == lanes_.size() || t < pick_ns) {
      pick = i;
      pick_ns = t;
    }
  }
  return pick;
}

Status ConcurrentExecutor::Run() {
  sim::EventScheduler sched;
  sched_ = &sched;
  // The sweep runs beside live commits, so its log reads stay on the
  // primary disk and leave the mirror to the log writer's duplexed
  // writes.
  Database::LaneLoop sweep(db_, &sched, /*work=*/nullptr,
                           Database::LogReads::kPrimary,
                           RecoverySource::kBackground);
  Status st = Status::OK();
  if (opts_.background_sweep) {
    const uint32_t sweep_lanes =
        opts_.sweep_lanes != 0
            ? opts_.sweep_lanes
            : std::max<uint32_t>(1, db_->options().recovery_parallelism);
    sched.Reserve(sweep_lanes + 1);
    const uint64_t t0 = db_->now_ns();
    sweep.Start(sweep_lanes, t0);
    db_->AttachSweep(&sweep);
    sched.At(t0 + kMaintenanceTickNs,
             [this](uint64_t t) { MaintenanceTick(t); });
    // The sweep starts with the run: its lanes take their first
    // partitions before any worker steps, so the hottest partitions'
    // image reads reach the checkpoint disk ahead of the faults of the
    // run's first operations.
    while (st.ok() && sched.next_ns() <= t0) st = sched.RunNext();
  }

  // Each step runs the runnable worker with the smallest (busy-until,
  // worker index), unless a background event is due strictly earlier:
  // at a tie the worker goes first, so background work stays background.
  // Grants and admissions are applied after worker steps only — a grant
  // released inside a maintenance tick waits for the next worker step.
  DrainGrants();
  AdmitScripts();
  uint64_t worker_steps = 0;
  while (st.ok()) {
    const size_t pick = NextWorker();
    const uint64_t pick_ns = pick < lanes_.size()
                                 ? lanes_[pick].cpu->busy_until_ns()
                                 : UINT64_MAX;
    if (sched.next_ns() < pick_ns) {
      st = sched.RunNext();
      continue;
    }
    if (pick == lanes_.size()) break;
    ++worker_steps;
    st = DispatchOne(pick);
    if (!st.ok()) break;
    DrainGrants();
    AdmitScripts();
  }
  sched_events_run_ = worker_steps + sched.events_run();
  sched_peak_depth_ = sched.peak_depth();
  sched_heap_fallbacks_ = sched.heap_fallbacks();
  sweep_recovered_ = sweep.installed();
  last_sweep_install_ns_ = sweep.last_install_ns();
  db_->AttachSweep(nullptr);
  sched_ = nullptr;
  MMDB_RETURN_IF_ERROR(st);

  m_sched_events_->Add(sched_events_run_);
  m_sched_peak_depth_->Set(static_cast<double>(sched_peak_depth_));

  // Nothing is runnable and no background event is pending. Any script
  // still in flight means every in-flight transaction was parked with
  // nothing left to release a lock.
  for (const Lane& l : lanes_) {
    if (l.script != -1) {
      return Status::Corruption("executor wedged: all workers blocked");
    }
  }
  return FinishRun();
}

Status ConcurrentExecutor::FinishRun() {
  for (const Lane& l : lanes_) {
    // Busy = work actually charged to the worker (instructions at this
    // CPU's rate), excluding idle gaps spent parked or waiting on I/O.
    m_worker_busy_ns_->Record(l.cpu->total_instructions() *
                              l.cpu->ns_per_instruction());
  }
  // Partitioned-log mode: the batch's trailing commits may still sit in
  // an unfenced epoch; fence so every committed script is durable when
  // the caller inspects results. (No-op with a single stream.)
  MMDB_RETURN_IF_ERROR(db_->FenceEpochs());
  return Status::OK();
}

}  // namespace mmdb
