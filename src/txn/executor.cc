#include "txn/executor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mmdb {

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
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& l = lanes_[i];
    if (l.blocked && l.txn != nullptr && l.txn->id() == txn_id) {
      l.blocked = false;
      if (grant_ns > l.park_ns) l.lock_wait_ns += grant_ns - l.park_ns;
      // The worker slept from its park time until the grant.
      l.cpu->IdleUntil(grant_ns);
      MarkDirty(i);
      return;
    }
  }
}

void ConcurrentExecutor::AdmitScripts() {
  // O(1) in the steady state: the lane scan only runs when a script is
  // waiting *and* some lane is actually free (free_lanes_ counts them).
  if (admit_cursor_ >= scripts_.size() || free_lanes_ == 0) return;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& l = lanes_[i];
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
    MarkDirty(i);
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
    RecordAbortSketch(lane, now_ns);
    // Removing the victim's queue entry can itself unblock waiters queued
    // behind it.
    for (uint64_t granted : db_->locks().CancelWait(vid)) {
      UnblockTxn(granted, now_ns);
    }
    lane.blocked = false;
    // The victim learns of its fate at the moment the requester detected
    // the cycle. Its Abort releases locks; the resulting grants land in
    // the database's pending list and are drained next scheduling round.
    lane.cpu->IdleUntil(now_ns);
    Database::ExecContext ctx;
    ctx.cpu = lane.cpu.get();
    ctx.worker = static_cast<uint32_t>(li);
    db_->BindExecContext(&ctx);
    Status st = db_->Abort(lane.txn);
    db_->BindExecContext(nullptr);
    MMDB_RETURN_IF_ERROR(st);
    deadlocks_++;
    m_deadlocks_->Add();
    int si = lane.script;
    ScriptResult& r = results_[si];
    r.deadlock_retries++;
    if (r.deadlock_retries > opts_.max_deadlock_retries) {
      r.outcome = ScriptOutcome::kAborted;
      r.error = Status::Busy("deadlock retry budget exhausted");
      r.txn_id = vid;
      lane.script = -1;
      ++free_lanes_;
      ResetForRetry(&lane);
    } else {
      // Retry from scratch on the same worker with a fresh transaction.
      ResetForRetry(&lane);
    }
    MarkDirty(li);
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
    if (!st.ok() && !ctx.deadlock_victims.empty() &&
        ctx.deadlock_victims.front() == lane.txn->id()) {
      // kDeadlockSelf: this transaction is the youngest on a cycle its
      // own request closed. Abort it (full undo covers the partial op —
      // no statement rollback needed first) and retry from scratch.
      uint64_t now_ns = lane.cpu->busy_until_ns();
      RecordAbortSketch(lane, now_ns);
      Status ab = db_->Abort(lane.txn);
      db_->BindExecContext(nullptr);
      MMDB_RETURN_IF_ERROR(ab);
      deadlocks_++;
      m_deadlocks_->Add();
      result.deadlock_retries++;
      if (result.deadlock_retries > opts_.max_deadlock_retries) {
        result.outcome = ScriptOutcome::kAborted;
        result.error = Status::Busy("deadlock retry budget exhausted");
        lane.script = -1;
        ++free_lanes_;
      }
      ResetForRetry(&lane);
      // Other cycles closed by the same request may have appointed
      // additional (parked) victims.
      if (ctx.deadlock_victims.size() > 1) {
        std::vector<uint64_t> others(ctx.deadlock_victims.begin() + 1,
                                     ctx.deadlock_victims.end());
        return AbortVictims(others, now_ns);
      }
      return Status::OK();
    }
    db_->BindExecContext(nullptr);
    if (st.IsFault()) {
      // Injected crash: stop dead, leaving the transaction in flight as
      // the crash would find it. No abort — volatile state is gone.
      result.error = st;
      return st;
    }
    if (!st.ok()) {
      // Ordinary script failure: abort, record, move on.
      RecordAbortSketch(lane, lane.cpu->busy_until_ns());
      Database::ExecContext actx;
      actx.cpu = lane.cpu.get();
      actx.worker = static_cast<uint32_t>(li);
      db_->BindExecContext(&actx);
      Status ab = db_->Abort(lane.txn);
      db_->BindExecContext(nullptr);
      if (ab.IsFault()) return ab;
      MMDB_RETURN_IF_ERROR(ab);
      result.outcome = ScriptOutcome::kAborted;
      result.error = st;
      lane.script = -1;
      ++free_lanes_;
      ResetForRetry(&lane);
      return Status::OK();
    }
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

Status ConcurrentExecutor::Run() {
  return opts_.unified_event_loop ? RunEventLoop() : RunLegacy();
}

Status ConcurrentExecutor::RunLegacy() {
  for (;;) {
    DrainGrants();
    AdmitScripts();

    // Pick the runnable worker with the earliest (busy-until, index).
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

    if (pick == lanes_.size()) {
      bool any_blocked = false;
      for (const Lane& l : lanes_) any_blocked |= (l.script != -1 && l.blocked);
      if (any_blocked) {
        // Every in-flight transaction is parked and nothing can release a
        // lock: the schedule is wedged. Deadlock detection should make
        // this unreachable.
        return Status::Corruption("executor wedged: all workers blocked");
      }
      break;  // all scripts complete
    }

    MMDB_RETURN_IF_ERROR(DispatchOne(pick));
  }
  return FinishRun();
}

// --- unified event loop -------------------------------------------------------
//
// Equivalence to the legacy scan: the loop maintains the invariant that
// every runnable lane (script assigned, not parked) has exactly one
// pending current-generation event at (its busy-until, pri = lane
// index). All lane state changes happen inside event callbacks, and each
// callback ends by rescheduling every lane it touched — so at every pop
// the heap's minimum over (when, pri) is exactly the legacy argmin over
// (busy-until, index), including the lowest-index-wins tie-break.
// Grants are drained and scripts admitted after each dispatch — the same
// point, relative to the next pick, as the legacy top-of-round preamble.

void ConcurrentExecutor::MarkDirty(size_t li) {
  if (sched_ == nullptr) return;
  ++lane_gen_[li];  // a pending event for this lane is now stale
  lane_live_[li] = false;
  dirty_.push_back(li);
}

void ConcurrentExecutor::ScheduleLane(size_t li) {
  Lane& l = lanes_[li];
  if (l.script == -1 || l.blocked || lane_live_[li]) return;
  lane_live_[li] = true;
  const uint64_t gen = lane_gen_[li];
  sched_->At(l.cpu->busy_until_ns(), static_cast<uint32_t>(li),
             [this, li, gen](uint64_t t) { LaneEvent(li, gen, t); });
}

void ConcurrentExecutor::FlushDirty() {
  for (size_t li : dirty_) ScheduleLane(li);
  dirty_.clear();
}

void ConcurrentExecutor::LaneEvent(size_t li, uint64_t gen, uint64_t now_ns) {
  (void)now_ns;
  if (gen != lane_gen_[li]) return;  // superseded while queued
  lane_live_[li] = false;
  Status st = DispatchOne(li);
  if (!st.ok()) {
    sched_->Fail(st);
    return;
  }
  DrainGrants();
  AdmitScripts();
  FlushDirty();
  // This lane's own event just fired (nothing pending to invalidate), so
  // it reschedules directly at its moved busy-until — one heap push, no
  // generation churn. If admission or a grant already rescheduled it,
  // lane_live_ makes this a no-op.
  ScheduleLane(li);
}

void ConcurrentExecutor::StartSweep(uint32_t lane, uint64_t now_ns) {
  Database::RecoveryWorkItem item;
  if (!db_->NextSweepItem(&item)) return;  // lane drains
  // The sweep runs beside live commits, so its log reads stay on the
  // primary disk and leave the mirror to the log writer's duplexed
  // writes.
  auto rebuilt = db_->RebuildPartition(item, now_ns, &sweep_lanes_[lane],
                                       Database::LogReads::kPrimary);
  if (!rebuilt.ok()) {
    sched_->Fail(rebuilt.status());
    return;
  }
  ++sweep_inflight_;
  // The install mutates shared state (partition manager, catalog), so it
  // runs as its own event at the rebuild's completion instant — at the
  // scheduler's default priority, which loses virtual-time ties to
  // transaction dispatches (background work stays background).
  const uint64_t done_ns = rebuilt.value().done_ns;
  sched_->At(done_ns, [this, lane, r = std::move(rebuilt).value()](
                          uint64_t t) mutable {
    --sweep_inflight_;
    auto installed = db_->Install(std::move(r), RecoverySource::kBackground);
    if (!installed.ok()) {
      sched_->Fail(installed.status());
      return;
    }
    if (installed.value()) {
      ++sweep_recovered_;
      last_sweep_install_ns_ = t;
    }
    StartSweep(lane, t);
  });
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
  // Keep ticking only while something else is scheduled: when the tick
  // is the last event on the heap, every worker has finished (or is
  // wedged) and every sweep lane has drained, so the loop winds down.
  if (sched_->depth() > 0) {
    sched_->At(now_ns + opts_.maintenance_tick_ns,
               [this](uint64_t t) { MaintenanceTick(t); });
  }
}

Status ConcurrentExecutor::RunEventLoop() {
  sim::EventScheduler sched;
  sched_ = &sched;
  lane_gen_.assign(lanes_.size(), 0);
  lane_live_.assign(lanes_.size(), false);
  dirty_.clear();
  sweep_inflight_ = 0;
  sweep_recovered_ = 0;
  last_sweep_install_ns_ = 0;

  uint32_t sweep_lanes = 0;
  if (opts_.background_sweep) {
    sweep_lanes = opts_.sweep_lanes != 0
                      ? opts_.sweep_lanes
                      : std::max<uint32_t>(1, db_->options().recovery_parallelism);
  }
  sched.Reserve(2 * lanes_.size() + 2 * sweep_lanes + 16);

  DrainGrants();
  AdmitScripts();
  dirty_.clear();
  for (size_t li = 0; li < lanes_.size(); ++li) ScheduleLane(li);

  if (opts_.background_sweep) {
    const uint64_t t0 = db_->now_ns();
    sweep_lanes_.clear();
    sweep_lanes_.reserve(sweep_lanes);
    for (uint32_t s = 0; s < sweep_lanes; ++s) {
      sweep_lanes_.emplace_back(s);
      sched.At(t0, [this, s](uint64_t t) { StartSweep(s, t); });
    }
    sched.At(t0 + opts_.maintenance_tick_ns,
             [this](uint64_t t) { MaintenanceTick(t); });
  }

  Status st = sched.Run();
  sched_events_run_ = sched.events_run();
  sched_peak_depth_ = sched.peak_depth();
  sched_heap_fallbacks_ = sched.heap_fallbacks();
  sched_ = nullptr;
  MMDB_RETURN_IF_ERROR(st);

  m_sched_events_->Add(sched_events_run_);
  m_sched_peak_depth_->Set(static_cast<double>(sched_peak_depth_));

  // The heap ran dry. Any script still in flight means every in-flight
  // transaction was parked with nothing left to release a lock — the
  // legacy loop's wedge condition.
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
