#include "core/database.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/logging.h"

namespace mmdb {

Status DatabaseOptions::Validate() const {
  auto bad = [](const std::string& what) {
    return Status::InvalidArgument("DatabaseOptions: " + what);
  };
  if (log_page_bytes == 0) return bad("log_page_bytes must be positive");
  if (log_streams > 1 && epoch_interval_ns == 0) {
    return bad("epoch_interval_ns must be positive with log_streams > 1");
  }
  if (partition_size_bytes < 4096) {
    return bad("partition_size_bytes must be at least 4096");
  }
  if (partition_size_bytes > kMaxPartitionBytes) {
    return bad("partition_size_bytes must be at most 512 KiB, so its slots "
               "fit the 16-bit slot of an index ref");
  }
  if (partition_size_bytes % log_page_bytes != 0) {
    return bad("partition_size_bytes must be a multiple of log_page_bytes");
  }
  if (slb_block_bytes > slb_capacity_bytes) {
    return bad("slb_block_bytes must not exceed slb_capacity_bytes");
  }
  return Status::OK();
}

Database::Database(DatabaseOptions opts)
    : opts_(opts),
      main_cpu_("main", opts.main_cpu_mips),
      recovery_cpu_("recovery", opts.recovery_cpu_mips) {
  // Checked before any division by the options.
  const Status valid = opts_.Validate();
  if (!valid.ok()) std::fprintf(stderr, "%s\n", valid.ToString().c_str());
  MMDB_CHECK(valid.ok());
  opts_.checkpoint_disk_params.page_size_bytes = opts_.log_page_bytes;
  opts_.checkpoint_disk_params.pages_per_track =
      opts_.partition_size_bytes / opts_.log_page_bytes;
  opts_.costs.s_log_page = static_cast<double>(opts_.log_page_bytes);
  opts_.costs.s_partition = static_cast<double>(opts_.partition_size_bytes);
  opts_.costs.n_update = static_cast<double>(opts_.n_update);
  opts_.log_streams = std::max<uint32_t>(opts_.log_streams, 1);

  // Thread the (disarmed) fault injector through every component with an
  // injection site; each hook is a single branch until a plan is armed.
  fault_ = std::make_unique<fault::FaultInjector>();
  meter_ = std::make_unique<sim::StableMemoryMeter>(opts_.stable_memory_bytes);
  meter_->SetFaultInjector(fault_.get());

  log_ = std::make_unique<LogStreams>(opts_, main_cpu_, &recovery_cpu_,
                                      meter_.get(), fault_.get(), &metrics_,
                                      &tracer_);

  checkpoint_disk_ =
      std::make_unique<sim::Disk>("ckpt", opts_.checkpoint_disk_params);
  checkpoint_disk_->SetFaultInjector(fault_.get());
  archive_ = std::make_unique<ArchiveManager>();
  audit_ = std::make_unique<AuditLog>(
      AuditLog::Config{opts_.audit_buffer_bytes}, meter_.get());
  resilver_ = std::make_unique<Resilverer>(Resilverer::Config{},
                                           &log_disks(), archive_.get());
  resilver_->SetFaultInjector(fault_.get());

  v_ = std::make_unique<Volatile>(opts_);
  v_->catalog.set_catalog_segment(v_->pm.AllocateSegment());

  tracer_.set_enabled(opts_.enable_tracing);
  AttachStableObservers();
  AttachVolatileObservers();
}

void Database::AttachStableObservers() {
  checkpoint_disk_->AttachMetrics(&metrics_);
  fault_->AttachMetrics(&metrics_);
  resilver_->AttachMetrics(&metrics_);
  resilver_->AttachTracer(&tracer_);

  m_disk_retries_ = metrics_.counter("disk.retries_total");
  m_ckpt_completed_ = metrics_.counter("checkpoint.completed");
  m_ondemand_count_ = metrics_.counter("recovery.on_demand");
  m_background_count_ = metrics_.counter("recovery.background");
  m_stale_rebuilds_ = metrics_.counter("recovery.stale_rebuilds");
  m_adopted_rebuilds_ = metrics_.counter("recovery.adopted_rebuilds");
  m_rows_forwarded_ = metrics_.counter("storage.rows_forwarded");
  m_txn_latency_ns_ =
      metrics_.histogram("txn.latency_ns", obs::Scope::kVolatile);
  m_ckpt_duration_ns_ = metrics_.histogram("checkpoint.duration_ns");
  m_ondemand_ns_ = metrics_.histogram("recovery.on_demand_ns");
  m_background_ns_ = metrics_.histogram("recovery.background_ns");
  m_restart_total_ns_ = metrics_.histogram("restart.total_ns");
  m_restart_catalog_ns_ = metrics_.histogram("restart.catalog_ns");
  m_lane_busy_ns_ = metrics_.histogram("recovery.lane_busy_ns");
  // Throughput-over-time curves: stable scope, so the series span the
  // crash and the recovery shape is visible in one export.
  m_commit_series_ =
      metrics_.counter_series("txn.commit_rate", opts_.telemetry_bucket_ns);
  m_abort_series_ =
      metrics_.counter_series("txn.abort_rate", opts_.telemetry_bucket_ns);
  recovery_progress_.AttachMetrics(&metrics_, opts_.telemetry_bucket_ns);
  recovery_progress_.AttachTracer(&tracer_);
}

void Database::AttachVolatileObservers() {
  v_->locks.AttachMetrics(&metrics_);
  v_->txns.AttachMetrics(&metrics_);
  v_->versions.AttachMetrics(&metrics_);
}

uint64_t Database::PruneVersions() { return v_->versions.Prune(); }

size_t Database::mvcc_versions_live() const {
  return v_->versions.versions_live();
}

Database::~Database() = default;

Catalog& Database::catalog() { return v_->catalog; }
PartitionManager& Database::partitions() { return v_->pm; }
LockManager& Database::locks() { return v_->locks; }

void Database::MainWork(double instructions) {
  // The aggregate instruction total covers every worker.
  main_cpu_.AccountInstructions(instructions);
  if (exec_ != nullptr) {
    // Worker mode: the work lands on the worker's private timeline (the
    // global clock only moves at synchronization points).
    exec_->cpu->Execute(instructions);
    return;
  }
  clock_.Advance(
      static_cast<uint64_t>(instructions * main_cpu_.ns_per_instruction()));
}

void Database::WaitUntil(uint64_t t_ns) {
  if (exec_ != nullptr) {
    exec_->cpu->IdleUntil(t_ns);
    return;
  }
  clock_.AdvanceTo(t_ns);
}

void Database::BindExecContext(ExecContext* ctx) {
  exec_ = ctx;
  if (ctx != nullptr) {
    ctx->blocked = false;
    ctx->blocked_on = LockResource{};
    ctx->deadlock_victims.clear();
  }
}

Status Database::LockForTxn(Transaction* txn, const LockResource& res,
                            LockMode mode) {
  if (exec_ == nullptr || txn->kind() != TxnKind::kUser) {
    return v_->locks.Acquire(txn->id(), res, mode);
  }
  LockManager::LockRequestResult r =
      v_->locks.AcquireOrWait(txn->id(), res, mode);
  switch (r.outcome) {
    case LockManager::LockOutcome::kGranted:
      return Status::OK();
    case LockManager::LockOutcome::kWaiting:
      exec_->blocked = true;
      exec_->blocked_on = res;
      exec_->deadlock_victims.insert(exec_->deadlock_victims.end(),
                                     r.victims.begin(), r.victims.end());
      return Status::Busy("lock wait");
    case LockManager::LockOutcome::kDeadlockSelf:
      // Victims start with the requester itself; other cycles the same
      // request closed may have appointed parked victims as well.
      exec_->deadlock_victims.insert(exec_->deadlock_victims.end(),
                                     r.victims.begin(), r.victims.end());
      return Status::Busy("deadlock victim");
  }
  return Status::Busy("lock wait");
}

void Database::NoteGrants(std::vector<uint64_t> granted) {
  uint64_t t = vnow();
  for (uint64_t id : granted) pending_grants_.emplace_back(id, t);
}

std::vector<std::pair<uint64_t, uint64_t>> Database::TakePendingGrants() {
  return std::exchange(pending_grants_, {});
}

Database::OpMark Database::MarkOperation(Transaction* txn) const {
  OpMark m;
  m.undo_depth = v_->undo.Depth(txn->id());
  m.slb = log_->of(txn).slb().Mark(txn->id());
  m.redo = txn->redo_mark();
  return m;
}

Status Database::ApplyUndo(const Transaction* txn,
                           const std::vector<LogRecord>& undo) {
  for (const LogRecord& rec : undo) {
    auto pr = v_->pm.Get(rec.partition);
    if (!pr.ok()) return pr.status();
    Status st = ApplyLogRecord(rec, pr.value());
    if (!st.ok()) return Status::Corruption("UNDO failed: " + st.ToString());
    MainWork(opts_.apply_instructions_per_record);
  }
  if (undo.empty()) return Status::OK();
  // An address fully reverted (no earlier write from the same transaction
  // survives in the UNDO chain) again matches its committed image, so its
  // version chain can release the dirty mark.
  const std::vector<LogRecord>* remaining = v_->undo.Peek(txn->id());
  for (const LogRecord& rec : undo) {
    bool still_written =
        remaining != nullptr &&
        std::any_of(remaining->begin(), remaining->end(),
                    [&](const LogRecord& r) {
                      return r.partition == rec.partition && r.slot == rec.slot;
                    });
    if (!still_written) v_->versions.OnUndone({rec.partition, rec.slot});
  }
  NoteSpaceFreed();
  return Status::OK();
}

Status Database::RollbackOperation(Transaction* txn, const OpMark& mark) {
  MMDB_RETURN_IF_ERROR(
      ApplyUndo(txn, v_->undo.TakeReversedFrom(txn->id(), mark.undo_depth)));
  log_->of(txn).slb().Rewind(txn->id(), mark.slb);
  txn->RestoreRedo(mark.redo);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Logged entity operations (paper §2.3: regular logging)
// ---------------------------------------------------------------------------

namespace {
LogRecord RedoRecord(LogOp op, const Transaction* txn, const Partition& p,
                     uint32_t slot) {
  LogRecord redo;
  redo.op = op;
  redo.bin_index = p.bin_index();
  redo.txn_id = txn->id();
  redo.partition = p.id();
  redo.slot = slot;
  return redo;
}
}  // namespace

Status Database::CheckWritable(const Transaction* txn) {
  if (txn == nullptr) return Status::InvalidArgument("mutation needs a txn");
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::InvalidArgument("read-only transaction cannot write");
  }
  return Status::OK();
}

Status Database::AppendRedo(Transaction* txn, const LogRecord& redo,
                            const LogRecord& undo) {
  MMDB_RETURN_IF_ERROR(log_->Append(txn, redo, worker_cpu(), vnow()));
  v_->undo.Push(txn->id(), undo);
  txn->NoteRedo(redo.SerializedSize());
  MainWork(opts_.costs.i_copy_fixed +
           opts_.costs.i_copy_add *
               static_cast<double>(redo.SerializedSize()));
  return Status::OK();
}

Result<EntityAddr> Database::InsertEntity(Transaction* txn, SegmentId segment,
                                          std::span<const uint8_t> data) {
  MMDB_RETURN_IF_ERROR(CheckWritable(txn));
  if (data.size() > 0xFFFF) {
    return Status::InvalidArgument("entity larger than 64KB");
  }
  MainWork(opts_.dml_instructions);

  // First fit from the segment's hint. A partition the estimate admits
  // but whose insert still misses is passed over, not given up on: the
  // hint must never rest on a partition that refuses the entity.
  Partition* target = nullptr;
  uint32_t slot = 0;
  const auto& parts = v_->pm.SegmentPartitions(segment);
  const auto need = static_cast<uint32_t>(data.size()) + 16;
  auto& hint = v_->insert_hints[segment];
  size_t i = (hint.epoch == v_->space_epoch && need >= hint.need &&
              hint.idx <= parts.size())
                 ? hint.idx
                 : 0;
  for (; i < parts.size(); ++i) {
    Partition* p = parts[i];
    if (p->free_bytes() + p->garbage_bytes() < need) continue;
    auto slot_r = p->Insert(data);
    if (slot_r.ok()) {
      target = p;
      slot = slot_r.value();
      break;
    }
    if (!slot_r.status().IsFull()) return slot_r.status();
  }
  hint = {i, need, v_->space_epoch};
  if (target == nullptr) {
    auto created = CreatePartitionInSegment(segment, txn);
    if (!created.ok()) return created.status();
    target = created.value();
    auto slot_r = target->Insert(data);
    if (!slot_r.ok()) return slot_r.status();
    slot = slot_r.value();
  }
  EntityAddr addr{target->id(), slot};

  // The slot may have been freed by a still-active deleter: respect 2PL.
  Status lock = LockForTxn(txn, LockResource::Entity(addr), LockMode::kX);
  MainWork(opts_.lock_instructions);
  if (!lock.ok()) {
    MMDB_CHECK(target->Delete(slot).ok());
    NoteSpaceFreed();
    return lock;
  }
  v_->versions.NoteWrite(addr, /*deleted=*/true, {});

  LogRecord redo = RedoRecord(LogOp::kInsert, txn, *target, slot);
  redo.data.assign(data.begin(), data.end());
  Status st = AppendRedo(txn, redo, MakeUndo(redo, {}));
  if (!st.ok()) {
    MMDB_CHECK(target->Delete(slot).ok());
    NoteSpaceFreed();
    return st;
  }
  return addr;
}

Result<Partition*> Database::LockForWrite(Transaction* txn,
                                          const EntityAddr& addr,
                                          std::vector<uint8_t>* pre) {
  MainWork(opts_.dml_instructions);
  auto pr = ResidentPartition(addr.partition);
  if (!pr.ok()) return pr.status();
  MMDB_RETURN_IF_ERROR(
      LockForTxn(txn, LockResource::Entity(addr), LockMode::kX));
  MainWork(opts_.lock_instructions);
  auto bytes = pr.value()->Read(addr.slot);
  if (!bytes.ok()) return bytes.status();
  pre->assign(bytes.value().begin(), bytes.value().end());
  return pr.value();
}

Status Database::UpdateEntity(Transaction* txn, const EntityAddr& addr,
                              std::span<const uint8_t> data) {
  MMDB_RETURN_IF_ERROR(CheckWritable(txn));
  if (data.size() > 0xFFFF) {
    return Status::InvalidArgument("entity larger than 64KB");
  }
  std::vector<uint8_t> pre;
  auto pr = LockForWrite(txn, addr, &pre);
  if (!pr.ok()) return pr.status();
  Partition* p = pr.value();

  v_->versions.NoteWrite(addr, /*deleted=*/false, pre);
  MMDB_RETURN_IF_ERROR(p->Update(addr.slot, data));
  NoteSpaceFreed();

  LogRecord redo = RedoRecord(LogOp::kUpdate, txn, *p, addr.slot);
  if (data.size() == pre.size()) {
    // Same length: the REDO record carries only the span from the first
    // to the last changed byte. Each scan also compares the byte that
    // stops it; a compare costs what a copy does per byte.
    size_t first = 0;
    size_t end = data.size();
    while (first < end && data[first] == pre[first]) ++first;
    while (end > first && data[end - 1] == pre[end - 1]) --end;
    size_t compared = first + (data.size() - end) + (first < end ? 2 : 0);
    MainWork(opts_.costs.i_copy_add * static_cast<double>(compared));
    redo.op = LogOp::kPatch;
    redo.offset = static_cast<uint16_t>(first);
    redo.data.assign(data.begin() + first, data.begin() + end);
  } else {
    redo.data.assign(data.begin(), data.end());
  }
  Status st = AppendRedo(txn, redo, MakeUndo(redo, pre));
  if (!st.ok()) {
    MMDB_CHECK(p->Update(addr.slot, pre).ok());
    return st;
  }
  return Status::OK();
}

Status Database::DeleteEntity(Transaction* txn, const EntityAddr& addr) {
  MMDB_RETURN_IF_ERROR(CheckWritable(txn));
  std::vector<uint8_t> pre;
  auto pr = LockForWrite(txn, addr, &pre);
  if (!pr.ok()) return pr.status();
  Partition* p = pr.value();

  v_->versions.NoteWrite(addr, /*deleted=*/false, pre);
  MMDB_RETURN_IF_ERROR(p->Delete(addr.slot));
  NoteSpaceFreed();

  LogRecord redo = RedoRecord(LogOp::kDelete, txn, *p, addr.slot);
  Status st = AppendRedo(txn, redo, MakeUndo(redo, pre));
  if (!st.ok()) {
    MMDB_CHECK(p->InsertAt(addr.slot, pre).ok());
    return st;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> Database::ReadEntity(Transaction* txn,
                                                  const EntityAddr& addr) {
  auto pr = ResidentPartition(addr.partition);
  if (!pr.ok()) return pr.status();
  Partition* p = pr.value();
  if (txn != nullptr && txn->read_only()) {
    // Snapshot read: no S-lock, no wait-queue entry — resolve against
    // the version store instead. The resolve costs about what the lock
    // acquisition would have (a map probe plus a chain walk).
    MainWork(opts_.lock_instructions);
    v_->versions.NoteSnapshotRead();
    const VersionStore::Version* ver =
        v_->versions.Resolve(addr, txn->snapshot_csn());
    if (ver != nullptr) {
      if (ver->deleted) return Status::NotFound("entity absent at snapshot");
      return ver->data;
    }
    auto bytes = p->Read(addr.slot);
    if (!bytes.ok()) return bytes.status();
    return std::vector<uint8_t>(bytes.value().begin(), bytes.value().end());
  }
  if (txn != nullptr) {
    MMDB_RETURN_IF_ERROR(
        LockForTxn(txn, LockResource::Entity(addr), LockMode::kS));
    MainWork(opts_.lock_instructions);
  }
  auto bytes = p->Read(addr.slot);
  if (!bytes.ok()) return bytes.status();
  return std::vector<uint8_t>(bytes.value().begin(), bytes.value().end());
}

Status Database::NodeEntryOp(Transaction* txn, const EntityAddr& addr,
                             LogOp op, const node::Entry& e) {
  MMDB_RETURN_IF_ERROR(CheckWritable(txn));
  std::vector<uint8_t> pre;
  auto pr = LockForWrite(txn, addr, &pre);
  if (!pr.ok()) return pr.status();
  Partition* p = pr.value();
  std::vector<uint8_t> post = pre;
  Status st = op == LogOp::kNodeInsertEntry ? node::InsertEntry(&post, e)
                                            : node::RemoveEntry(&post, e);
  if (!st.ok()) return st;
  v_->versions.NoteWrite(addr, /*deleted=*/false, pre);
  MMDB_RETURN_IF_ERROR(p->Update(addr.slot, post));
  NoteSpaceFreed();

  LogRecord redo = RedoRecord(op, txn, *p, addr.slot);
  redo.key = e.key;
  redo.child = e.value;
  st = AppendRedo(txn, redo, MakeUndo(redo, {}));
  if (!st.ok()) {
    MMDB_CHECK(p->Update(addr.slot, pre).ok());
    return st;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The tuple layer: a row stays at its home address; one that outgrows its
// partition moves and leaves a stub there
// ---------------------------------------------------------------------------

Result<Database::Row> Database::FollowStub(Transaction* txn,
                                           SegmentId segment,
                                           std::span<const uint8_t> stub) {
  auto target = Schema::DecodeStub(stub, segment);
  if (!target.ok()) return target.status();
  auto bytes = ReadEntity(txn, target.value());
  if (!bytes.ok()) return bytes.status();
  auto kind = Schema::KindOf(bytes.value());
  if (!kind.ok()) return kind.status();
  if (kind.value() != RowKind::kMoved) {
    return Status::Corruption("stub names no moved row");
  }
  return Row{std::move(bytes).value(), target.value()};
}

Result<Database::Row> Database::ReadRow(Transaction* txn,
                                        const RelationInfo& rel,
                                        const EntityAddr& home) {
  auto bytes = ReadEntity(txn, home);
  if (!bytes.ok()) return bytes.status();
  auto kind = Schema::KindOf(bytes.value());
  if (!kind.ok()) return kind.status();
  switch (kind.value()) {
    case RowKind::kHome:
      return Row{std::move(bytes).value(), std::nullopt};
    case RowKind::kMoved:
      return Status::NotFound("a moved row is reached through its stub");
    case RowKind::kStub:
      break;
  }
  return FollowStub(txn, rel.segment, bytes.value());
}

Status Database::UpdateRow(Transaction* txn, const RelationInfo& rel,
                           const EntityAddr& home, const Row& old,
                           const Tuple& tuple) {
  const EntityAddr at = old.moved_to.value_or(home);
  auto bytes = rel.schema.Encode(tuple);
  if (!bytes.ok()) return bytes.status();
  // ReadRow just read the slot, so its partition is resident.
  auto pr = v_->pm.Get(at.partition);
  if (!pr.ok()) return pr.status();
  const bool fits = pr.value()->UpdateFits(at.slot, bytes.value().size());
  // A row written anywhere but its home slot is a moved row.
  if (old.moved_to || !fits) {
    bytes.value()[0] = static_cast<uint8_t>(RowKind::kMoved);
  }
  if (fits) return UpdateEntity(txn, at, bytes.value());
  // Relocation: three ordinary entity writes, logged and charged as such.
  // The moved row goes in first, then the home slot takes its stub (a
  // stub is never longer than a row, so it fits in place), then an
  // earlier moved row is freed.
  auto target = InsertEntity(txn, rel.segment, bytes.value());
  if (!target.ok()) return target.status();
  MMDB_RETURN_IF_ERROR(
      UpdateEntity(txn, home, Schema::EncodeStub(target.value())));
  if (old.moved_to) MMDB_RETURN_IF_ERROR(DeleteEntity(txn, *old.moved_to));
  m_rows_forwarded_->Add(1);
  return Status::OK();
}

template <typename Fn>
Status Database::WalkRows(Transaction* txn, const RelationInfo& rel,
                          Fn&& fn) {
  const bool snapshot = txn != nullptr && txn->read_only();
  for (const PartitionDescriptor& d : rel.partitions) {
    auto pr = ResidentPartition(d.id);
    if (!pr.ok()) return pr.status();
    Partition* p = pr.value();
    // Every slot with a version chain resolves through the chain (which
    // covers deleted-then-reused slots and uncommitted in-place writes);
    // chainless slots are committed as stored.
    std::map<uint32_t, const VersionStore::Version*> resolved;
    if (snapshot) {
      resolved = v_->versions.ResolvePartition(d.id, txn->snapshot_csn());
    }
    auto visit = [&](uint32_t s, std::span<const uint8_t> bytes) -> Status {
      auto kind = Schema::KindOf(bytes);
      if (!kind.ok()) return kind.status();
      const EntityAddr home{d.id, s};
      switch (kind.value()) {
        case RowKind::kHome:
          return fn(home, bytes);
        case RowKind::kMoved:
          return Status::OK();
        case RowKind::kStub:
          break;
      }
      auto moved = FollowStub(txn, rel.segment, bytes);
      if (!moved.ok()) return moved.status();
      return fn(home, std::span<const uint8_t>(moved.value().bytes));
    };
    for (uint32_t s = 0; s < p->slot_count(); ++s) {
      auto it = resolved.find(s);
      if (it != resolved.end()) {
        if (!it->second->deleted) {
          MMDB_RETURN_IF_ERROR(visit(s, it->second->data));
        }
        continue;
      }
      if (!p->SlotUsed(s)) continue;
      auto bytes = p->Read(s);
      if (!bytes.ok()) return bytes.status();
      MMDB_RETURN_IF_ERROR(visit(s, bytes.value()));
    }
    // Chains can outlive their slot range only if the partition never
    // grew to cover them; visit any live stragglers for completeness.
    for (const auto& [s, ver] : resolved) {
      if (s >= p->slot_count() && !ver->deleted) {
        MMDB_RETURN_IF_ERROR(visit(s, ver->data));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Partition residency / creation
// ---------------------------------------------------------------------------

Result<Partition*> Database::ResidentPartition(PartitionId pid) {
  auto p = v_->pm.Get(pid);
  if (p.ok()) {
    // Access heat for the heat-ordered background sweep: one increment
    // per reference, harvested by Crash().
    p.value()->Touch();
    return p;
  }
  if (!p.status().IsNotResident()) return p.status();

  // On-demand recovery (paper §2.5 method 2): a reference to an
  // unrecovered partition generates a restore.
  auto dr = v_->catalog.FindDescriptor(pid);
  if (!dr.ok()) return Status::NotFound("no partition " + pid.ToString());
  PartitionDescriptor* d = dr.value();
  if (d->resident) {
    return Status::Corruption("descriptor resident but partition missing");
  }
  std::vector<PartitionId> work{pid};
  // An index lookup reads one of many partitions per key (a hash node
  // partition, a T-tree leaf), so faulting them one at a time would let
  // every post-crash reader fault a fresh one: a fault on an index
  // rebuilds all of it in one batch.
  auto idx = v_->catalog.IndexOfSegment(pid.segment);
  if (idx.ok()) {
    for (const PartitionDescriptor& o : idx.value()->partitions) {
      if (!o.resident && o.id != pid) work.push_back(o.id);
    }
  }
  // A sweep lane may be rebuilding some of them already. Its copy is
  // current: no transaction can write a partition that is not resident,
  // so the partition's bin chain cannot have grown since the lane read
  // it. The fault takes that copy and waits for it rather than reading
  // the checkpoint image a second time.
  std::vector<RebuiltPartition> adopted;
  if (sweep_ != nullptr) {
    std::erase_if(work, [&](PartitionId id) {
      RebuiltPartition copy;
      if (!sweep_->TakeInFlight(id, &copy)) return false;
      adopted.push_back(std::move(copy));
      return true;
    });
  }
  // A bound worker joins the shared system clock for the restore (the
  // devices and recovery lanes are scheduled on it) and resumes its own
  // timeline at completion; other workers keep running — the recovery
  // only occupies the devices, and a later worker touching the same
  // partition finds it resident.
  ExecContext* ctx = std::exchange(exec_, nullptr);
  if (ctx != nullptr) clock_.AdvanceTo(ctx->cpu->busy_until_ns());
  uint64_t start_ns = clock_.now_ns();
  Status rec =
      RecoverPartitionsParallel(work, RecoverySource::kOnDemand, nullptr);
  for (RebuiltPartition& copy : adopted) {
    if (!rec.ok()) break;
    clock_.AdvanceTo(copy.done_ns);
    rec = Install(std::move(copy), RecoverySource::kOnDemand).status();
    m_adopted_rebuilds_->Add(1);
  }
  if (ctx != nullptr) {
    ctx->cpu->IdleUntil(clock_.now_ns());
    exec_ = ctx;
  }
  MMDB_RETURN_IF_ERROR(rec);
  obs::Track track = ctx != nullptr ? obs::WorkerTrack(ctx->worker)
                                    : obs::Track::kMainCpu;
  tracer_.Span(track, "recovery", "on-demand " + pid.ToString(), start_ns,
               clock_.now_ns() - start_ns);
  auto rp = v_->pm.Get(pid);
  if (rp.ok()) rp.value()->Touch();
  return rp;
}

Result<Partition*> Database::CreatePartitionInSegment(SegmentId segment,
                                                     Transaction* txn) {
  uint32_t number = v_->pm.PeekNextNumber(segment);
  PartitionId pid{segment, number};
  auto bin = log_->RegisterPartition(pid);
  if (!bin.ok()) return bin.status();
  auto created = v_->pm.CreatePartition(segment, bin.value());
  if (!created.ok()) {
    log_->ReleaseBin(bin.value());
    return created.status();
  }
  Partition* p = created.value();
  MMDB_CHECK(p->id() == pid);

  // Register the descriptor with its owner. A catalog partition's goes
  // to the stable root block. Any other's row is persisted in its own
  // system transaction (partition allocation, like file growth, is not
  // undone by user-transaction aborts) — except for an index under
  // construction, whose rows commit or vanish with it.
  auto list = v_->catalog.PartitionsOf(segment);
  if (!list.ok()) return list.status();
  PartitionDescriptor d;
  d.id = pid;
  d.resident = true;
  list.value()->push_back(d);
  if (segment == v_->catalog.catalog_segment()) {
    MMDB_RETURN_IF_ERROR(WriteCatalogRootBlock());
    return p;
  }
  PartitionDescriptor* stored = &list.value()->back();

  if (segment == v_->building_segment) {
    MMDB_RETURN_IF_ERROR(PersistDescriptorRow(txn, stored));
  } else {
    auto sys = Begin(TxnKind::kSystem);
    if (!sys.ok()) return sys.status();
    Status st = PersistDescriptorRow(sys.value(), stored);
    if (!st.ok()) {
      Status ab = Abort(sys.value());
      (void)ab;
      return st;
    }
    MMDB_RETURN_IF_ERROR(Commit(sys.value()));
  }
  // Mid-recovery DDL: the new partition is born resident, so it grows
  // numerator and denominator of the ready fraction together.
  recovery_progress_.OnPartitionCreated(clock_.now_ns());
  return p;
}

Status Database::PersistDescriptorRow(Transaction* txn,
                                      PartitionDescriptor* d) {
  auto row = v_->catalog.PartitionRow(*d);
  if (!row.ok()) return row.status();
  if (d->row_addr.IsNull()) {
    auto addr = InsertEntity(txn, v_->catalog.catalog_segment(), row.value());
    if (!addr.ok()) return addr.status();
    d->row_addr = addr.value();
    return Status::OK();
  }
  return UpdateEntity(txn, d->row_addr, row.value());
}

Status Database::PersistDiskMapChunks(Transaction* txn,
                                      const std::set<uint32_t>& chunks) {
  auto& addrs = v_->disk_map.chunk_row_addrs;
  for (uint32_t chunk : chunks) {
    if (addrs.size() <= chunk) addrs.resize(chunk + 1);
    std::vector<uint8_t> row = v_->disk_map.SerializeChunk(chunk);
    if (addrs[chunk].IsNull()) {
      auto a = InsertEntity(txn, v_->catalog.catalog_segment(), row);
      if (!a.ok()) return a.status();
      addrs[chunk] = a.value();
    } else {
      MMDB_RETURN_IF_ERROR(UpdateEntity(txn, addrs[chunk], row));
    }
  }
  return Status::OK();
}

Status Database::WriteCatalogRootBlock() {
  log_->SetCatalogRoot(v_->catalog.RootBlock(opts_.partition_size_bytes));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Status Database::CreateRelation(const std::string& name, Schema schema) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  ++ddl_epoch_;
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("schema has no columns");
  }
  SegmentId seg = v_->pm.AllocateSegment();
  auto rel = v_->catalog.CreateRelation(name, std::move(schema), seg);
  if (!rel.ok()) return rel.status();

  auto txn = Begin(TxnKind::kSystem);
  if (!txn.ok()) return txn.status();
  auto addr = InsertEntity(txn.value(), v_->catalog.catalog_segment(),
                           Catalog::SerializeRelationRow(*rel.value()));
  if (!addr.ok()) {
    Status ab = Abort(txn.value());
    (void)ab;
    MMDB_CHECK(v_->catalog.DropRelation(name).ok());
    return addr.status();
  }
  rel.value()->row_addr = addr.value();
  return Commit(txn.value());
}

Status Database::CreateIndex(const std::string& index_name,
                             const std::string& relation_name,
                             const std::string& column_name, IndexType type) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  ++ddl_epoch_;
  auto rel = v_->catalog.GetRelation(relation_name);
  if (!rel.ok()) return rel.status();
  int col = rel.value()->schema.FindColumn(column_name);
  if (col < 0) return Status::InvalidArgument("no column " + column_name);
  if (rel.value()->schema.columns()[col].type != ColumnType::kInt64) {
    return Status::NotSupported("indexes require int64 columns");
  }

  SegmentId seg = v_->pm.AllocateSegment();
  auto idx = v_->catalog.CreateIndex(index_name, rel.value()->id,
                                     static_cast<uint32_t>(col), type, seg);
  if (!idx.ok()) return idx.status();

  auto txn = Begin(TxnKind::kSystem);
  if (!txn.ok()) {
    MMDB_CHECK(v_->catalog.DropIndex(index_name).ok());
    return txn.status();
  }
  Transaction* t = txn.value();
  TxnEntityStore store(this, t);
  v_->building_segment = seg;

  // The existing tuples' keys, in partition and slot order.
  std::vector<node::Entry> existing;
  const Schema& schema = rel.value()->schema;
  Status st = WalkRows(
      nullptr, *rel.value(),
      [&](const EntityAddr& home, std::span<const uint8_t> bytes) -> Status {
        auto tuple = schema.Decode(bytes);
        if (!tuple.ok()) return tuple.status();
        existing.push_back({std::get<int64_t>(tuple.value()[col]), home});
        return Status::OK();
      });

  if (st.ok() && type == IndexType::kTTree) {
    auto tree =
        TTree::Build(store, seg, rel.value()->segment, existing,
                     opts_.ttree_node_capacity);
    if (!tree.ok()) {
      st = tree.status();
    } else {
      v_->ttrees.emplace(index_name, tree.value());
    }
  } else if (st.ok()) {
    auto hash = LinearHash::Build(store, seg, rel.value()->segment, existing,
                                  opts_.hash_initial_buckets,
                                  opts_.hash_node_capacity);
    if (!hash.ok()) {
      st = hash.status();
    } else {
      v_->hashes.emplace(index_name, hash.value());
    }
  }

  if (st.ok()) {
    auto addr = InsertEntity(t, v_->catalog.catalog_segment(),
                             Catalog::SerializeIndexRow(*idx.value()));
    if (!addr.ok()) {
      st = addr.status();
    } else {
      idx.value()->row_addr = addr.value();
      st = UpdateEntity(t, rel.value()->row_addr,
                        Catalog::SerializeRelationRow(*rel.value()));
    }
  }

  v_->building_segment = 0;
  if (!st.ok()) {
    Status ab = Abort(t);
    (void)ab;
    v_->ttrees.erase(index_name);
    v_->hashes.erase(index_name);
    // The abort undid the descriptor rows; release the partitions they
    // described and drop the index from the in-memory catalog.
    ReleaseSegmentStorage(idx.value()->partitions);
    MMDB_CHECK(v_->catalog.DropIndex(index_name).ok());
    return st;
  }
  return Commit(t);
}

Status Database::LogObjectDrop(
    Transaction* txn, uint32_t relation_id,
    const std::vector<PartitionDescriptor>& descriptors, EntityAddr row) {
  MMDB_RETURN_IF_ERROR(v_->locks.Acquire(
      txn->id(), LockResource::Relation(relation_id), LockMode::kX));
  MMDB_RETURN_IF_ERROR(log_->Drain(clock_.now_ns()));
  std::set<uint32_t> chunks;
  for (const PartitionDescriptor& d : descriptors) {
    if (d.has_checkpoint()) {
      MMDB_RETURN_IF_ERROR(v_->disk_map.Free(d.checkpoint_slot));
      chunks.insert(DiskAllocationMap::ChunkOf(d.checkpoint_slot));
    }
    if (!d.row_addr.IsNull()) {
      MMDB_RETURN_IF_ERROR(DeleteEntity(txn, d.row_addr));
    }
  }
  MMDB_RETURN_IF_ERROR(PersistDiskMapChunks(txn, chunks));
  return row.IsNull() ? Status::OK() : DeleteEntity(txn, row);
}

Status Database::AbortObjectDrop(
    Transaction* txn, const std::vector<PartitionDescriptor>& descriptors,
    Status why) {
  for (const PartitionDescriptor& d : descriptors) {
    if (d.has_checkpoint()) {
      Status rc = v_->disk_map.Reclaim(d.checkpoint_slot, d.id.Pack());
      (void)rc;
    }
  }
  Status ab = Abort(txn);
  (void)ab;
  return why;
}

void Database::ReleaseSegmentStorage(
    const std::vector<PartitionDescriptor>& descriptors) {
  for (const PartitionDescriptor& d : descriptors) {
    log_->DropPartition(d.id);
    Status st = v_->pm.DropPartition(d.id);
    NoteSpaceFreed();
    (void)st;  // non-resident partitions are fine
    if (d.has_checkpoint()) {
      // No committed descriptor refers to the image any more.
      checkpoint_disk_->ReleasePages(d.checkpoint_page,
                                     v_->disk_map.pages_per_slot());
      archive_->DropImage(d.id);
    }
  }
}

Status Database::DropIndex(const std::string& index_name) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  ++ddl_epoch_;
  auto idx = v_->catalog.GetIndex(index_name);
  if (!idx.ok()) return idx.status();
  auto rel = v_->catalog.GetRelationById(idx.value()->relation_id);
  if (!rel.ok()) return rel.status();

  auto txn_r = Begin(TxnKind::kSystem);
  if (!txn_r.ok()) return txn_r.status();
  Transaction* txn = txn_r.value();
  std::vector<PartitionDescriptor> descriptors = idx.value()->partitions;
  Status st = LogObjectDrop(txn, rel.value()->id, descriptors,
                            idx.value()->row_addr);
  if (st.ok()) {
    // Reflect the removal in the relation's persisted row.
    auto& names = rel.value()->index_names;
    names.erase(std::remove(names.begin(), names.end(), index_name),
                names.end());
    st = UpdateEntity(txn, rel.value()->row_addr,
                      Catalog::SerializeRelationRow(*rel.value()));
  }
  if (!st.ok()) {
    if (v_->catalog.GetIndex(index_name).ok()) {
      // Restore the in-memory index_names if we removed it.
      auto& names = rel.value()->index_names;
      if (std::find(names.begin(), names.end(), index_name) == names.end()) {
        names.push_back(index_name);
      }
    }
    return AbortObjectDrop(txn, descriptors, st);
  }
  MMDB_RETURN_IF_ERROR(Commit(txn));
  // Non-logged teardown after the commit point (crash before this leaves
  // only harmless orphaned bins/partitions; ids are never reused).
  ReleaseSegmentStorage(descriptors);
  v_->ttrees.erase(index_name);
  v_->hashes.erase(index_name);
  return v_->catalog.DropIndex(index_name);
}

Status Database::DropRelation(const std::string& relation_name) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  ++ddl_epoch_;
  auto rel = v_->catalog.GetRelation(relation_name);
  if (!rel.ok()) return rel.status();
  // Drop indexes first (each in its own system transaction).
  std::vector<std::string> index_names = rel.value()->index_names;
  for (const std::string& iname : index_names) {
    MMDB_RETURN_IF_ERROR(DropIndex(iname));
  }

  auto txn_r = Begin(TxnKind::kSystem);
  if (!txn_r.ok()) return txn_r.status();
  Transaction* txn = txn_r.value();
  std::vector<PartitionDescriptor> descriptors = rel.value()->partitions;
  Status st = LogObjectDrop(txn, rel.value()->id, descriptors,
                            rel.value()->row_addr);
  if (!st.ok()) return AbortObjectDrop(txn, descriptors, st);
  MMDB_RETURN_IF_ERROR(Commit(txn));
  ReleaseSegmentStorage(descriptors);
  return v_->catalog.DropRelation(relation_name);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Result<Transaction*> Database::Begin(TxnKind kind,
                                     const std::string& user_data,
                                     bool read_only) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  // A latched injected crash takes effect before any new transaction.
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_.get()));
  MainWork(50);
  Transaction* txn = v_->txns.Begin(kind);
  txn->set_begin_ns(vnow());
  if (read_only && kind == TxnKind::kUser) {
    // Snapshot acquisition: the newest commit stamp is the snapshot csn;
    // everything committed up to here is visible, nothing after. The
    // registration keeps the reclaimer from pruning past this reader.
    txn->SetReadOnly(log_->last_csn());
    v_->versions.BeginSnapshot(log_->last_csn());
  }
  if (exec_ != nullptr) txn->set_log_stream(log_->Route(kind, exec_->worker));
  MMDB_RETURN_IF_ERROR(
      AuditUserTxn(kind, txn->id(), AuditKind::kBegin, user_data));
  return txn;
}

Status Database::Commit(Transaction* txn) {
  if (txn == nullptr || !txn->active()) {
    return Status::InvalidArgument("commit of inactive transaction");
  }
  if (txn->read_only()) return CommitReadOnly(txn);
  MainWork(100);
  uint64_t id = txn->id();
  TxnKind kind = txn->kind();
  uint64_t begin_ns = txn->begin_ns();
  auto stamp = log_->Commit(txn, worker_cpu(), vnow());
  if (!stamp.ok()) return stamp.status();
  if (kind == TxnKind::kUser) {
    uint64_t until = log_->ApplyCommitDurability(txn->redo_bytes(), vnow());
    if (until != 0) WaitUntil(until);
    const obs::Track track = TxnTrack();
    m_txn_latency_ns_->Record(static_cast<double>(vnow() - begin_ns));
    m_commit_series_->Add(vnow());
    tracer_.Span(track, "txn", "txn " + std::to_string(id), begin_ns,
                 vnow() - begin_ns);
    if (tracer_.enabled()) {
      // Counter tracks: Perfetto renders these as stepped curves next to
      // the swimlanes. Sampled at commit points — the natural cadence of
      // the simulation's observable state; one curve per stream.
      const LogStream& ls = log_->of(txn);
      tracer_.Counter(obs::Track::kSystem, "gauge",
                      "slb.occupancy_bytes" + ls.suffix(), vnow(),
                      static_cast<double>(ls.slb().occupancy_bytes()));
      tracer_.Counter(obs::Track::kSystem, "gauge", "lock.wait_queue_depth",
                      vnow(), static_cast<double>(v_->locks.waiting_count()));
    }
  }
  MMDB_RETURN_IF_ERROR(AuditUserTxn(kind, id, AuditKind::kCommit));
  InstallCommittedVersions(txn, stamp.value().epoch, stamp.value().csn);
  v_->undo.Discard(id);
  NoteGrants(v_->locks.ReleaseAll(id));
  txn->set_state(TxnState::kCommitted);
  v_->txns.NoteCommit();
  v_->txns.Finish(id);

  if (kind == TxnKind::kUser && !in_maintenance_) {
    MMDB_RETURN_IF_ERROR(PostCommitMaintenance());
  }
  return Status::OK();
}

Status Database::AuditUserTxn(TxnKind kind, uint64_t id, AuditKind what,
                              const std::string& data) {
  if (!opts_.audit_logging || kind != TxnKind::kUser) return Status::OK();
  return audit_->Append(AuditRecord{id, vnow(), what, data});
}

Status Database::PostCommitMaintenance() {
  // Version reclamation rides the same between-transaction duty cycle as
  // checkpoints (§2.4). It is pure bookkeeping — no virtual time — so it
  // runs before the clock hand-off below.
  v_->versions.Prune();
  if (exec_ == nullptr) {
    if (opts_.auto_pump_recovery) {
      MMDB_RETURN_IF_ERROR(PumpRecovery());
    }
    if (opts_.auto_run_checkpoints) {
      MMDB_RETURN_IF_ERROR(RunCheckpoints());
    }
    return Status::OK();
  }
  // Checkpoint transactions are the main CPU's serial between-transaction
  // duty (§2.4): the committing worker leaves its private timeline, joins
  // the shared system clock, performs the maintenance there, and rejoins
  // its lane at whatever time that took. With no pending work the clock
  // does not move and the worker pays nothing.
  ExecContext* ctx = std::exchange(exec_, nullptr);
  clock_.AdvanceTo(ctx->cpu->busy_until_ns());
  uint64_t c0 = clock_.now_ns();
  Status st = Status::OK();
  if (opts_.auto_pump_recovery) st = PumpRecovery();
  if (st.ok() && opts_.auto_run_checkpoints) st = RunCheckpoints();
  // Rejoin only when maintenance actually consumed time; otherwise the
  // worker must not be dragged to a frontier another worker set.
  if (clock_.now_ns() > c0) ctx->cpu->IdleUntil(clock_.now_ns());
  exec_ = ctx;
  return st;
}

Status Database::Abort(Transaction* txn) {
  if (txn == nullptr || !txn->active()) {
    return Status::InvalidArgument("abort of inactive transaction");
  }
  if (txn->read_only()) return AbortReadOnly(txn);
  uint64_t id = txn->id();
  MMDB_RETURN_IF_ERROR(ApplyUndo(txn, v_->undo.TakeReversed(id)));
  MMDB_RETURN_IF_ERROR(log_->Discard(txn, worker_cpu()));
  NoteGrants(v_->locks.ReleaseAll(id));
  TxnKind kind = txn->kind();
  if (kind == TxnKind::kUser) {
    const obs::Track track = TxnTrack();
    m_abort_series_->Add(vnow());
    tracer_.Span(track, "txn", "txn " + std::to_string(id) + " (abort)",
                 txn->begin_ns(), vnow() - txn->begin_ns());
  }
  txn->set_state(TxnState::kAborted);
  v_->txns.NoteAbort();
  v_->txns.Finish(id);
  return AuditUserTxn(kind, id, AuditKind::kAbort);
}

void Database::InstallCommittedVersions(Transaction* txn, uint32_t epoch,
                                        uint64_t csn) {
  const std::vector<LogRecord>* chain = v_->undo.Peek(txn->id());
  if (chain == nullptr || chain->empty()) return;
  std::set<EntityAddr> addrs;
  for (const LogRecord& rec : *chain) {
    addrs.insert(EntityAddr{rec.partition, rec.slot});
  }
  const bool tracking = v_->versions.tracking();
  for (const EntityAddr& addr : addrs) {
    if (!tracking) {
      // No snapshot is live: the partition alone is the truth and the
      // chain (pre-image plus any history) is dead weight.
      v_->versions.Drop(addr);
      continue;
    }
    auto pr = v_->pm.Get(addr.partition);
    if (!pr.ok()) {
      v_->versions.Drop(addr);
      continue;
    }
    Partition* p = pr.value();
    if (p->SlotUsed(addr.slot)) {
      auto bytes = p->Read(addr.slot);
      if (bytes.ok()) {
        v_->versions.Install(addr, epoch, csn, /*deleted=*/false,
                             bytes.value());
        continue;
      }
    }
    v_->versions.Install(addr, epoch, csn, /*deleted=*/true, {});
  }
}

Status Database::CommitReadOnly(Transaction* txn) {
  // Snapshot readers wrote nothing: no SLB chain to move, no durability
  // wait, no locks to release — just the snapshot to retire.
  MainWork(100);
  uint64_t id = txn->id();
  uint64_t begin_ns = txn->begin_ns();
  if (txn->kind() == TxnKind::kUser) {
    const obs::Track track = TxnTrack();
    m_txn_latency_ns_->Record(static_cast<double>(vnow() - begin_ns));
    m_commit_series_->Add(vnow());
    tracer_.Span(track, "txn", "txn " + std::to_string(id) + " (snapshot)",
                 begin_ns, vnow() - begin_ns);
  }
  MMDB_RETURN_IF_ERROR(AuditUserTxn(txn->kind(), id, AuditKind::kCommit));
  v_->versions.EndSnapshot(txn->snapshot_csn());
  v_->versions.Prune();
  txn->set_state(TxnState::kCommitted);
  v_->txns.NoteCommit();
  v_->txns.Finish(id);
  return Status::OK();
}

Status Database::AbortReadOnly(Transaction* txn) {
  uint64_t id = txn->id();
  TxnKind kind = txn->kind();  // `txn` is freed by Finish below
  if (kind == TxnKind::kUser) {
    const obs::Track track = TxnTrack();
    m_abort_series_->Add(vnow());
    tracer_.Span(track, "txn", "txn " + std::to_string(id) + " (abort)",
                 txn->begin_ns(), vnow() - txn->begin_ns());
  }
  v_->versions.EndSnapshot(txn->snapshot_csn());
  v_->versions.Prune();
  txn->set_state(TxnState::kAborted);
  v_->txns.NoteAbort();
  v_->txns.Finish(id);
  return AuditUserTxn(kind, id, AuditKind::kAbort);
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<RelationInfo*> Database::LookupRelation(Transaction* txn,
                                               const std::string& name,
                                               bool write) {
  if (write && txn != nullptr && txn->read_only()) {
    return Status::InvalidArgument("read-only transaction cannot write");
  }
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  if (txn == nullptr || !txn->active()) {
    return Status::InvalidArgument("inactive transaction");
  }
  return v_->catalog.GetRelation(name);
}

template <typename Index>
Result<Index*> Database::AttachIndex(std::map<std::string, Index>* attached,
                                     const std::string& name, IndexType type,
                                     const std::string& what) {
  auto it = attached->find(name);
  if (it != attached->end()) return &it->second;
  auto idx = v_->catalog.GetIndex(name);
  if (!idx.ok()) return idx.status();
  if (idx.value()->type != type) {
    return Status::InvalidArgument(name + " is not a " + what);
  }
  MMDB_RETURN_IF_ERROR(
      ResidentPartition(PartitionId{idx.value()->segment, 0}).status());
  TxnEntityStore store(this, nullptr);
  auto index = Index::Attach(store, idx.value()->segment);
  if (!index.ok()) return index.status();
  return &attached->emplace(name, index.value()).first->second;
}

Result<TTree*> Database::GetTTree(const std::string& name) {
  return AttachIndex(&v_->ttrees, name, IndexType::kTTree, "T-Tree");
}

Result<LinearHash*> Database::GetLinearHash(const std::string& name) {
  return AttachIndex(&v_->hashes, name, IndexType::kLinearHash,
                     "linear hash index");
}

Status Database::MaintainIndexes(Transaction* txn, RelationInfo* rel,
                                 const Tuple* before, const Tuple* after,
                                 const EntityAddr& addr) {
  TxnEntityStore store(this, txn);
  for (const std::string& iname : rel->index_names) {
    auto idx = v_->catalog.GetIndex(iname);
    if (!idx.ok()) return idx.status();
    auto key = [&](const Tuple* t) {
      return std::get<int64_t>((*t)[idx.value()->column]);
    };
    if (before != nullptr && after != nullptr && key(before) == key(after)) {
      continue;
    }
    // Remove the old entry, then insert the new one.
    auto apply = [&](auto index) -> Status {
      if (!index.ok()) return index.status();
      if (before != nullptr) {
        MMDB_RETURN_IF_ERROR(index.value()->Remove(store, key(before), addr));
      }
      if (after == nullptr) return Status::OK();
      return index.value()->Insert(store, key(after), addr);
    };
    MMDB_RETURN_IF_ERROR(idx.value()->type == IndexType::kTTree
                             ? apply(GetTTree(iname))
                             : apply(GetLinearHash(iname)));
  }
  return Status::OK();
}

Result<EntityAddr> Database::Insert(Transaction* txn,
                                    const std::string& relation,
                                    const Tuple& tuple) {
  auto rel = LookupRelation(txn, relation, /*write=*/true);
  if (!rel.ok()) return rel.status();
  MMDB_RETURN_IF_ERROR(rel.value()->schema.Validate(tuple));
  MMDB_RETURN_IF_ERROR(
      LockForTxn(txn, LockResource::Relation(rel.value()->id), LockMode::kIX));
  auto bytes = rel.value()->schema.Encode(tuple);
  if (!bytes.ok()) return bytes.status();
  auto addr = InsertEntity(txn, rel.value()->segment, bytes.value());
  if (!addr.ok()) return addr.status();
  MMDB_RETURN_IF_ERROR(
      MaintainIndexes(txn, rel.value(), nullptr, &tuple, addr.value()));
  return addr;
}

Status Database::Update(Transaction* txn, const std::string& relation,
                        const EntityAddr& addr, const Tuple& tuple) {
  auto rel = LookupRelation(txn, relation, /*write=*/true);
  if (!rel.ok()) return rel.status();
  MMDB_RETURN_IF_ERROR(rel.value()->schema.Validate(tuple));
  MMDB_RETURN_IF_ERROR(
      LockForTxn(txn, LockResource::Relation(rel.value()->id), LockMode::kIX));
  auto old = ReadRow(txn, *rel.value(), addr);
  if (!old.ok()) return old.status();
  auto old_tuple = rel.value()->schema.Decode(old.value().bytes);
  if (!old_tuple.ok()) return old_tuple.status();
  MMDB_RETURN_IF_ERROR(UpdateRow(txn, *rel.value(), addr, old.value(), tuple));
  return MaintainIndexes(txn, rel.value(), &old_tuple.value(), &tuple, addr);
}

Status Database::Delete(Transaction* txn, const std::string& relation,
                        const EntityAddr& addr) {
  auto rel = LookupRelation(txn, relation, /*write=*/true);
  if (!rel.ok()) return rel.status();
  MMDB_RETURN_IF_ERROR(
      LockForTxn(txn, LockResource::Relation(rel.value()->id), LockMode::kIX));
  auto old = ReadRow(txn, *rel.value(), addr);
  if (!old.ok()) return old.status();
  auto old_tuple = rel.value()->schema.Decode(old.value().bytes);
  if (!old_tuple.ok()) return old_tuple.status();
  MMDB_RETURN_IF_ERROR(DeleteEntity(txn, addr));
  if (old.value().moved_to) {
    MMDB_RETURN_IF_ERROR(DeleteEntity(txn, *old.value().moved_to));
  }
  return MaintainIndexes(txn, rel.value(), &old_tuple.value(), nullptr, addr);
}

Result<Tuple> Database::Read(Transaction* txn, const std::string& relation,
                             const EntityAddr& addr) {
  auto rel = LookupRelation(txn, relation);
  if (!rel.ok()) return rel.status();
  if (txn == nullptr || !txn->read_only()) {
    MMDB_RETURN_IF_ERROR(LockForTxn(
        txn, LockResource::Relation(rel.value()->id), LockMode::kIS));
  }
  auto row = ReadRow(txn, *rel.value(), addr);
  if (!row.ok()) return row.status();
  return rel.value()->schema.Decode(row.value().bytes);
}

Result<std::vector<EntityAddr>> Database::IndexLookup(
    Transaction* txn, const std::string& index_name, int64_t key) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  if (txn == nullptr || !txn->active()) {
    return Status::InvalidArgument("inactive transaction");
  }
  auto idx = v_->catalog.GetIndex(index_name);
  if (!idx.ok()) return idx.status();
  if (!txn->read_only()) {
    MMDB_RETURN_IF_ERROR(LockForTxn(
        txn, LockResource::Relation(idx.value()->relation_id), LockMode::kIS));
  }
  TxnEntityStore store(this, txn);
  if (idx.value()->type == IndexType::kTTree) {
    auto tree = GetTTree(index_name);
    if (!tree.ok()) return tree.status();
    return tree.value()->Lookup(store, key);
  }
  auto hash = GetLinearHash(index_name);
  if (!hash.ok()) return hash.status();
  return hash.value()->Lookup(store, key);
}

Result<std::vector<node::Entry>> Database::IndexRange(
    Transaction* txn, const std::string& index_name, int64_t lo, int64_t hi) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  if (txn == nullptr || !txn->active()) {
    return Status::InvalidArgument("inactive transaction");
  }
  auto idx = v_->catalog.GetIndex(index_name);
  if (!idx.ok()) return idx.status();
  if (idx.value()->type != IndexType::kTTree) {
    return Status::NotSupported("range scans require a T-Tree index");
  }
  if (!txn->read_only()) {
    MMDB_RETURN_IF_ERROR(LockForTxn(
        txn, LockResource::Relation(idx.value()->relation_id), LockMode::kIS));
  }
  TxnEntityStore store(this, txn);
  auto tree = GetTTree(index_name);
  if (!tree.ok()) return tree.status();
  return tree.value()->Range(store, lo, hi);
}

Result<std::vector<std::pair<EntityAddr, Tuple>>> Database::Scan(
    Transaction* txn, const std::string& relation) {
  auto rel = LookupRelation(txn, relation);
  if (!rel.ok()) return rel.status();
  // A snapshot scan takes no relation S-lock: writers keep committing
  // while it runs.
  const bool snapshot = txn->read_only();
  if (!snapshot) {
    MMDB_RETURN_IF_ERROR(LockForTxn(
        txn, LockResource::Relation(rel.value()->id), LockMode::kS));
  }
  std::vector<std::pair<EntityAddr, Tuple>> out;
  const Schema& schema = rel.value()->schema;
  MMDB_RETURN_IF_ERROR(WalkRows(
      txn, *rel.value(),
      [&](const EntityAddr& home, std::span<const uint8_t> bytes) -> Status {
        auto tuple = schema.Decode(bytes);
        if (!tuple.ok()) return tuple.status();
        out.emplace_back(home, std::move(tuple).value());
        MainWork(10);
        if (snapshot) v_->versions.NoteSnapshotRead();
        return Status::OK();
      }));
  return out;
}

// ---------------------------------------------------------------------------
// Recovery control
// ---------------------------------------------------------------------------

Status Database::RecoverRelation(const std::string& relation) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  auto parts = v_->catalog.RelationPartitions(relation);
  if (!parts.ok()) return parts.status();
  // Predeclared recovery restores the whole relation in one batch, so all
  // recovery lanes can work on its partitions concurrently.
  std::vector<PartitionId> work;
  for (const PartitionDescriptor* d : parts.value()) {
    if (!d->resident) work.push_back(d->id);
  }
  return RecoverPartitionsParallel(work, RecoverySource::kBackground, nullptr);
}

Status Database::BackgroundRecoveryStep(bool* done) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  // One batch per call, hottest partitions first, so transactions stop
  // faulting as early as possible.
  const size_t batch = std::max<uint32_t>(1, opts_.recovery_parallelism);
  std::vector<PartitionId> work;
  PartitionId pid;
  while (work.size() < batch && NextSweepItem(&pid)) work.push_back(pid);
  *done = work.empty();
  if (*done) return Status::OK();
  const uint64_t start_ns = clock_.now_ns();
  MMDB_RETURN_IF_ERROR(
      RecoverPartitionsParallel(work, RecoverySource::kBackground, nullptr));
  tracer_.Span(obs::Track::kMainCpu, "recovery",
               "background batch (" + std::to_string(work.size()) + ")",
               start_ns, clock_.now_ns() - start_ns);
  return Status::OK();
}

namespace {
bool AllResident(const std::vector<const PartitionDescriptor*>& parts) {
  return std::all_of(parts.begin(), parts.end(),
                     [](const PartitionDescriptor* d) { return d->resident; });
}
}  // namespace

bool Database::FullyResident() {
  return AllResident(v_->catalog.DataPartitions());
}

bool Database::IsRelationResident(const std::string& relation) {
  auto parts = v_->catalog.RelationPartitions(relation);
  return parts.ok() && AllResident(parts.value());
}

Status Database::StartLogDiskResilver(int member) {
  if (member != 0 && member != 1) {
    return Status::InvalidArgument("re-silver member must be 0 or 1");
  }
  sim::Disk& target = log_disks().member(member);
  if (target.media_failed()) target.RepairMedia();
  MMDB_RETURN_IF_ERROR(resilver_->Start(member, clock_.now_ns()));
  tracer_.Instant(obs::Track::kSystem, "resilver",
                  "re-silver start " + target.name(), clock_.now_ns());
  return Status::OK();
}

Status Database::ResilverStep(bool* done) {
  uint64_t done_ns = 0;
  MMDB_RETURN_IF_ERROR(resilver_->Step(clock_.now_ns(), &done_ns, done));
  if (done_ns > clock_.now_ns()) clock_.AdvanceTo(done_ns);
  return Status::OK();
}

Status Database::ResilverToCompletion() {
  bool done = false;
  while (!done) {
    MMDB_RETURN_IF_ERROR(ResilverStep(&done));
  }
  return Status::OK();
}

Status Database::FailAndRecoverCheckpointDisk() {
  checkpoint_disk_->FailMedia();
  checkpoint_disk_->RepairMedia();
  uint64_t done = 0;
  MMDB_RETURN_IF_ERROR(archive_->RecoverCheckpointDisk(
      checkpoint_disk_.get(), clock_.now_ns(), &done));
  clock_.AdvanceTo(done);
  return Status::OK();
}

DatabaseStats Database::GetStats() const {
  // A view over the metrics registry for everything counter-backed;
  // genuinely live state (residency, CPU timelines, stable high-water)
  // is sampled from the hardware models directly.
  DatabaseStats s;
  s.txns_committed = metrics_.counter_value("txn.committed");
  s.txns_aborted = metrics_.counter_value("txn.aborted");
  s.records_logged = log_->CounterTotal(metrics_, "slb.records_appended");
  s.bytes_logged = log_->CounterTotal(metrics_, "slb.bytes_appended");
  s.records_sorted = log_->CounterTotal(metrics_, "recovery.records_sorted");
  s.log_pages_flushed = log_->CounterTotal(metrics_, "log.pages_flushed");
  s.checkpoints_completed = metrics_.counter_value("checkpoint.completed");
  s.checkpoints_update_count =
      log_->CounterTotal(metrics_, "recovery.ckpt_requests_update_count");
  s.checkpoints_age =
      log_->CounterTotal(metrics_, "recovery.ckpt_requests_age");
  s.partitions_resident = v_->pm.resident_count();
  s.on_demand_recoveries = metrics_.counter_value("recovery.on_demand");
  s.background_recoveries = metrics_.counter_value("recovery.background");
  s.main_cpu_instructions = main_cpu_.total_instructions();
  s.recovery_cpu_instructions = recovery_cpu_.total_instructions();
  s.stable_memory_high_water = meter_->high_water_bytes();
  s.lock_conflicts = metrics_.counter_value("lock.conflicts");
  s.log_forces = metrics_.counter_value("log.forces");
  const obs::Histogram* wait = metrics_.find_histogram("commit.wait_ns");
  s.commit_wait_ms_total = wait->sum() * 1e-6;
  s.commits_waited = wait->count();
  return s;
}

}  // namespace mmdb
