#include "core/log_streams.h"

#include <algorithm>
#include <utility>

#include "core/database.h"
#include "util/logging.h"

namespace mmdb {

namespace {
// WAL pages written by the disk-force / group-commit baselines use a
// private page namespace on the log disks so they never collide with
// bin-chain LSNs.
constexpr uint64_t kWalPageBase = 1ull << 62;
}  // namespace

LogStreams::LogStreams(const DatabaseOptions& opts,
                       const sim::CpuModel& main_cpu,
                       sim::CpuModel* recovery_cpu,
                       sim::StableMemoryMeter* meter,
                       fault::FaultInjector* fault,
                       obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : opts_(opts),
      meter_(meter),
      fault_(fault),
      gate_ns_(static_cast<uint64_t>(opts.lock_instructions *
                                     main_cpu.ns_per_instruction())),
      m_log_forces_(metrics->counter("log.forces")),
      m_commit_wait_ns_(metrics->histogram("commit.wait_ns")) {
  streams_.reserve(opts_.log_streams);
  for (uint32_t s = 0; s < opts_.log_streams; ++s) {
    const std::string tag = s == 0 ? "" : std::to_string(s);
    LogStream& ls = streams_.emplace_back(s == 0 ? "" : "." + tag);
    ls.slb = std::make_unique<StableLogBuffer>(
        StableLogBuffer::Config{opts_.slb_block_bytes,
                                opts_.slb_capacity_bytes},
        meter_);
    ls.slt = std::make_unique<StableLogTail>(
        StableLogTail::Config{opts_.directory_entries, 50,
                              opts_.log_page_bytes},
        meter_);
    ls.disks = std::make_unique<sim::DuplexedDisk>("log" + tag,
                                                   opts_.log_disk_params);
    ls.writer = std::make_unique<LogDiskWriter>(
        LogDiskWriter::Config{opts_.log_page_bytes, opts_.log_window_pages,
                              opts_.grace_pages},
        ls.disks.get());
    ls.recovery = std::make_unique<RecoveryManager>(
        RecoveryManager::Config{opts_.costs, opts_.n_update,
                                opts_.log_streams > 1},
        ls.slb.get(), ls.slt.get(), ls.writer.get(), recovery_cpu);
    ls.slb->SetFaultInjector(fault_);
    ls.slt->SetFaultInjector(fault_);
    ls.disks->SetFaultInjector(fault_);
    ls.writer->SetFaultInjector(fault_);
    ls.recovery->SetFaultInjector(fault_);
    ls.slb->AttachMetrics(metrics, ls.suffix);
    ls.slt->AttachMetrics(metrics, ls.suffix);
    ls.disks->AttachMetrics(metrics);
    ls.writer->AttachMetrics(metrics, ls.suffix);
    ls.writer->AttachTracer(tracer, obs::LogDiskTrack(s));
    ls.recovery->AttachMetrics(metrics, ls.suffix);
  }
}

void LogStreams::Gate(LogStream& ls, sim::CpuModel* worker) {
  if (worker == nullptr) return;
  uint64_t ready = worker->busy_until_ns();
  uint64_t done = ls.gate.Occupy(ready, gate_ns_);
  // The allocation bookkeeping itself is already charged through the
  // copy-cost instructions; only the queueing delay behind another
  // worker inside the critical section costs extra. A single worker
  // therefore never pays anything here.
  if (done > ready + gate_ns_) worker->Stall(done - ready - gate_ns_);
}

Status LogStreams::Append(const Transaction* txn, const LogRecord& redo,
                          sim::CpuModel* worker, uint64_t now_ns) {
  LogStream& ls = of(txn);
  uint64_t blocks_before = ls.slb->blocks_allocated();
  Status st = ls.slb->Append(txn->id(), redo);
  if (st.IsFull()) {
    // Let the sort processes free committed blocks, then retry once.
    // Unfenced epochs pin their blocks, so fence and drain every stream.
    MMDB_RETURN_IF_ERROR(Drain(now_ns));
    st = ls.slb->Append(txn->id(), redo);
  }
  if (!st.ok()) return st;
  if (ls.slb->blocks_allocated() != blocks_before) Gate(ls, worker);
  return Status::OK();
}

Result<LogStreams::Stamp> LogStreams::Commit(const Transaction* txn,
                                             sim::CpuModel* worker,
                                             uint64_t now_ns) {
  // Moving the chain to the committed list touches the SLB's shared
  // lists: the same critical section as block allocation (§2.3.1).
  LogStream& ls = of(txn);
  Gate(ls, worker);
  if (streams_.size() == 1) {
    // No group-commit stamp (exact parity with the paper's logger), but
    // the version store still needs a total commit order. Bumped only
    // after the SLB commit succeeds: a crash-faulted commit must never
    // install versions.
    MMDB_RETURN_IF_ERROR(ls.slb->Commit(txn->id()));
    return Stamp{0, ++epoch_csn_last_};
  }
  // Stamp before moving the chain: a crash inside the SLB commit's entry
  // barrier leaves the chain uncommitted while the harmless ledger
  // advance stands. The epoch is read after the gate's stall.
  if (worker != nullptr) now_ns = worker->busy_until_ns();
  epoch_stamped_last_ = std::max<uint32_t>(
      static_cast<uint32_t>(now_ns / opts_.epoch_interval_ns) + 1,
      epoch_stamped_last_);
  last_commit_ = Stamp{epoch_stamped_last_, ++epoch_csn_last_};
  MMDB_RETURN_IF_ERROR(
      ls.slb->Commit(txn->id(), last_commit_.epoch, last_commit_.csn));
  if (txn->kind() != TxnKind::kUser) {
    // Checkpoint, system and DDL commits are fenced durable on the spot:
    // their catalog rows and descriptor updates must never be discarded
    // by the cross-stream epoch rule.
    MMDB_RETURN_IF_ERROR(Fence());
  }
  return last_commit_;
}

uint64_t LogStreams::WriteWalPages(uint64_t bytes, uint64_t now_ns) {
  const uint64_t pages = std::max<uint64_t>(
      1, (bytes + opts_.log_page_bytes - 1) / opts_.log_page_bytes);
  std::vector<uint8_t> marker(16, 0);
  for (uint64_t p = 0; p < pages; ++p) {
    now_ns = streams_[0].disks->WritePage(kWalPageBase + wal_page_counter_++,
                                          marker, now_ns,
                                          sim::SeekClass::kSequential);
  }
  m_log_forces_->Add(1);
  return now_ns;
}

uint64_t LogStreams::ApplyCommitDurability(uint64_t redo_bytes,
                                           uint64_t now_ns) {
  switch (opts_.commit_mode) {
    case CommitMode::kStableMemory:
      // Instant: the REDO records already sit in stable memory.
      return 0;
    case CommitMode::kDiskForce: {
      if (redo_bytes == 0) return 0;  // read-only
      uint64_t done = WriteWalPages(redo_bytes, now_ns);
      m_commit_wait_ns_->Record(static_cast<double>(done - now_ns));
      return done;
    }
    case CommitMode::kGroupCommit: {
      group_pending_bytes_ += redo_bytes;
      group_pending_since_ns_.push_back(now_ns);
      if (group_pending_since_ns_.size() < opts_.group_commit_txns) return 0;
      // The group's flush starts at the flushing commit's time; members
      // from other workers precommitted at `since` and wait the
      // difference (0 for one ahead of the flusher).
      uint64_t done = WriteWalPages(group_pending_bytes_, now_ns);
      for (uint64_t since : group_pending_since_ns_) {
        m_commit_wait_ns_->Record(
            static_cast<double>(done > since ? done - since : 0));
      }
      group_pending_since_ns_.clear();
      group_pending_bytes_ = 0;
      return done;
    }
  }
  return 0;
}

Status LogStreams::Fence() {
  if (streams_.size() == 1) return Status::OK();
  for (LogStream& ls : streams_) {
    if (ls.flushed_epoch == epoch_stamped_last_) continue;
    // The per-stream epoch flush marker is one small stable-memory write.
    // A crash landing between two streams' markers is exactly the group-
    // commit window: the epoch is acknowledged on a prefix of streams
    // only, and the next restart's frontier discards it everywhere.
    meter_->ChargeWrite(8);
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    ls.flushed_epoch = epoch_stamped_last_;
  }
  return Status::OK();
}

Status LogStreams::Drain(uint64_t now_ns, uint64_t max_records) {
  MMDB_RETURN_IF_ERROR(Fence());
  for (LogStream& ls : streams_) {
    auto n = ls.recovery->Pump(max_records, now_ns, PumpBound(ls));
    if (!n.ok()) return n.status();
  }
  return Status::OK();
}

void LogStreams::OnCrash() {
  if (streams_.size() > 1) {
    // Cross-stream discard invariant: an epoch not acknowledged on EVERY
    // stream at the crash is discarded on every stream, so no committed
    // transaction survives on one stream while a conflicting earlier one
    // vanishes on another.
    for (const LogStream& ls : streams_) {
      epoch_discard_frontier_ =
          std::min(epoch_discard_frontier_, ls.flushed_epoch);
    }
    for (LogStream& ls : streams_) {
      ls.slb->DiscardCommittedAfter(epoch_discard_frontier_);
    }
  }
  for (LogStream& ls : streams_) ls.slb->OnCrash();
  for (LogStream& ls : streams_) ls.recovery->RebuildFirstLsnList();
}

Result<uint32_t> LogStreams::RegisterPartition(PartitionId pid) {
  // All streams' bin free-lists evolve identically, so the partition gets
  // the same bin index everywhere and a record's bin_index addresses the
  // right bin whichever stream carried it. A stream that cannot fit the
  // info block undoes the earlier streams' registrations, or the tables
  // would disagree from then on.
  uint32_t bin = 0;
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    auto b = streams_[s].slt->RegisterPartition(pid);
    if (!b.ok()) {
      ReleaseBin(bin, s);
      return b.status();
    }
    MMDB_CHECK(s == 0 || b.value() == bin);
    bin = b.value();
  }
  return bin;
}

void LogStreams::ReleaseBin(uint32_t bin, uint32_t streams) {
  for (uint32_t s = 0; s < std::min(streams, size()); ++s) {
    Status st = streams_[s].slt->ReleaseBin(bin);
    MMDB_CHECK(st.ok() || st.IsFault());
  }
}

Status LogStreams::ReleaseUndescribed(
    const std::unordered_set<PartitionId>& described) {
  for (LogStream& ls : streams_) {
    for (uint32_t b = 0; b < ls.slt->bin_count(); ++b) {
      auto bin = ls.slt->bin(b);
      if (bin.ok() && described.count(bin.value()->partition) == 0) {
        ls.recovery->OnPartitionDropped(b);
        MMDB_RETURN_IF_ERROR(ls.slt->ReleaseBin(b));
      }
    }
  }
  return Status::OK();
}

Result<LogStreams::ChainLog> LogStreams::ReadChain(uint32_t s, uint32_t bin,
                                                   uint64_t walk_ns,
                                                   bool fanned) {
  LogStream& ls = streams_[s];
  ChainLog log;
  std::vector<uint64_t> lsns;
  uint64_t backward = 0, walked_ns = walk_ns;
  MMDB_RETURN_IF_ERROR(ls.recovery->CollectPageList(
      bin, walk_ns, &lsns, &backward, &walked_ns, fanned));
  std::vector<uint8_t> bytes;
  std::vector<size_t> chunk_end;  // stream offset after each chunk
  log.read_ns = walked_ns;
  for (uint64_t lsn : lsns) {
    ParsedLogPage page;
    uint64_t done_ns = 0;
    MMDB_RETURN_IF_ERROR(ls.writer->ReadPage(
        lsn, walked_ns, sim::SeekClass::kNear, &page, &done_ns, fanned));
    bytes.insert(bytes.end(), page.payload.begin(), page.payload.end());
    // The stream is consumed in LSN order, so a page's bytes are usable
    // only once every earlier page has arrived too: prefix max.
    log.read_ns = std::max(log.read_ns, done_ns);
    chunk_end.push_back(bytes.size());
    log.arrived_ns.push_back(log.read_ns);
  }
  log.pages_read = lsns.size();
  auto b = ls.slt->bin(bin);
  if (!b.ok()) return b.status();
  // The active page is a stable-memory read: no disk time.
  const std::vector<uint8_t>& active = b.value()->active_page;
  if (!active.empty()) {
    meter_->ChargeRead(active.size());
    bytes.insert(bytes.end(), active.begin(), active.end());
    chunk_end.push_back(bytes.size());
    log.arrived_ns.push_back(log.read_ns);
  }
  std::vector<size_t> ends;
  MMDB_RETURN_IF_ERROR(ParseLogStream(bytes, &log.records,
                                      /*with_epoch=*/streams_.size() > 1,
                                      &ends));
  uint32_t c = 0;
  for (size_t end : ends) {
    while (end > chunk_end[c]) ++c;
    log.chunk_of.push_back(c);
  }
  return log;
}

}  // namespace mmdb
