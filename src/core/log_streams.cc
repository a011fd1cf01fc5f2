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

sim::DiskParams LogDiskParams(const DatabaseOptions& opts) {
  sim::DiskParams p = opts.log_disk_params;
  p.page_size_bytes = opts.log_page_bytes;
  return p;
}

std::string Tag(uint32_t index) {
  return index == 0 ? "" : std::to_string(index);
}
}  // namespace

LogStream::LogStream(const DatabaseOptions& opts, uint32_t index,
                     sim::StableMemoryMeter* meter,
                     sim::CpuModel* recovery_cpu,
                     fault::FaultInjector* fault,
                     obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : opts_(opts),
      suffix_(index == 0 ? "" : "." + Tag(index)),
      meter_(meter),
      cpu_(recovery_cpu),
      fault_(fault),
      slb_({opts.slb_block_bytes, opts.slb_capacity_bytes}, meter),
      slt_({opts.directory_entries, opts.log_page_bytes}, meter),
      disks_("log" + Tag(index), LogDiskParams(opts)),
      writer_({opts.log_page_bytes, opts.log_window_pages, opts.grace_pages},
              &disks_),
      gate_("slb.alloc_gate" + suffix_) {
  slb_.SetFaultInjector(fault);
  slt_.SetFaultInjector(fault);
  disks_.SetFaultInjector(fault);
  writer_.SetFaultInjector(fault);
  writer_.AttachTracer(tracer, obs::LogDiskTrack(index));
  if (metrics == nullptr) return;
  slb_.AttachMetrics(metrics, suffix_);
  slt_.AttachMetrics(metrics, suffix_);
  disks_.AttachMetrics(metrics);
  writer_.AttachMetrics(metrics, suffix_);
  m_records_sorted_ = metrics->counter("recovery.records_sorted" + suffix_);
  m_ckpt_update_ =
      metrics->counter("recovery.ckpt_requests_update_count" + suffix_);
  m_ckpt_age_ = metrics->counter("recovery.ckpt_requests_age" + suffix_);
  m_window_slack_ = metrics->gauge("log.window_slack_pages" + suffix_);
  UpdateWindowSlack();
}

void LogStream::UpdateWindowSlack() {
  if (m_window_slack_ == nullptr) return;
  if (first_lsn_list_.empty()) {
    m_window_slack_->Set(static_cast<double>(opts_.log_window_pages));
    return;
  }
  // The head's age trigger fires once it falls below age_boundary(),
  // that is once next_lsn passes head + age_span().
  const uint64_t trigger_lsn =
      first_lsn_list_.begin()->first + writer_.age_span();
  const uint64_t next_lsn = writer_.next_lsn();
  m_window_slack_->Set(trigger_lsn > next_lsn
                           ? static_cast<double>(trigger_lsn - next_lsn)
                           : 0.0);
}

Result<uint64_t> LogStream::Pump(uint64_t max_records, uint64_t now_ns,
                                 uint32_t max_epoch) {
  uint64_t n = 0;
  while (n < max_records && slb_.HasCommittedRecords(max_epoch)) {
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    // Pop + bin-append are one atomic stable transition: the record is
    // released from the SLB only once it is safely binned.
    fault::AtomicSection atomic(fault_);
    auto rec = slb_.PopCommitted(max_epoch);
    if (!rec.ok()) return rec.status();
    MMDB_RETURN_IF_ERROR(SortOne(rec.value(), now_ns));
    ++n;
  }
  return n;
}

Status LogStream::SortOne(const LogRecord& rec, uint64_t now_ns) {
  const analysis::Table2& c = opts_.costs;
  size_t rec_bytes = rec.SerializedSize();

  // Table 2 per-record costs: locate the bin, check its page, copy the
  // record, update the page information.
  cpu_->Execute(c.i_record_lookup + c.i_page_check + c.i_copy_fixed +
                c.i_copy_add * static_cast<double>(rec_bytes) +
                c.i_page_update);

  auto bin_r = slt_.bin(rec.bin_index);
  if (!bin_r.ok()) return bin_r.status();
  PartitionBin* bin = bin_r.value();
  if (!(bin->partition == rec.partition)) {
    return Status::Corruption("log record bin index does not match partition");
  }

  // Serialize into the reusable scratch buffer: the sort process runs
  // once per logged record, so a fresh vector here is a heap
  // allocation per record. Multi-stream bins carry the epoch frame so
  // restart can merge streams in group-commit order.
  sort_scratch_.clear();
  if (opts_.log_streams > 1) rec.AppendEpochFrame(&sort_scratch_);
  rec.AppendTo(&sort_scratch_);
  MMDB_RETURN_IF_ERROR(slt_.AppendToActivePage(rec.bin_index, sort_scratch_));

  // Flush every full page of the bin's record stream (large records may
  // span pages, so one append can complete several pages).
  const uint32_t dir_entries = opts_.directory_entries;
  while (bin->active_page.size() >=
         writer_.PagePayloadCapacity(
             bin->directory.size() >= dir_entries ? dir_entries : 0)) {
    MMDB_RETURN_IF_ERROR(FlushBin(rec.bin_index, bin, now_ns));
  }

  ++bin->update_count;
  ++bin->lifetime_updates;
  ++records_sorted_;
  if (m_records_sorted_ != nullptr) m_records_sorted_->Add(1);

  // Update-count checkpoint trigger (§2.3.3).
  if (bin->update_count >= opts_.n_update && !bin->checkpoint_requested) {
    cpu_->Execute(c.i_checkpoint);
    if (slb_.RequestCheckpoint(bin->partition,
                               CheckpointTrigger::kUpdateCount)) {
      bin->checkpoint_requested = true;
      if (m_ckpt_update_ != nullptr) m_ckpt_update_->Add(1);
    }
  }
  return Status::OK();
}

Status LogStream::FlushBin(uint32_t bin_index, PartitionBin* bin,
                           uint64_t now_ns) {
  const analysis::Table2& c = opts_.costs;
  cpu_->Execute(c.i_write_init + c.i_page_alloc + c.i_process_lsn);
  bool had_disk_pages = bin->has_disk_pages();
  uint64_t done_ns = 0;
  auto lsn = writer_.FlushBinPage(bin, opts_.directory_entries, now_ns,
                                  &done_ns);
  if (!lsn.ok()) return lsn.status();
  slt_.NoteBinDrained(*bin);
  if (!had_disk_pages) {
    // Partition becomes active on disk: place it on the First-LSN list.
    first_lsn_list_[bin->first_page_lsn] = bin_index;
  }
  CheckAgeTriggers();
  UpdateWindowSlack();
  return Status::OK();
}

void LogStream::CheckAgeTriggers() {
  // Only the head needs testing: the list is ordered by first page LSN.
  uint64_t boundary = writer_.age_boundary();
  for (auto it = first_lsn_list_.begin();
       it != first_lsn_list_.end() && it->first < boundary;) {
    auto bin_r = slt_.bin(it->second);
    if (!bin_r.ok()) {
      it = first_lsn_list_.erase(it);
      continue;
    }
    PartitionBin* bin = bin_r.value();
    if (!bin->checkpoint_requested) {
      cpu_->Execute(opts_.costs.i_checkpoint);
      if (slb_.RequestCheckpoint(bin->partition, CheckpointTrigger::kAge)) {
        bin->checkpoint_requested = true;
        if (m_ckpt_age_ != nullptr) m_ckpt_age_->Add(1);
      }
    }
    // Keep the entry until the checkpoint finishes and resets the bin;
    // but advance past it so the scan stays O(pending age triggers).
    ++it;
  }
}

Status LogStream::OnCheckpointFinished(uint32_t bin_index, uint64_t now_ns) {
  auto bin_r = slt_.bin(bin_index);
  if (!bin_r.ok()) return bin_r.status();
  PartitionBin* bin = bin_r.value();

  // Combine the bin's partial page with other partial pages, flushing
  // full archive pages (§2.4). Archive pages are stream chunks; the
  // archive stream is only consulted for media recovery.
  if (!bin->active_page.empty()) {
    const analysis::Table2& c = opts_.costs;
    combine_buf_.insert(combine_buf_.end(), bin->active_page.begin(),
                        bin->active_page.end());
    cpu_->Execute(c.i_copy_fixed +
                  c.i_copy_add * static_cast<double>(bin->active_page.size()));
    // Flush full pages from an advancing offset and compact the buffer
    // once: erasing the front per page would shift the whole tail each
    // time, O(buffer²) across a burst of checkpoints.
    uint32_t capacity = writer_.PagePayloadCapacity(0);
    size_t off = 0;
    while (combine_buf_.size() - off >= capacity) {
      uint64_t done_ns = 0;
      cpu_->Execute(c.i_write_init + c.i_page_alloc);
      auto lsn = writer_.WriteArchivePage(
          std::span<const uint8_t>(combine_buf_.data() + off, capacity),
          now_ns, &done_ns);
      if (!lsn.ok()) return lsn.status();
      off += capacity;
    }
    combine_buf_.erase(combine_buf_.begin(),
                       combine_buf_.begin() + static_cast<long>(off));
  }

  // Remove from the First-LSN list and reset the bin.
  if (bin->first_page_lsn != kNoLsn) {
    first_lsn_list_.erase(bin->first_page_lsn);
    UpdateWindowSlack();
  }
  return slt_.ResetAfterCheckpoint(bin_index);
}

Status LogStream::DropBin(uint32_t bin) {
  std::erase_if(first_lsn_list_,
                [bin](const auto& entry) { return entry.second == bin; });
  return slt_.ReleaseBin(bin);
}

void LogStream::RebuildFirstLsnList() {
  first_lsn_list_.clear();
  for (uint32_t idx : slt_.ActiveBins()) {
    auto bin_r = slt_.bin(idx);
    if (!bin_r.ok()) continue;
    if (bin_r.value()->first_page_lsn != kNoLsn) {
      first_lsn_list_[bin_r.value()->first_page_lsn] = idx;
    }
  }
}

Status LogStream::CollectPageList(uint32_t bin_index, uint64_t now_ns,
                                  std::vector<uint64_t>* lsns,
                                  uint64_t* backward_reads, uint64_t* done_ns,
                                  bool any_member) {
  lsns->clear();
  *backward_reads = 0;
  *done_ns = now_ns;
  auto bin_r = slt_.bin(bin_index);
  if (!bin_r.ok()) return bin_r.status();
  const PartitionBin* bin = bin_r.value();
  if (!bin->has_disk_pages()) return Status::OK();

  // Start from the info-block directory (the most recent pages).
  std::vector<uint64_t> known = bin->directory;
  MMDB_CHECK(!known.empty());
  uint64_t t = now_ns;
  // Walk anchors backward until the oldest known page is the bin's first
  // page (§2.5.1). Each step reads one anchor page.
  while (known.front() != bin->first_page_lsn) {
    ParsedLogPage page;
    uint64_t done = 0;
    MMDB_RETURN_IF_ERROR(writer_.ReadPage(known.front(), t,
                                          sim::SeekClass::kNear, &page, &done,
                                          any_member));
    t = done;
    ++*backward_reads;
    if (page.directory.empty()) {
      return Status::Corruption("expected anchor page while walking bin " +
                                std::to_string(bin_index));
    }
    known.insert(known.begin(), page.directory.begin(), page.directory.end());
  }
  *lsns = std::move(known);
  *done_ns = t;
  return Status::OK();
}

Result<LogStream::ChainLog> LogStream::ReadChain(uint32_t bin, uint64_t walk_ns,
                                                 bool fanned) {
  ChainLog log;
  std::vector<uint64_t> lsns;
  uint64_t backward = 0, walked_ns = walk_ns;
  MMDB_RETURN_IF_ERROR(
      CollectPageList(bin, walk_ns, &lsns, &backward, &walked_ns, fanned));
  std::vector<uint8_t> bytes;
  std::vector<size_t> chunk_end;  // stream offset after each chunk
  log.read_ns = walked_ns;
  for (uint64_t lsn : lsns) {
    ParsedLogPage page;
    uint64_t done_ns = 0;
    MMDB_RETURN_IF_ERROR(writer_.ReadPage(
        lsn, walked_ns, sim::SeekClass::kNear, &page, &done_ns, fanned));
    bytes.insert(bytes.end(), page.payload.begin(), page.payload.end());
    // The stream is consumed in LSN order, so a page's bytes are usable
    // only once every earlier page has arrived too: prefix max.
    log.read_ns = std::max(log.read_ns, done_ns);
    chunk_end.push_back(bytes.size());
    log.arrived_ns.push_back(log.read_ns);
  }
  log.pages_read = lsns.size();
  auto b = slt_.bin(bin);
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
                                      /*with_epoch=*/opts_.log_streams > 1,
                                      &ends));
  uint32_t c = 0;
  for (size_t end : ends) {
    while (end > chunk_end[c]) ++c;
    log.chunk_of.push_back(c);
  }
  return log;
}

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
  for (uint32_t s = 0; s < opts_.log_streams; ++s) {
    streams_.emplace_back(opts_, s, meter_, recovery_cpu, fault_, metrics,
                          tracer);
  }
}

void LogStreams::Gate(LogStream& ls, sim::CpuModel* worker) {
  if (worker == nullptr) return;
  uint64_t ready = worker->busy_until_ns();
  uint64_t done = ls.gate().Occupy(ready, gate_ns_);
  // The allocation bookkeeping itself is already charged through the
  // copy-cost instructions; only the queueing delay behind another
  // worker inside the critical section costs extra. A single worker
  // therefore never pays anything here.
  if (done > ready + gate_ns_) worker->Stall(done - ready - gate_ns_);
}

Status LogStreams::Append(const Transaction* txn, const LogRecord& redo,
                          sim::CpuModel* worker, uint64_t now_ns) {
  LogStream& ls = of(txn);
  uint64_t blocks_before = ls.slb().blocks_allocated();
  Status st = ls.slb().Append(txn->id(), redo);
  if (st.IsFull()) {
    // Let the sort processes free committed blocks, then retry once.
    // Unfenced epochs pin their blocks, so fence and drain every stream.
    MMDB_RETURN_IF_ERROR(Drain(now_ns));
    st = ls.slb().Append(txn->id(), redo);
  }
  if (!st.ok()) return st;
  if (ls.slb().blocks_allocated() != blocks_before) Gate(ls, worker);
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
    MMDB_RETURN_IF_ERROR(ls.slb().Commit(txn->id()));
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
      ls.slb().Commit(txn->id(), last_commit_.epoch, last_commit_.csn));
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
  const sim::Page marker = sim::MakePage(std::vector<uint8_t>(16, 0));
  for (uint64_t p = 0; p < pages; ++p) {
    now_ns = streams_[0].disks().WritePage(kWalPageBase + wal_page_counter_++,
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
    if (ls.flushed_epoch() == epoch_stamped_last_) continue;
    // The per-stream epoch flush marker is one small stable-memory write.
    // A crash landing between two streams' markers is exactly the group-
    // commit window: the epoch is acknowledged on a prefix of streams
    // only, and the next restart's frontier discards it everywhere.
    meter_->ChargeWrite(8);
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    ls.set_flushed_epoch(epoch_stamped_last_);
  }
  return Status::OK();
}

Status LogStreams::Drain(uint64_t now_ns, uint64_t max_records) {
  MMDB_RETURN_IF_ERROR(Fence());
  for (LogStream& ls : streams_) {
    auto n = ls.Pump(max_records, now_ns, PumpBound(ls));
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
          std::min(epoch_discard_frontier_, ls.flushed_epoch());
    }
    for (LogStream& ls : streams_) {
      ls.slb().DiscardCommittedAfter(epoch_discard_frontier_);
    }
  }
  for (LogStream& ls : streams_) ls.slb().OnCrash();
  for (LogStream& ls : streams_) ls.RebuildFirstLsnList();
}

Result<uint32_t> LogStreams::RegisterPartition(PartitionId pid) {
  // All streams' bin free-lists evolve identically, so the partition gets
  // the same bin index everywhere and a record's bin_index addresses the
  // right bin whichever stream carried it. A stream that cannot fit the
  // info block undoes the earlier streams' registrations, or the tables
  // would disagree from then on.
  uint32_t bin = 0;
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    auto b = streams_[s].slt().RegisterPartition(pid);
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
    Status st = streams_[s].slt().ReleaseBin(bin);
    MMDB_CHECK(st.ok() || st.IsFault());
  }
}

Status LogStreams::ReleaseUndescribed(
    const std::unordered_set<PartitionId>& described) {
  for (LogStream& ls : streams_) {
    for (uint32_t b = 0; b < ls.slt().bin_count(); ++b) {
      auto bin = ls.slt().bin(b);
      if (bin.ok() && described.count(bin.value()->partition) == 0) {
        MMDB_RETURN_IF_ERROR(ls.DropBin(b));
      }
    }
  }
  return Status::OK();
}

}  // namespace mmdb
