#include "recovery/recovery_manager.h"

#include <algorithm>

#include "util/logging.h"

namespace mmdb {

RecoveryManager::RecoveryManager(Config config, StableLogBuffer* slb,
                                 StableLogTail* slt, LogDiskWriter* log_writer,
                                 sim::CpuModel* recovery_cpu)
    : config_(config),
      slb_(slb),
      slt_(slt),
      log_writer_(log_writer),
      cpu_(recovery_cpu) {}

void RecoveryManager::AttachMetrics(obs::MetricsRegistry* reg,
                                    const std::string& suffix) {
  m_records_sorted_ = reg->counter("recovery.records_sorted" + suffix);
  m_ckpt_update_ =
      reg->counter("recovery.ckpt_requests_update_count" + suffix);
  m_ckpt_age_ = reg->counter("recovery.ckpt_requests_age" + suffix);
  m_window_slack_ = reg->gauge("log.window_slack_pages" + suffix);
  UpdateWindowSlack();
}

void RecoveryManager::UpdateWindowSlack() {
  if (m_window_slack_ == nullptr) return;
  if (first_lsn_list_.empty()) {
    m_window_slack_->Set(static_cast<double>(log_writer_->config().window_pages));
    return;
  }
  uint64_t head = first_lsn_list_.begin()->first;
  uint64_t boundary = log_writer_->age_boundary();
  m_window_slack_->Set(head > boundary ? static_cast<double>(head - boundary)
                                       : 0.0);
}

Result<uint64_t> RecoveryManager::Pump(uint64_t max_records, uint64_t now_ns,
                                       uint32_t max_epoch) {
  uint64_t n = 0;
  while (n < max_records && slb_->HasCommittedRecords(max_epoch)) {
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    // Pop + bin-append are one atomic stable transition: the record is
    // released from the SLB only once it is safely binned.
    fault::AtomicSection atomic(fault_);
    auto rec = slb_->PopCommitted(max_epoch);
    if (!rec.ok()) return rec.status();
    MMDB_RETURN_IF_ERROR(SortOne(rec.value(), now_ns));
    ++n;
  }
  return n;
}

Status RecoveryManager::Drain(uint64_t now_ns, uint32_t max_epoch) {
  return Pump(~0ull, now_ns, max_epoch).status();
}

Status RecoveryManager::SortOne(const LogRecord& rec, uint64_t now_ns) {
  const analysis::Table2& c = config_.costs;
  size_t rec_bytes = rec.SerializedSize();

  // Table 2 per-record costs: locate the bin, check its page, copy the
  // record, update the page information.
  cpu_->Execute(c.i_record_lookup + c.i_page_check + c.i_copy_fixed +
                c.i_copy_add * static_cast<double>(rec_bytes) +
                c.i_page_update);

  auto bin_r = slt_->bin(rec.bin_index);
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
  if (config_.epoch_framing) rec.AppendEpochFrame(&sort_scratch_);
  rec.AppendTo(&sort_scratch_);
  MMDB_RETURN_IF_ERROR(slt_->AppendToActivePage(rec.bin_index, sort_scratch_));

  // Flush every full page of the bin's record stream (large records may
  // span pages, so one append can complete several pages).
  while (true) {
    uint32_t capacity = log_writer_->PagePayloadCapacity(
        bin->directory.size() >= slt_->config().directory_entries
            ? slt_->config().directory_entries
            : 0);
    if (bin->active_page.size() < capacity) break;
    MMDB_RETURN_IF_ERROR(FlushBin(rec.bin_index, bin, now_ns));
  }

  ++bin->update_count;
  ++bin->lifetime_updates;
  ++records_sorted_;
  if (m_records_sorted_ != nullptr) m_records_sorted_->Add(1);

  // Update-count checkpoint trigger (§2.3.3).
  if (bin->update_count >= config_.n_update && !bin->checkpoint_requested) {
    cpu_->Execute(config_.costs.i_checkpoint);
    if (slb_->RequestCheckpoint(bin->partition,
                                CheckpointTrigger::kUpdateCount)) {
      bin->checkpoint_requested = true;
      ++ckpt_update_count_;
      if (m_ckpt_update_ != nullptr) m_ckpt_update_->Add(1);
    }
  }
  return Status::OK();
}

Status RecoveryManager::FlushBin(uint32_t bin_index, PartitionBin* bin,
                                 uint64_t now_ns) {
  const analysis::Table2& c = config_.costs;
  cpu_->Execute(c.i_write_init + c.i_page_alloc + c.i_process_lsn);
  bool had_disk_pages = bin->has_disk_pages();
  uint64_t done_ns = 0;
  auto lsn = log_writer_->FlushBinPage(
      bin, slt_->config().directory_entries, now_ns, &done_ns);
  if (!lsn.ok()) return lsn.status();
  slt_->NoteBinDrained(*bin);
  ++pages_flushed_;
  if (!had_disk_pages) {
    // Partition becomes active on disk: place it on the First-LSN list.
    first_lsn_list_[bin->first_page_lsn] = bin_index;
  }
  CheckAgeTriggers();
  UpdateWindowSlack();
  return Status::OK();
}

void RecoveryManager::CheckAgeTriggers() {
  // Only the head needs testing: the list is ordered by first page LSN.
  uint64_t boundary = log_writer_->age_boundary();
  for (auto it = first_lsn_list_.begin();
       it != first_lsn_list_.end() && it->first < boundary;) {
    uint32_t bin_index = it->second;
    auto bin_r = slt_->bin(bin_index);
    if (!bin_r.ok()) {
      it = first_lsn_list_.erase(it);
      continue;
    }
    PartitionBin* bin = bin_r.value();
    if (!bin->checkpoint_requested) {
      cpu_->Execute(config_.costs.i_checkpoint);
      if (slb_->RequestCheckpoint(bin->partition, CheckpointTrigger::kAge)) {
        bin->checkpoint_requested = true;
        ++ckpt_age_;
        if (m_ckpt_age_ != nullptr) m_ckpt_age_->Add(1);
      }
    }
    // Keep the entry until the checkpoint finishes and resets the bin;
    // but advance past it so the scan stays O(pending age triggers).
    ++it;
  }
}

Status RecoveryManager::OnCheckpointFinished(uint32_t bin_index,
                                             uint64_t now_ns) {
  auto bin_r = slt_->bin(bin_index);
  if (!bin_r.ok()) return bin_r.status();
  PartitionBin* bin = bin_r.value();

  // Combine the bin's partial page with other partial pages, flushing
  // full archive pages (§2.4). Archive pages are stream chunks; the
  // archive stream is only consulted for media recovery.
  if (!bin->active_page.empty()) {
    combine_buf_.insert(combine_buf_.end(), bin->active_page.begin(),
                        bin->active_page.end());
    combine_records_ += bin->active_records;
    cpu_->Execute(config_.costs.i_copy_fixed +
                  config_.costs.i_copy_add *
                      static_cast<double>(bin->active_page.size()));
    // Flush full pages from an advancing offset and compact the buffer
    // once: erasing the front per page would shift the whole tail each
    // time, O(buffer²) across a burst of checkpoints.
    uint32_t capacity = log_writer_->PagePayloadCapacity(0);
    size_t off = 0;
    while (combine_buf_.size() - off >= capacity) {
      uint64_t done_ns = 0;
      cpu_->Execute(config_.costs.i_write_init + config_.costs.i_page_alloc);
      auto lsn = log_writer_->WriteArchivePage(
          std::span<const uint8_t>(combine_buf_.data() + off, capacity),
          now_ns, &done_ns);
      if (!lsn.ok()) return lsn.status();
      off += capacity;
    }
    if (off != 0) {
      combine_buf_.erase(combine_buf_.begin(),
                         combine_buf_.begin() + static_cast<long>(off));
    }
  }

  // Remove from the First-LSN list and reset the bin.
  if (bin->first_page_lsn != kNoLsn) {
    first_lsn_list_.erase(bin->first_page_lsn);
    UpdateWindowSlack();
  }
  return slt_->ResetAfterCheckpoint(bin_index);
}

void RecoveryManager::OnPartitionDropped(uint32_t bin_index) {
  for (auto it = first_lsn_list_.begin(); it != first_lsn_list_.end();) {
    if (it->second == bin_index) {
      it = first_lsn_list_.erase(it);
    } else {
      ++it;
    }
  }
}

void RecoveryManager::RebuildFirstLsnList() {
  first_lsn_list_.clear();
  for (uint32_t idx : slt_->ActiveBins()) {
    auto bin_r = slt_->bin(idx);
    if (!bin_r.ok()) continue;
    if (bin_r.value()->first_page_lsn != kNoLsn) {
      first_lsn_list_[bin_r.value()->first_page_lsn] = idx;
    }
  }
}

Status RecoveryManager::CollectPageList(uint32_t bin_index, uint64_t now_ns,
                                        std::vector<uint64_t>* lsns,
                                        uint64_t* backward_reads,
                                        uint64_t* done_ns, bool any_member) {
  lsns->clear();
  *backward_reads = 0;
  *done_ns = now_ns;
  auto bin_r = slt_->bin(bin_index);
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
    MMDB_RETURN_IF_ERROR(log_writer_->ReadPage(
        known.front(), t, sim::SeekClass::kNear, &page, &done, any_member));
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

}  // namespace mmdb
