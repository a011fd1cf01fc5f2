#include "log/slt.h"

#include "util/logging.h"

namespace mmdb {

void StableLogTail::AttachMetrics(obs::MetricsRegistry* reg,
                                  const std::string& suffix) {
  m_bins_in_use_ = reg->gauge("slt.bins_in_use" + suffix);
  m_active_pages_ = reg->gauge("slt.active_page_buffers" + suffix);
  m_bin_resets_ = reg->counter("slt.bin_resets" + suffix);
  UpdateGauges();
}

void StableLogTail::UpdateGauges() {
  if (m_bins_in_use_ == nullptr) return;
  m_bins_in_use_->Set(static_cast<double>(bins_in_use_count_));
  m_active_pages_->Set(static_cast<double>(active_bin_count_));
}

Result<uint32_t> StableLogTail::RegisterPartition(PartitionId pid) {
  uint32_t idx;
  if (!free_bins_.empty()) {
    idx = free_bins_.back();
    free_bins_.pop_back();
  } else {
    if (!meter_->CanAllocate(kInfoBlockBytes)) {
      return Status::Full("Stable Log Tail cannot fit another info block");
    }
    meter_->Allocate(kInfoBlockBytes);
    meter_->NoteHighWater();
    idx = static_cast<uint32_t>(bins_.size());
    bins_.emplace_back();
  }
  PartitionBin& b = bins_[idx];
  b = PartitionBin{};
  b.in_use = true;
  b.partition = pid;
  ++bins_in_use_count_;
  bin_by_pid_[pid] = idx;
  UpdateGauges();
  return idx;
}

Status StableLogTail::ReleaseBin(uint32_t bin_index) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  auto b = bin(bin_index);
  if (!b.ok()) return b.status();
  if (BinActive(*b.value())) {
    meter_->Release(config_.page_bytes);
    --active_bin_count_;
  }
  bin_by_pid_.erase(b.value()->partition);
  *b.value() = PartitionBin{};
  free_bins_.push_back(bin_index);
  --bins_in_use_count_;
  UpdateGauges();
  return Status::OK();
}

Result<PartitionBin*> StableLogTail::bin(uint32_t bin_index) {
  if (bin_index >= bins_.size() || !bins_[bin_index].in_use) {
    return Status::NotFound("no bin " + std::to_string(bin_index));
  }
  return &bins_[bin_index];
}

Result<const PartitionBin*> StableLogTail::bin(uint32_t bin_index) const {
  if (bin_index >= bins_.size() || !bins_[bin_index].in_use) {
    return Status::NotFound("no bin " + std::to_string(bin_index));
  }
  return &bins_[bin_index];
}

Result<uint32_t> StableLogTail::FindBin(PartitionId pid) const {
  auto it = bin_by_pid_.find(pid);
  if (it == bin_by_pid_.end() || !bins_[it->second].in_use) {
    return Status::NotFound("no bin for partition " + pid.ToString());
  }
  return it->second;
}

Status StableLogTail::AppendToActivePage(
    uint32_t bin_index, std::span<const uint8_t> record_bytes) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  auto b = bin(bin_index);
  if (!b.ok()) return b.status();
  PartitionBin* pb = b.value();
  if (pb->active_page.empty() && pb->active_records == 0) {
    if (!meter_->CanAllocate(config_.page_bytes)) {
      return Status::Full("Stable Log Tail page budget exhausted");
    }
    meter_->Allocate(config_.page_bytes);
    meter_->NoteHighWater();
    ++active_bin_count_;
  }
  pb->active_page.insert(pb->active_page.end(), record_bytes.begin(),
                         record_bytes.end());
  ++pb->active_records;
  meter_->ChargeWrite(record_bytes.size());
  UpdateGauges();
  return Status::OK();
}

Status StableLogTail::ResetAfterCheckpoint(uint32_t bin_index) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  auto b = bin(bin_index);
  if (!b.ok()) return b.status();
  PartitionBin* pb = b.value();
  if (BinActive(*pb)) {
    meter_->Release(config_.page_bytes);
    --active_bin_count_;
  }
  pb->update_count = 0;
  pb->first_page_lsn = kNoLsn;
  pb->last_page_lsn = kNoLsn;
  pb->last_anchor_lsn = kNoLsn;
  pb->pages_since_checkpoint = 0;
  pb->directory.clear();
  pb->active_page.clear();
  pb->active_records = 0;
  pb->checkpoint_requested = false;
  if (m_bin_resets_ != nullptr) m_bin_resets_->Add(1);
  UpdateGauges();
  return Status::OK();
}

void StableLogTail::NoteBinDrained(const PartitionBin& b) {
  // A flush starts from a non-empty active page (the writer rejects empty
  // flushes), so the bin was active before; it leaves the active set only
  // if the flush took every buffered byte. The next append allocates a
  // fresh page buffer.
  if (!BinActive(b)) {
    meter_->Release(config_.page_bytes);
    --active_bin_count_;
    UpdateGauges();
  }
}

std::vector<uint32_t> StableLogTail::ActiveBins() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < bins_.size(); ++i) {
    const PartitionBin& b = bins_[i];
    if (b.in_use && (b.has_disk_pages() || b.active_records > 0)) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace mmdb
