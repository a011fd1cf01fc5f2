#include "log/slb.h"

#include "util/logging.h"

namespace mmdb {

void StableLogBuffer::AttachMetrics(obs::MetricsRegistry* reg,
                                    const std::string& suffix) {
  m_records_ = reg->counter("slb.records_appended" + suffix);
  m_bytes_ = reg->counter("slb.bytes_appended" + suffix);
  m_blocks_ = reg->counter("slb.blocks_allocated" + suffix);
  m_occupancy_ = reg->gauge("slb.occupancy_bytes" + suffix);
  // Occupancy sampled at each block allocation, in bytes: power-of-two
  // buckets from one block (2KB default) up past typical capacities.
  std::vector<double> bounds;
  for (double b = 1024.0; b <= 256.0 * 1024 * 1024; b *= 2) bounds.push_back(b);
  m_occupancy_dist_ =
      reg->histogram("slb.occupancy_at_alloc_bytes" + suffix, bounds);
  m_occupancy_->Set(static_cast<double>(occupancy_bytes_));
}

void StableLogBuffer::NoteOccupancy(int64_t delta_bytes) {
  occupancy_bytes_ = static_cast<uint64_t>(
      static_cast<int64_t>(occupancy_bytes_) + delta_bytes);
  if (m_occupancy_ == nullptr) return;
  m_occupancy_->Set(static_cast<double>(occupancy_bytes_));
  if (delta_bytes > 0) {
    m_occupancy_dist_->Record(static_cast<double>(occupancy_bytes_));
  }
}

Status StableLogBuffer::AppendToChain(Chain* chain, const LogRecord& rec) {
  size_t need = rec.SerializedSize();
  bool need_block = chain->blocks.empty() ||
                    chain->blocks.back().buf.size() -
                            chain->blocks.back().used <
                        need;
  if (need_block) {
    // A record larger than the block size gets a dedicated oversized
    // block (rare: only very large entity images).
    size_t block_size = std::max<size_t>(config_.block_bytes, need);
    if (!meter_->CanAllocate(block_size)) {
      return Status::Full("Stable Log Buffer budget exhausted");
    }
    meter_->Allocate(block_size);
    meter_->NoteHighWater();
    ++blocks_allocated_;
    if (m_blocks_ != nullptr) m_blocks_->Add(1);
    NoteOccupancy(static_cast<int64_t>(block_size));
    Block b;
    b.buf.resize(block_size);
    b.used = 0;
    chain->blocks.push_back(std::move(b));
  }
  Block& b = chain->blocks.back();
  append_scratch_.clear();
  rec.AppendTo(&append_scratch_);
  MMDB_CHECK(b.used + append_scratch_.size() <= b.buf.size());
  std::copy(append_scratch_.begin(), append_scratch_.end(),
            b.buf.begin() + b.used);
  b.used += static_cast<uint32_t>(append_scratch_.size());
  ++chain->records;
  if (m_records_ != nullptr) {
    m_records_->Add(1);
    m_bytes_->Add(append_scratch_.size());
  }
  meter_->ChargeWrite(append_scratch_.size());
  return Status::OK();
}

void StableLogBuffer::ReleaseChain(Chain* chain) {
  for (const Block& b : chain->blocks) {
    meter_->Release(b.buf.size());
    NoteOccupancy(-static_cast<int64_t>(b.buf.size()));
  }
  chain->blocks.clear();
  chain->records = 0;
}

Status StableLogBuffer::Append(uint64_t txn_id, const LogRecord& rec) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  NoteTxnId(txn_id);
  Chain& chain = uncommitted_[txn_id];
  chain.txn_id = txn_id;
  return AppendToChain(&chain, rec);
}

Status StableLogBuffer::Commit(uint64_t txn_id, uint32_t epoch,
                               uint64_t csn) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  auto it = uncommitted_.find(txn_id);
  if (it == uncommitted_.end()) {
    // Read-only transaction: nothing logged, commit is trivially done.
    return Status::OK();
  }
  it->second.epoch = epoch;
  it->second.csn = csn;
  committed_.push_back(std::move(it->second));
  uncommitted_.erase(it);
  return Status::OK();
}

Status StableLogBuffer::Discard(uint64_t txn_id) {
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  auto it = uncommitted_.find(txn_id);
  if (it == uncommitted_.end()) return Status::OK();
  ReleaseChain(&it->second);
  uncommitted_.erase(it);
  return Status::OK();
}

StableLogBuffer::ChainMark StableLogBuffer::Mark(uint64_t txn_id) const {
  ChainMark m;
  auto it = uncommitted_.find(txn_id);
  if (it == uncommitted_.end()) return m;
  m.records = it->second.records;
  m.blocks = it->second.blocks.size();
  m.last_used = m.blocks == 0 ? 0 : it->second.blocks.back().used;
  return m;
}

void StableLogBuffer::Rewind(uint64_t txn_id, const ChainMark& mark) {
  auto it = uncommitted_.find(txn_id);
  if (it == uncommitted_.end()) {
    MMDB_DCHECK(mark.blocks == 0);
    return;
  }
  Chain& chain = it->second;
  MMDB_CHECK(chain.blocks.size() >= mark.blocks);
  while (chain.blocks.size() > mark.blocks) {
    const Block& b = chain.blocks.back();
    meter_->Release(b.buf.size());
    NoteOccupancy(-static_cast<int64_t>(b.buf.size()));
    chain.blocks.pop_back();
  }
  if (mark.blocks > 0) {
    MMDB_CHECK(chain.blocks.back().used >= mark.last_used);
    chain.blocks.back().used = mark.last_used;
  }
  chain.records = mark.records;
  if (chain.blocks.empty()) uncommitted_.erase(it);
}

bool StableLogBuffer::HasCommittedRecords(uint32_t max_epoch) const {
  // Epochs are monotone along the commit order, so the first chain with
  // outstanding records decides visibility for the whole list.
  for (const Chain& c : committed_) {
    if (c.records > 0) return c.epoch <= max_epoch;
  }
  return false;
}

Result<LogRecord> StableLogBuffer::PopCommitted(uint32_t max_epoch) {
  while (!committed_.empty()) {
    Chain& chain = committed_.front();
    if (chain.blocks.empty() || chain.records == 0) {
      ReleaseChain(&chain);
      committed_.pop_front();
      read_offset_ = 0;
      continue;
    }
    if (chain.epoch > max_epoch) {
      return Status::NotFound("next committed record beyond epoch bound");
    }
    Block& b = chain.blocks.front();
    if (read_offset_ >= b.used) {
      meter_->Release(b.buf.size());
      NoteOccupancy(-static_cast<int64_t>(b.buf.size()));
      chain.blocks.pop_front();
      read_offset_ = 0;
      continue;
    }
    wire::Reader r(std::span<const uint8_t>(b.buf.data() + read_offset_,
                                            b.used - read_offset_));
    auto rec = LogRecord::Parse(&r);
    if (!rec.ok()) return rec.status();
    rec.value().epoch = chain.epoch;
    rec.value().csn = chain.csn;
    meter_->ChargeRead(r.pos());
    read_offset_ += r.pos();
    --chain.records;
    if (chain.records == 0 && read_offset_ >= b.used) {
      ReleaseChain(&chain);
      committed_.pop_front();
      read_offset_ = 0;
    }
    return rec;
  }
  return Status::NotFound("no committed records");
}

void StableLogBuffer::DiscardCommittedAfter(uint32_t frontier) {
  // Unacknowledged chains form a suffix of the committed list (epochs are
  // monotone in commit order); pop them back to front.
  while (!committed_.empty() && committed_.back().epoch > frontier) {
    ReleaseChain(&committed_.back());
    committed_.pop_back();
  }
  if (committed_.empty()) read_offset_ = 0;
}

bool StableLogBuffer::RequestCheckpoint(PartitionId pid,
                                        CheckpointTrigger trigger) {
  for (const CheckpointRequest& r : requests_) {
    if (r.partition == pid && r.state != CheckpointState::kFinished) {
      return false;
    }
  }
  requests_.push_back(CheckpointRequest{pid, CheckpointState::kRequest,
                                        trigger});
  return true;
}

void StableLogBuffer::ClearFinished(PartitionId pid) {
  requests_.remove_if([&](const CheckpointRequest& r) {
    return r.partition == pid && r.state == CheckpointState::kFinished;
  });
}

void StableLogBuffer::SetCatalogRoot(std::vector<uint8_t> root) {
  catalog_root_ = std::move(root);
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kStableMemAccess;
    ev.device = "slb.catalog_root";
    ev.data = &catalog_root_;
    Status st = fault_->OnSite(&ev);
    (void)st;  // root writes complete; corruption surfaces at restart
  }
}

void StableLogBuffer::OnCrash() {
  for (auto& [_, chain] : uncommitted_) ReleaseChain(&chain);
  uncommitted_.clear();
  requests_.clear();
}

uint64_t StableLogBuffer::committed_backlog_records() const {
  uint64_t n = 0;
  for (const Chain& c : committed_) n += c.records;
  return n;
}

}  // namespace mmdb
