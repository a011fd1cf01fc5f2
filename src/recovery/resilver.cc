#include "recovery/resilver.h"

#include <algorithm>

namespace mmdb {

void Resilverer::AttachMetrics(obs::MetricsRegistry* reg) {
  m_pages_done_ = reg->counter("resilver.pages_done");
  m_runs_ = reg->counter("resilver.runs");
  m_pages_total_ = reg->gauge("resilver.pages_total");
}

Status Resilverer::Start(int target, uint64_t now_ns) {
  if (target != 0 && target != 1) {
    return Status::InvalidArgument("re-silver target must be 0 or 1");
  }
  sim::Disk& dst = disks_->member(target);
  sim::Disk& src = disks_->member(1 - target);
  if (dst.media_failed()) {
    return Status::InvalidArgument(
        "repair the target member before re-silvering");
  }
  if (src.media_failed()) {
    return Status::InvalidArgument(
        "cannot re-silver from a failed mirror");
  }

  target_ = target;
  worklist_ = src.StoredPageNumbers();
  for (const auto& [lsn, page] : archive_->log_page_archive()) {
    (void)page;
    if (!std::binary_search(worklist_.begin(), worklist_.end(), lsn)) {
      worklist_.push_back(lsn);
    }
  }
  std::sort(worklist_.begin(), worklist_.end());
  cursor_ = 0;
  pages_total_ = worklist_.size();
  run_start_ns_ = now_ns;
  active_ = true;
  if (m_pages_total_ != nullptr) {
    m_pages_total_->Set(static_cast<double>(pages_total_));
  }
  if (m_runs_ != nullptr) m_runs_->Add(1);
  return Status::OK();
}

Status Resilverer::ReadSource(uint64_t page_no, uint64_t now_ns,
                              uint64_t* done_ns, sim::Page* page) {
  sim::Disk& src = disks_->member(1 - target_);
  uint64_t t = now_ns;
  Status st;
  for (uint32_t attempt = 0; attempt < sim::kReadRetryAttempts; ++attempt) {
    st = src.ReadPage(page_no, t, sim::SeekClass::kSequential, page, done_ns);
    if (st.ok() || !st.IsIOError()) break;
    t += (attempt + 1) * sim::kReadRetryBackoffNs;
  }
  if (st.ok()) return st;
  // The healthy member cannot serve this page (latent corruption or a
  // persistent error): restore it from the archive copy instead.
  auto it = archive_->log_page_archive().find(page_no);
  if (it == archive_->log_page_archive().end()) return st;
  *page = it->second;
  *done_ns = t;
  return Status::OK();
}

Status Resilverer::Step(uint64_t now_ns, uint64_t* done_ns, bool* done) {
  *done = false;
  *done_ns = now_ns;
  if (!active_) {
    *done = true;
    return Status::OK();
  }
  sim::Disk& dst = disks_->member(target_);
  uint64_t t = now_ns;
  sim::Page page;
  for (uint32_t n = 0; n < config_.pages_per_step && cursor_ < worklist_.size();
       ++n, ++cursor_) {
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    uint64_t page_no = worklist_[cursor_];
    if (dst.PageClean(page_no)) {
      // Already copied by an interrupted earlier run: skip (idempotence).
      ++pages_skipped_;
      continue;
    }
    uint64_t read_done = t;
    MMDB_RETURN_IF_ERROR(ReadSource(page_no, t, &read_done, &page));
    t = dst.WritePage(page_no, page, read_done, sim::SeekClass::kSequential);
    MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
    ++pages_done_;
    if (m_pages_done_ != nullptr) m_pages_done_->Add(1);
  }
  *done_ns = t;
  if (cursor_ >= worklist_.size()) {
    active_ = false;
    *done = true;
    if (tracer_ != nullptr) {
      tracer_->Span(obs::Track::kSystem, "resilver",
                    "re-silver " + disks_->member(target_).name(),
                    run_start_ns_, t - run_start_ns_);
    }
  }
  return Status::OK();
}

void Resilverer::OnCrash() {
  active_ = false;
  worklist_.clear();
  cursor_ = 0;
}

}  // namespace mmdb
