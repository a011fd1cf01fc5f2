#include "sim/disk.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb::sim {

namespace {
constexpr double kMsToNs = 1e6;
}  // namespace

void Disk::AttachMetrics(obs::MetricsRegistry* reg) {
  const std::string p = "disk." + name_ + ".";
  m_pages_written_ = reg->counter(p + "pages_written");
  m_pages_read_ = reg->counter(p + "pages_read");
  m_bytes_written_ = reg->counter(p + "bytes_written");
  m_bytes_read_ = reg->counter(p + "bytes_read");
  m_write_ns_ = reg->histogram(p + "write_ns");
  m_read_ns_ = reg->histogram(p + "read_ns");
}

uint64_t Disk::PositioningNs(SeekClass seek) const {
  double ms = params_.settle_ms;
  switch (seek) {
    case SeekClass::kSequential:
      break;  // interleaved sectors: settle time only
    case SeekClass::kNear:
      ms += params_.near_seek_ms;
      break;
    case SeekClass::kRandom:
      ms += params_.avg_seek_ms;
      break;
  }
  return static_cast<uint64_t>(ms * kMsToNs);
}

void Disk::StorePage(uint64_t page_no, const std::vector<uint8_t>& data) {
  store_[page_no] = data;
  crc_[page_no] = Crc32(data.data(), data.size());
}

bool Disk::PageClean(uint64_t page_no) const {
  auto it = store_.find(page_no);
  if (it == store_.end()) return false;
  auto c = crc_.find(page_no);
  if (c == crc_.end()) return true;
  return Crc32(it->second.data(), it->second.size()) == c->second;
}

std::vector<uint64_t> Disk::StoredPageNumbers() const {
  std::vector<uint64_t> pages;
  pages.reserve(store_.size());
  for (const auto& [page_no, bytes] : store_) pages.push_back(page_no);
  std::sort(pages.begin(), pages.end());
  return pages;
}

Status Disk::CheckReadPage(uint64_t page_no, std::vector<uint8_t>* stored,
                           uint64_t now_ns) {
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskRead;
    ev.device = name_.c_str();
    ev.page_no = page_no;
    ev.now_ns = now_ns;
    ev.data = stored;
    MMDB_RETURN_IF_ERROR(fault_->OnSite(&ev));
  }
  auto c = crc_.find(page_no);
  if (c != crc_.end() &&
      Crc32(stored->data(), stored->size()) != c->second) {
    return Status::Corruption("latent sector corruption on disk " + name_ +
                              " page " + std::to_string(page_no));
  }
  return Status::OK();
}

uint64_t Disk::WritePage(uint64_t page_no, const std::vector<uint8_t>& data,
                         uint64_t now_ns, SeekClass seek) {
  MMDB_CHECK(data.size() <= params_.page_size_bytes);
  size_t keep = data.size();
  bool suppress = false;
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskWrite;
    ev.device = name_.c_str();
    ev.page_no = page_no;
    ev.now_ns = now_ns;
    ev.write_size = data.size();
    Status st = fault_->OnSite(&ev);
    if (ev.torn_keep_bytes < data.size()) keep = ev.torn_keep_bytes;
    // A crash with no torn spec on the same visit means the write never
    // reached the platter; the caller's barrier surfaces the crash.
    if (!st.ok() && keep == data.size()) suppress = true;
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  auto xfer = static_cast<uint64_t>(params_.page_transfer_ms * kMsToNs);
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  if (!suppress) {
    if (keep < data.size()) {
      // Torn write: new prefix, old suffix (sector-consistent, so the
      // device CRC matches the stored hybrid; only content-level
      // checksums can tell).
      std::vector<uint8_t> stored(data.begin(),
                                  data.begin() + static_cast<long>(keep));
      auto it = store_.find(page_no);
      if (it != store_.end() && it->second.size() > keep) {
        stored.insert(stored.end(),
                      it->second.begin() + static_cast<long>(keep),
                      it->second.end());
      }
      StorePage(page_no, stored);
    } else {
      StorePage(page_no, data);
    }
  }
  ++pages_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  bytes_written_ += data.size();
  NoteWrite(1, data.size(), now_ns, done);
  return done;
}

uint64_t Disk::WriteTrack(uint64_t first_page_no,
                          const std::vector<std::vector<uint8_t>>& pages,
                          uint64_t now_ns, SeekClass seek) {
  auto keep_pages = static_cast<uint32_t>(pages.size());
  bool suppress = false;
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskWrite;
    ev.device = name_.c_str();
    ev.page_no = first_page_no;
    ev.now_ns = now_ns;
    ev.track_pages = static_cast<uint32_t>(pages.size());
    Status st = fault_->OnSite(&ev);
    if (ev.torn_keep_pages < pages.size()) keep_pages = ev.torn_keep_pages;
    if (!st.ok() && keep_pages == pages.size()) suppress = true;
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  double per_page_ms = params_.page_transfer_ms / params_.track_rate_multiplier;
  auto xfer = static_cast<uint64_t>(per_page_ms * kMsToNs *
                                    static_cast<double>(pages.size()));
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  uint64_t track_bytes = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    MMDB_CHECK(pages[i].size() <= params_.page_size_bytes);
    if (!suppress && i < keep_pages) {
      StorePage(first_page_no + i, pages[i]);
    }
    bytes_written_ += pages[i].size();
    track_bytes += pages[i].size();
  }
  pages_written_ += pages.size();
  ++tracks_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  NoteWrite(pages.size(), track_bytes, now_ns, done);
  return done;
}

Status Disk::ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                      std::vector<uint8_t>* data, uint64_t* done_ns) {
  if (failed_) {
    return Status::IOError("media failure on disk " + name_);
  }
  auto it = store_.find(page_no);
  if (it == store_.end()) {
    return Status::NotFound("disk " + name_ + ": page " +
                            std::to_string(page_no) + " never written");
  }
  MMDB_RETURN_IF_ERROR(CheckReadPage(page_no, &it->second, now_ns));
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  auto xfer = static_cast<uint64_t>(params_.page_transfer_ms * kMsToNs);
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  *data = it->second;
  *done_ns = done;
  ++pages_read_;
  if (seek != SeekClass::kSequential) ++seeks_;
  bytes_read_ += it->second.size();
  NoteRead(1, it->second.size(), now_ns, done);
  return Status::OK();
}

Status Disk::ReadTrackInto(uint64_t first_page_no, uint32_t pages,
                           uint64_t now_ns, SeekClass seek,
                           std::vector<uint8_t>* out, uint64_t* done_ns) {
  if (failed_) {
    return Status::IOError("media failure on disk " + name_);
  }
  uint64_t track_bytes = 0;
  size_t restore_size = out->size();
  out->reserve(restore_size +
               static_cast<size_t>(pages) * params_.page_size_bytes);
  for (uint32_t i = 0; i < pages; ++i) {
    auto it = store_.find(first_page_no + i);
    if (it == store_.end()) {
      out->resize(restore_size);
      return Status::NotFound("disk " + name_ + ": page " +
                              std::to_string(first_page_no + i) +
                              " never written");
    }
    Status st = CheckReadPage(first_page_no + i, &it->second, now_ns);
    if (!st.ok()) {
      out->resize(restore_size);
      return st;
    }
    out->insert(out->end(), it->second.begin(), it->second.end());
    bytes_read_ += it->second.size();
    track_bytes += it->second.size();
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  double per_page_ms = params_.page_transfer_ms / params_.track_rate_multiplier;
  auto xfer =
      static_cast<uint64_t>(per_page_ms * kMsToNs * static_cast<double>(pages));
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  *done_ns = done;
  pages_read_ += pages;
  if (seek != SeekClass::kSequential) ++seeks_;
  NoteRead(pages, track_bytes, now_ns, done);
  return Status::OK();
}

Status DuplexedDisk::ReadWithFallback(Disk* first, Disk* second,
                                      uint64_t page_no, uint64_t now_ns,
                                      SeekClass seek,
                                      std::vector<uint8_t>* data,
                                      uint64_t* done_ns) {
  Status st1 = first->ReadPage(page_no, now_ns, seek, data, done_ns);
  if (st1.ok() || st1.IsFault()) return st1;
  Status st2 = second->ReadPage(page_no, now_ns, seek, data, done_ns);
  if (st2.ok()) {
    ++mirror_fallbacks_;
    if (m_fallbacks_ != nullptr) m_fallbacks_->Add(1);
    return st2;
  }
  if (st2.IsFault()) return st2;
  // Both copies failed: surface the most diagnostic status. NotFound is
  // preserved only when neither member has the page (sparse LSN probes
  // in ArchiveManager::RollLog rely on it).
  if (st1.IsCorruption()) return st1;
  if (st2.IsCorruption()) return st2;
  if (st1.IsIOError()) return st1;
  if (st2.IsIOError()) return st2;
  return st1;
}

}  // namespace mmdb::sim
