#include "sim/disk.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb::sim {

namespace {
constexpr double kMsToNs = 1e6;

Status MediaFailure(const std::string& disk) {
  return Status::IOError("media failure on disk " + disk);
}

Status NeverWritten(const std::string& disk, uint64_t page_no) {
  return Status::NotFound("disk " + disk + ": page " +
                          std::to_string(page_no) + " never written");
}

Status LatentCorruption(const std::string& disk, uint64_t page_no) {
  return Status::Corruption("latent sector corruption on disk " + disk +
                            " page " + std::to_string(page_no));
}

/// The more diagnostic of two failed reads of one page: Corruption over
/// IOError over NotFound. NotFound survives only when neither copy exists
/// (sparse LSN probes rely on it).
Status MoreDiagnostic(Status first, Status second) {
  if (first.IsCorruption()) return first;
  if (second.IsCorruption()) return second;
  if (first.IsIOError()) return first;
  if (second.IsIOError()) return second;
  return first;
}
}  // namespace

bool Page::Verifies() const {
  return Crc32(bytes->data(), bytes->size()) == crc;
}

Page MakePage(std::vector<uint8_t> bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  return Page{std::make_shared<const std::vector<uint8_t>>(std::move(bytes)),
              crc};
}

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

Status Disk::StoredPage(uint64_t page_no, Page* page) const {
  if (failed_) {
    return MediaFailure(name_);
  }
  auto it = store_.find(page_no);
  if (it == store_.end()) {
    return NeverWritten(name_, page_no);
  }
  if (!it->second.Verifies()) {
    return LatentCorruption(name_, page_no);
  }
  *page = it->second;
  return Status::OK();
}

bool Disk::PageClean(uint64_t page_no) const {
  auto it = store_.find(page_no);
  return it != store_.end() && it->second.Verifies();
}

void Disk::ReleasePages(uint64_t first_page_no, uint64_t pages) {
  for (uint64_t i = 0; i < pages; ++i) store_.erase(first_page_no + i);
}

std::vector<uint64_t> Disk::StoredPageNumbers() const {
  std::vector<uint64_t> pages;
  pages.reserve(store_.size());
  for (const auto& [page_no, bytes] : store_) pages.push_back(page_no);
  std::sort(pages.begin(), pages.end());
  return pages;
}

Status Disk::CheckReadPage(uint64_t page_no, Page* stored, uint64_t now_ns) {
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskRead;
    ev.device = name_.c_str();
    ev.page_no = page_no;
    ev.now_ns = now_ns;
    ev.shared_data = &stored->bytes;
    MMDB_RETURN_IF_ERROR(fault_->OnSite(&ev));
  }
  if (!stored->Verifies()) {
    return LatentCorruption(name_, page_no);
  }
  return Status::OK();
}

uint64_t Disk::WritePage(uint64_t page_no, const Page& page, uint64_t now_ns,
                         SeekClass seek) {
  const std::vector<uint8_t>& data = *page.bytes;
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
      if (it != store_.end() && it->second.bytes->size() > keep) {
        const std::vector<uint8_t>& old = *it->second.bytes;
        stored.insert(stored.end(), old.begin() + static_cast<long>(keep),
                      old.end());
      }
      store_[page_no] = MakePage(std::move(stored));
    } else {
      store_[page_no] = page;
    }
  }
  ++pages_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  bytes_written_ += data.size();
  NoteWrite(1, data.size(), now_ns, done);
  return done;
}

uint64_t Disk::WriteTrack(uint64_t first_page_no,
                          const std::vector<Page>& pages, uint64_t now_ns,
                          SeekClass seek) {
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
    const size_t size = pages[i].bytes->size();
    MMDB_CHECK(size <= params_.page_size_bytes);
    if (!suppress && i < keep_pages) store_[first_page_no + i] = pages[i];
    bytes_written_ += size;
    track_bytes += size;
  }
  pages_written_ += pages.size();
  ++tracks_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  NoteWrite(pages.size(), track_bytes, now_ns, done);
  return done;
}

Status Disk::ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                      Page* page, uint64_t* done_ns) {
  if (failed_) {
    return MediaFailure(name_);
  }
  auto it = store_.find(page_no);
  if (it == store_.end()) {
    return NeverWritten(name_, page_no);
  }
  MMDB_RETURN_IF_ERROR(CheckReadPage(page_no, &it->second, now_ns));
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  auto xfer = static_cast<uint64_t>(params_.page_transfer_ms * kMsToNs);
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  *page = it->second;
  *done_ns = done;
  ++pages_read_;
  if (seek != SeekClass::kSequential) ++seeks_;
  const size_t size = it->second.bytes->size();
  bytes_read_ += size;
  NoteRead(1, size, now_ns, done);
  return Status::OK();
}

Status Disk::ReadTrackInto(uint64_t first_page_no, uint32_t pages,
                           uint64_t now_ns, SeekClass seek,
                           std::vector<uint8_t>* out, uint64_t* done_ns) {
  if (failed_) {
    return MediaFailure(name_);
  }
  uint64_t track_bytes = 0;
  size_t restore_size = out->size();
  out->reserve(restore_size +
               static_cast<size_t>(pages) * params_.page_size_bytes);
  for (uint32_t i = 0; i < pages; ++i) {
    auto it = store_.find(first_page_no + i);
    if (it == store_.end()) {
      out->resize(restore_size);
      return NeverWritten(name_, first_page_no + i);
    }
    Status st = CheckReadPage(first_page_no + i, &it->second, now_ns);
    if (!st.ok()) {
      out->resize(restore_size);
      return st;
    }
    const std::vector<uint8_t>& bytes = *it->second.bytes;
    out->insert(out->end(), bytes.begin(), bytes.end());
    bytes_read_ += bytes.size();
    track_bytes += bytes.size();
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
                                      SeekClass seek, Page* page,
                                      uint64_t* done_ns) {
  Status st1 = first->ReadPage(page_no, now_ns, seek, page, done_ns);
  if (st1.ok() || st1.IsFault()) return st1;
  Status st2 = second->ReadPage(page_no, now_ns, seek, page, done_ns);
  if (st2.ok()) {
    ++mirror_fallbacks_;
    if (m_fallbacks_ != nullptr) m_fallbacks_->Add(1);
    return st2;
  }
  if (st2.IsFault()) return st2;
  return MoreDiagnostic(std::move(st1), std::move(st2));
}

Status DuplexedDisk::StoredPage(uint64_t page_no, Page* page) const {
  Status st1 = primary_.StoredPage(page_no, page);
  if (st1.ok()) return st1;
  Status st2 = mirror_.StoredPage(page_no, page);
  if (st2.ok()) return st2;
  return MoreDiagnostic(std::move(st1), std::move(st2));
}

}  // namespace mmdb::sim
