#include "log/log_disk.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb {

Status ParseLogStream(std::span<const uint8_t> stream,
                      std::vector<LogRecord>* records, bool with_epoch,
                      std::vector<size_t>* ends) {
  wire::Reader r(stream);
  while (r.remaining() > 0) {
    uint32_t epoch = 0;
    uint64_t csn = 0;
    if (with_epoch && (!r.GetVarint(&epoch) || !r.GetVarint(&csn))) {
      return Status::Corruption("malformed epoch frame");
    }
    auto rec = LogRecord::Parse(&r);
    if (!rec.ok()) return rec.status();
    rec.value().epoch = epoch;
    rec.value().csn = csn;
    records->push_back(std::move(rec).value());
    if (ends != nullptr) ends->push_back(stream.size() - r.remaining());
  }
  return Status::OK();
}

void LogDiskWriter::AttachMetrics(obs::MetricsRegistry* reg,
                                  const std::string& suffix) {
  m_pages_flushed_ = reg->counter("log.pages_flushed" + suffix);
  m_archive_pages_ = reg->counter("log.archive_pages" + suffix);
  m_retries_ = reg->counter("disk.retries_total");
  m_flush_ns_ = reg->histogram("log.flush_ns" + suffix);
  m_next_lsn_ = reg->gauge("log.next_lsn" + suffix);
  m_next_lsn_->Set(static_cast<double>(next_lsn_));
}

void LogDiskWriter::NoteFlush(const char* kind, PartitionId pid,
                              uint64_t now_ns, uint64_t done_ns) {
  if (m_flush_ns_ != nullptr) {
    m_flush_ns_->Record(static_cast<double>(done_ns - now_ns));
    m_next_lsn_->Set(static_cast<double>(next_lsn_));
  }
  if (tracer_ != nullptr) {
    tracer_->Span(track_, "log",
                  std::string(kind) + " " + pid.ToString(), now_ns,
                  done_ns - now_ns);
  }
}

uint32_t LogDiskWriter::PagePayloadCapacity(size_t dir_entries) const {
  size_t overhead = kPageHeaderBytes + dir_entries * 8;
  MMDB_CHECK(config_.page_bytes > overhead);
  return static_cast<uint32_t>(config_.page_bytes - overhead);
}

std::vector<uint8_t> LogDiskWriter::BuildPage(
    uint64_t lsn, PartitionId pid, uint64_t prev_lsn, uint64_t prev_anchor,
    const std::vector<uint64_t>& dir,
    std::span<const uint8_t> stream_bytes) const {
  std::vector<uint8_t> out;
  out.reserve(kPageHeaderBytes + dir.size() * 8 + stream_bytes.size());
  wire::PutU64(&out, lsn);
  wire::PutU64(&out, pid.Pack());
  wire::PutU64(&out, prev_lsn);
  wire::PutU64(&out, prev_anchor);
  wire::PutU16(&out, static_cast<uint16_t>(dir.size()));
  wire::PutU16(&out, 0);  // reserved
  std::vector<uint8_t> body;
  for (uint64_t d : dir) wire::PutU64(&body, d);
  body.insert(body.end(), stream_bytes.begin(), stream_bytes.end());
  wire::PutU32(&out, Crc32(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  MMDB_CHECK(out.size() <= config_.page_bytes);
  return out;
}

Result<uint64_t> LogDiskWriter::FlushBinPage(PartitionBin* bin,
                                             uint32_t dir_capacity,
                                             uint64_t now_ns,
                                             uint64_t* done_ns) {
  if (bin->active_page.empty()) {
    return Status::InvalidArgument("flush of empty active page");
  }
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kSlbFlush;
    ev.device = disks_->name().c_str();
    ev.page_no = next_lsn_;
    ev.now_ns = now_ns;
    MMDB_RETURN_IF_ERROR(fault_->OnSite(&ev));
  }
  uint64_t lsn = next_lsn_++;
  std::vector<uint64_t> embedded;
  uint64_t prev_anchor = bin->last_anchor_lsn;
  bool is_anchor = bin->directory.size() >= dir_capacity;
  if (is_anchor) {
    // This page becomes an anchor: it carries the directory of the pages
    // written since the previous anchor (paper Fig. 4(b)).
    embedded = bin->directory;
  }
  size_t cap = PagePayloadCapacity(embedded.size());
  size_t take = std::min<size_t>(cap, bin->active_page.size());
  sim::Page page = sim::MakePage(BuildPage(
      lsn, bin->partition, bin->last_page_lsn, prev_anchor, embedded,
      std::span<const uint8_t>(bin->active_page.data(), take)));
  *done_ns = disks_->WritePage(lsn, page, now_ns, sim::SeekClass::kSequential);
  // The bin's stable bookkeeping only advances once the page write went
  // through: a crash during the write leaves an orphaned, unreferenced
  // page and a bin that still owns every record byte.
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  if (is_anchor) {
    bin->directory.clear();
    bin->last_anchor_lsn = lsn;
  }
  if (m_pages_flushed_ != nullptr) m_pages_flushed_->Add(1);
  NoteFlush("log-flush", bin->partition, now_ns, *done_ns);
  if (bin->first_page_lsn == kNoLsn) bin->first_page_lsn = lsn;
  bin->last_page_lsn = lsn;
  ++bin->pages_since_checkpoint;
  bin->directory.push_back(lsn);
  bin->active_page.erase(bin->active_page.begin(),
                         bin->active_page.begin() + static_cast<long>(take));
  bin->active_records = 0;
  return lsn;
}

Result<uint64_t> LogDiskWriter::WriteArchivePage(
    std::span<const uint8_t> stream_bytes, uint64_t now_ns,
    uint64_t* done_ns) {
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kSlbFlush;
    ev.device = disks_->name().c_str();
    ev.page_no = next_lsn_;
    ev.now_ns = now_ns;
    MMDB_RETURN_IF_ERROR(fault_->OnSite(&ev));
  }
  uint64_t lsn = next_lsn_++;
  sim::Page page = sim::MakePage(
      BuildPage(lsn, PartitionId::Unpack(kArchiveCombinedTag), kNoLsn, kNoLsn,
                {}, stream_bytes));
  *done_ns = disks_->WritePage(lsn, page, now_ns, sim::SeekClass::kSequential);
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_));
  if (m_archive_pages_ != nullptr) m_archive_pages_->Add(1);
  NoteFlush("archive-combine", PartitionId::Unpack(kArchiveCombinedTag), now_ns,
            *done_ns);
  return lsn;
}

Status LogDiskWriter::ReadPage(uint64_t lsn, uint64_t now_ns,
                               sim::SeekClass seek, ParsedLogPage* page,
                               uint64_t* done_ns, bool any_member) {
  sim::Page raw;
  uint64_t t = now_ns;
  Status st;
  for (uint32_t attempt = 0;; ++attempt) {
    st = any_member ? disks_->ReadPageAny(lsn, t, seek, &raw, done_ns)
                    : disks_->ReadPage(lsn, t, seek, &raw, done_ns);
    if (st.ok()) {
      st = ParseRawPage(lsn, *raw.bytes, page);
      if (st.ok() || !st.IsCorruption()) return st;
      break;  // content-level corruption: try each member explicitly
    }
    if (!st.IsIOError() || attempt + 1 >= sim::kReadRetryAttempts) return st;
    t += (attempt + 1) * sim::kReadRetryBackoffNs;
    if (m_retries_ != nullptr) m_retries_->Add(1);
  }
  // The duplex-level read returned a page whose device CRC verified but
  // whose content (payload CRC / LSN identity) did not. The other member
  // may still hold a good copy — a torn or poked page on one spindle must
  // not take down recovery.
  Status bad = st;
  for (int m = 0; m < 2; ++m) {
    sim::Disk& d = disks_->member(m);
    if (d.media_failed()) continue;
    Status rs = d.ReadPage(lsn, t, seek, &raw, done_ns);
    if (!rs.ok()) continue;
    if (ParseRawPage(lsn, *raw.bytes, page).ok()) {
      if (m_retries_ != nullptr) m_retries_->Add(1);
      return Status::OK();
    }
  }
  return bad;
}

Status LogDiskWriter::ParseRawPage(uint64_t lsn,
                                   const std::vector<uint8_t>& raw,
                                   ParsedLogPage* page) const {
  wire::Reader r(raw);
  uint64_t got_lsn, part, prev, prev_anchor;
  uint16_t n_dir, reserved;
  uint32_t crc;
  if (!r.GetU64(&got_lsn) || !r.GetU64(&part) || !r.GetU64(&prev) ||
      !r.GetU64(&prev_anchor) || !r.GetU16(&n_dir) || !r.GetU16(&reserved) ||
      !r.GetU32(&crc)) {
    return Status::Corruption("truncated log page header");
  }
  if (got_lsn != lsn) {
    // Paper §2.3.3: the identity attached to each page "serves as a
    // consistency check during recovery so that the recovery manager can
    // be assured of having the correct page".
    return Status::Corruption("log page LSN mismatch");
  }
  size_t body_off = r.pos();
  if (Crc32(raw.data() + body_off, raw.size() - body_off) != crc) {
    return Status::Corruption("log page checksum mismatch");
  }
  page->lsn = got_lsn;
  page->partition = PartitionId::Unpack(part);
  page->prev_lsn = prev;
  page->prev_anchor_lsn = prev_anchor;
  page->directory.clear();
  for (uint16_t i = 0; i < n_dir; ++i) {
    uint64_t d;
    if (!r.GetU64(&d)) return Status::Corruption("truncated page directory");
    page->directory.push_back(d);
  }
  std::span<const uint8_t> payload;
  if (!r.GetBytes(r.remaining(), &payload)) {
    return Status::Corruption("truncated page payload");
  }
  page->payload.assign(payload.begin(), payload.end());
  return Status::OK();
}

}  // namespace mmdb
