#ifndef MMDB_SIM_DISK_H_
#define MMDB_SIM_DISK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace mmdb::sim {

/// Timing and geometry parameters of a simulated disk.
///
/// Defaults model the paper's "two-head-per-surface high-performance disk
/// drive" (Section 3.1): relatively low seek times, track transfers at
/// double the per-page rate (partitions are written in whole tracks; log
/// pages individually on interleaved sectors so consecutive page writes
/// need no extra rotational delay beyond one sector of think time).
struct DiskParams {
  uint32_t page_size_bytes = 8 * 1024;
  /// Pages per track; with 8KB pages and 48KB partitions a partition is
  /// exactly one track, matching the paper's "partitions are written in
  /// whole tracks".
  uint32_t pages_per_track = 6;
  /// Random (average) seek, used for checkpoint-image reads/writes.
  double avg_seek_ms = 8.0;
  /// Short seek between nearby cylinders, used between sibling log pages
  /// of one partition ("each page will be relatively close to its sibling").
  double near_seek_ms = 2.0;
  /// Head settle / rotational latency component charged per operation.
  double settle_ms = 0.5;
  /// Transfer time for one page at the individual-page rate.
  double page_transfer_ms = 0.4;
  /// Track transfers run at double the individual-page rate.
  double track_rate_multiplier = 2.0;
};

/// Bounded retry policy for transient disk read errors: callers in the
/// log/checkpoint/restart read paths retry IOError up to
/// `kReadRetryAttempts` total attempts, backing the virtual clock off by
/// `attempt * kReadRetryBackoffNs` between attempts.
inline constexpr uint32_t kReadRetryAttempts = 3;
inline constexpr uint64_t kReadRetryBackoffNs = 500'000;  // 0.5 ms

/// One page as a device stores it: its bytes and the device CRC ("sector
/// checksum") taken when the page was built.
///
/// The bytes are immutable and shared by reference, so a page is built
/// and checksummed once however many devices hold it: both members of a
/// duplexed pair, the checkpoint disk and the archive. Copying a `Page`
/// copies the reference. A device whose copy must differ gets a private
/// buffer instead (copy-on-write): a torn write stores a new hybrid page,
/// and injected latent corruption swaps in an altered copy of the bytes
/// under the old CRC, which the next read then fails to verify.
struct Page {
  std::shared_ptr<const std::vector<uint8_t>> bytes;
  uint32_t crc = 0;

  /// True when the bytes still match the CRC taken when the page was
  /// built.
  bool Verifies() const;
};

/// Builds a page from `bytes`, checksumming it once.
Page MakePage(std::vector<uint8_t> bytes);

/// Kinds of positioning cost for an access.
enum class SeekClass {
  kSequential,  // head already positioned (e.g. circular-queue head)
  kNear,        // short seek (sibling log pages)
  kRandom,      // average seek (checkpoint image anywhere on disk)
};

/// A single simulated disk: a persistent page store plus a service
/// timeline.
///
/// Contents survive `Database::Crash()` (the object simply is not
/// destroyed); `FailMedia()` simulates a media failure for archive-recovery
/// tests by dropping all stored pages and failing subsequent reads until
/// `RepairMedia()` is called. `ReleasePages()` drops the pages of a freed
/// region (a checkpoint slot whose free has committed); a read of a
/// released page returns NotFound, as for a page never written.
///
/// Every stored `Page` carries a device-level CRC ("sector checksum")
/// computed when the page was built. Reads verify it and return
/// Status::Corruption on mismatch, which is how injected latent sector
/// corruption surfaces. Torn writes stay CRC-consistent at the device
/// level (each sector is internally whole) and are only detectable by
/// content-level checks such as the log-page payload CRC.
///
/// Timing model: the disk serializes requests on its own `busy_until`
/// timeline. A request submitted at time `t` starts at max(t, busy_until)
/// and completes after positioning + transfer. Callers get the completion
/// time back and decide whether to block on it (synchronous read) or not
/// (the recovery CPU fires page writes and keeps sorting).
class Disk {
 public:
  Disk(std::string name, DiskParams params)
      : name_(std::move(name)), params_(params) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  const std::string& name() const { return name_; }
  const DiskParams& params() const { return params_; }

  /// Registers this disk's metric series (`disk.<name>.*`) with `reg`:
  /// read/write counters plus an observed-latency histogram per
  /// direction (queueing + positioning + transfer, virtual ns).
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Arms the fault hooks at this disk's `disk.write` / `disk.read`
  /// sites; pass null (the default state) to leave them as no-ops.
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Submit a one-page write. The disk stores `page` by reference.
  /// Returns the completion time (ns).
  uint64_t WritePage(uint64_t page_no, const Page& page, uint64_t now_ns,
                     SeekClass seek);

  /// Submit a whole-track write (`pages` consecutive pages starting at
  /// `first_page_no`) at the track transfer rate.
  uint64_t WriteTrack(uint64_t first_page_no, const std::vector<Page>& pages,
                      uint64_t now_ns, SeekClass seek);

  /// Read one page. On success sets `*page` to the stored page (a
  /// reference, not a copy of the bytes) and returns the completion time
  /// via `*done_ns`.
  Status ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                  Page* page, uint64_t* done_ns);

  /// Read `pages` consecutive pages at the track rate, appending the
  /// bytes directly to `*out` (no per-page vectors: checkpoint images are
  /// consumed as one contiguous buffer). A page that was never written
  /// or fails its check returns the error and leaves `*out` as it was.
  Status ReadTrackInto(uint64_t first_page_no, uint32_t pages, uint64_t now_ns,
                       SeekClass seek, std::vector<uint8_t>* out,
                       uint64_t* done_ns);

  /// The stored page itself, by reference, outside the timing model: no
  /// service time, no counters, no `disk.read` visit. NotFound when the
  /// page was never written or was released, IOError after a media
  /// failure, Corruption when its device CRC does not verify.
  Status StoredPage(uint64_t page_no, Page* page) const;

  bool Contains(uint64_t page_no) const {
    return store_.find(page_no) != store_.end();
  }

  /// True when the page is stored and its device CRC verifies. Used by
  /// the re-silverer to skip pages already copied (idempotent resume).
  bool PageClean(uint64_t page_no) const;

  /// Drops `pages` consecutive stored pages from `first_page_no` on: the
  /// region was freed and nothing durable refers to it any more. Takes
  /// no time and visits no fault site.
  void ReleasePages(uint64_t first_page_no, uint64_t pages);

  /// All stored page numbers in ascending order (deterministic
  /// enumeration for re-silvering).
  std::vector<uint64_t> StoredPageNumbers() const;

  /// Simulated media failure: drops all pages; reads fail until repaired.
  void FailMedia() {
    failed_ = true;
    store_.clear();
  }
  void RepairMedia() { failed_ = false; }
  bool media_failed() const { return failed_; }

  uint64_t busy_until_ns() const { return busy_until_ns_; }

  // --- statistics ---------------------------------------------------------
  uint64_t pages_written() const { return pages_written_; }
  uint64_t pages_read() const { return pages_read_; }
  uint64_t tracks_written() const { return tracks_written_; }
  uint64_t seeks() const { return seeks_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  double busy_ms_total() const { return busy_ns_total_ * 1e-6; }

 private:
  uint64_t PositioningNs(SeekClass seek) const;
  uint64_t BeginOp(uint64_t now_ns) {
    return now_ns > busy_until_ns_ ? now_ns : busy_until_ns_;
  }
  /// Fires the disk.read hook and verifies the device CRC for one stored
  /// page. Returns non-OK on injected errors or CRC mismatch. Injected
  /// corruption replaces `*stored`'s bytes with a private altered copy.
  Status CheckReadPage(uint64_t page_no, Page* stored, uint64_t now_ns);
  void NoteWrite(uint64_t pages, uint64_t bytes, uint64_t now_ns,
                 uint64_t done_ns) {
    if (m_pages_written_ == nullptr) return;
    m_pages_written_->Add(pages);
    m_bytes_written_->Add(bytes);
    m_write_ns_->Record(static_cast<double>(done_ns - now_ns));
  }
  void NoteRead(uint64_t pages, uint64_t bytes, uint64_t now_ns,
                uint64_t done_ns) {
    if (m_pages_read_ == nullptr) return;
    m_pages_read_->Add(pages);
    m_bytes_read_->Add(bytes);
    m_read_ns_->Record(static_cast<double>(done_ns - now_ns));
  }

  std::string name_;
  DiskParams params_;
  std::unordered_map<uint64_t, Page> store_;
  bool failed_ = false;
  fault::FaultInjector* fault_ = nullptr;

  uint64_t busy_until_ns_ = 0;
  uint64_t pages_written_ = 0;
  uint64_t pages_read_ = 0;
  uint64_t tracks_written_ = 0;
  uint64_t seeks_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  double busy_ns_total_ = 0;

  // Optional registry series (null until AttachMetrics).
  obs::Counter* m_pages_written_ = nullptr;
  obs::Counter* m_pages_read_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Histogram* m_write_ns_ = nullptr;
  obs::Histogram* m_read_ns_ = nullptr;
};

/// A duplexed pair of disks (the paper's log disks are duplexed).
///
/// Writes go to both members, which store the one `Page` by reference;
/// the logical completion time is the later of the two. Reads try one
/// member and fall back to the other on any per-page failure (corrupt
/// CRC, media failure, transient error), not just whole-media loss; the
/// duplex surfaces an error only when both copies fail, preferring the
/// more diagnostic status (Corruption over IOError over NotFound).
class DuplexedDisk {
 public:
  DuplexedDisk(std::string name, DiskParams params)
      : name_(std::move(name)),
        primary_(name_ + "-a", params),
        mirror_(name_ + "-b", params) {}

  void AttachMetrics(obs::MetricsRegistry* reg) {
    primary_.AttachMetrics(reg);
    mirror_.AttachMetrics(reg);
    m_fallbacks_ = reg->counter("disk." + name_ + ".mirror_fallbacks");
  }

  void SetFaultInjector(fault::FaultInjector* inj) {
    primary_.SetFaultInjector(inj);
    mirror_.SetFaultInjector(inj);
  }

  uint64_t WritePage(uint64_t page_no, const Page& page, uint64_t now_ns,
                     SeekClass seek) {
    uint64_t a = primary_.WritePage(page_no, page, now_ns, seek);
    uint64_t b = mirror_.WritePage(page_no, page, now_ns, seek);
    return a > b ? a : b;
  }

  /// Read preferring the primary, transparently retrying the mirror on a
  /// per-page failure.
  Status ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                  Page* page, uint64_t* done_ns) {
    return ReadWithFallback(&primary_, &mirror_, page_no, now_ns, seek, page,
                            done_ns);
  }

  /// The stored page by reference (`Disk::StoredPage`): the primary's
  /// when its CRC verifies, else the mirror's; the error when neither
  /// member holds a good copy, by the same preference as a read.
  Status StoredPage(uint64_t page_no, Page* page) const;

  /// Read served by whichever member's queue frees up sooner (both hold
  /// every page, so concurrent recovery lanes can fan reads across the
  /// pair), falling back to the other member on per-page failure. Ties go
  /// to the primary, so the choice is deterministic.
  Status ReadPageAny(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                     Page* page, uint64_t* done_ns) {
    Disk* first = &primary_;
    Disk* second = &mirror_;
    if (primary_.media_failed() ||
        (!mirror_.media_failed() &&
         mirror_.busy_until_ns() < primary_.busy_until_ns())) {
      first = &mirror_;
      second = &primary_;
    }
    return ReadWithFallback(first, second, page_no, now_ns, seek, page,
                            done_ns);
  }

  uint64_t mirror_fallbacks() const { return mirror_fallbacks_; }

  const std::string& name() const { return name_; }
  Disk& primary() { return primary_; }
  Disk& mirror() { return mirror_; }
  const Disk& primary() const { return primary_; }
  const Disk& mirror() const { return mirror_; }

  /// Member access by index (0 = primary, 1 = mirror), for re-silvering.
  Disk& member(int i) { return i == 0 ? primary_ : mirror_; }
  const Disk& member(int i) const { return i == 0 ? primary_ : mirror_; }

 private:
  Status ReadWithFallback(Disk* first, Disk* second, uint64_t page_no,
                          uint64_t now_ns, SeekClass seek, Page* page,
                          uint64_t* done_ns);

  std::string name_;
  Disk primary_;
  Disk mirror_;
  uint64_t mirror_fallbacks_ = 0;
  obs::Counter* m_fallbacks_ = nullptr;
};

}  // namespace mmdb::sim

#endif  // MMDB_SIM_DISK_H_
