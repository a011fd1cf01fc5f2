#ifndef MMDB_LOG_LOG_DISK_H_
#define MMDB_LOG_LOG_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "log/log_record.h"
#include "log/slt.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/disk.h"
#include "util/status.h"

namespace mmdb {

/// Partition-id value tagging archive-combine pages (partial pages of
/// checkpointed partitions merged to save log space, paper §2.4).
inline constexpr uint64_t kArchiveCombinedTag = 0;

/// A parsed log page read back from the log disk.
///
/// Pages carry a byte range of their bin's record *stream*: records are
/// serialized back to back and may span page boundaries (large records —
/// e.g. full index-node or catalog-row images — can exceed one page).
/// Recovery reconstructs the stream by concatenating page payloads in
/// LSN order (plus the bin's stable active page) and parsing it with
/// ParseLogStream.
struct ParsedLogPage {
  uint64_t lsn = kNoLsn;
  PartitionId partition;
  uint64_t prev_lsn = kNoLsn;
  uint64_t prev_anchor_lsn = kNoLsn;
  /// Embedded directory (non-empty on anchor pages): LSNs, oldest first,
  /// of the pages between the previous anchor (exclusive) and this page
  /// (exclusive).
  std::vector<uint64_t> directory;
  std::vector<uint8_t> payload;
};

/// Parses a complete record stream (concatenated page payloads). With
/// `with_epoch` set, every record is preceded by its [epoch | csn] varint
/// frame (multi-stream log format) and the parsed records carry epoch/csn.
/// `ends`, if given, receives each parsed record's end offset in the
/// stream (so a caller can tell which page completes which record).
Status ParseLogStream(std::span<const uint8_t> stream,
                      std::vector<LogRecord>* records,
                      bool with_epoch = false,
                      std::vector<size_t>* ends = nullptr);

/// Writer/reader of the duplexed log disks, and keeper of the *log
/// window* (paper §2.3.3).
///
/// LSNs here are page sequence numbers, monotonically increasing for the
/// life of the database (they survive crashes: the counter is part of the
/// stable store). The log window is a fixed number of the most recent
/// pages; pages older than the window are eligible for reuse, so any
/// partition whose oldest page is about to fall off the window's tail
/// must be checkpointed "because of age" — with a grace period between
/// the trigger and actual reuse.
class LogDiskWriter {
 public:
  struct Config {
    uint32_t page_bytes = 8 * 1024;
    /// Log window size in pages.
    uint64_t window_pages = 4096;
    /// Grace period: age-checkpoints trigger while a partition's first
    /// page is within this many pages of falling off the window.
    uint64_t grace_pages = 64;
  };

  /// Serialized page header size (see AppendTo in the .cc).
  static constexpr size_t kPageHeaderBytes = 8 * 4 + 2 + 2 + 4;

  LogDiskWriter(Config config, sim::DuplexedDisk* disks)
      : config_(config), disks_(disks) {}

  LogDiskWriter(const LogDiskWriter&) = delete;
  LogDiskWriter& operator=(const LogDiskWriter&) = delete;

  const Config& config() const { return config_; }

  /// Registers the writer's metric series (`log.*`, each name followed by
  /// `suffix`): pages-flushed / archive-page counters, a flush-latency
  /// histogram (submit to disk completion, virtual ns), and a next-LSN
  /// gauge for window pressure. Read retries count into the shared
  /// `disk.retries_total`.
  void AttachMetrics(obs::MetricsRegistry* reg, const std::string& suffix = "");

  /// Attaches a tracer; each flushed page then emits a span on `track`.
  void AttachTracer(obs::Tracer* tracer,
                    obs::Track track = obs::Track::kLogDisk) {
    tracer_ = tracer;
    track_ = track;
  }

  /// Arms the `slb.flush` fault site at the flush entry points plus
  /// post-write barriers (crash between the disk write and the bin's
  /// stable bookkeeping leaves an orphaned-but-unreferenced log page,
  /// exactly like a real torn flush).
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Max record payload bytes a page can hold given whether it must embed
  /// a directory of `dir_entries` LSNs.
  uint32_t PagePayloadCapacity(size_t dir_entries) const;

  /// Flushes one full page worth of `bin`'s active stream to the log
  /// disk: takes the first PagePayloadCapacity(...) bytes (the caller
  /// only flushes when at least a full page has accumulated), builds the
  /// page (embedding the directory and becoming an anchor when the bin's
  /// directory has reached `dir_capacity` entries), chains it, assigns
  /// the next LSN, and updates the bin's chain state. Returns the LSN.
  /// `done_ns` receives the disk completion time; log pages are written
  /// to interleaved sectors, so consecutive appends pay no seek
  /// (SeekClass::kSequential).
  Result<uint64_t> FlushBinPage(PartitionBin* bin, uint32_t dir_capacity,
                                uint64_t now_ns, uint64_t* done_ns);

  /// Writes an archive-combine page (stream bytes of already-
  /// checkpointed partitions, kept only for media recovery). Not part of
  /// any bin chain.
  Result<uint64_t> WriteArchivePage(std::span<const uint8_t> stream_bytes,
                                    uint64_t now_ns, uint64_t* done_ns);

  /// Reads and parses one log page, served by the primary disk — or with
  /// `any_member` by whichever duplexed member is free sooner at `now_ns`
  /// (recovery fans its reads across both spindles; each disk's
  /// busy-until timeline serializes the requests it wins). Transient
  /// IOErrors retry with virtual backoff; a page whose device CRC
  /// verified but whose content did not is retried on each member.
  Status ReadPage(uint64_t lsn, uint64_t now_ns, sim::SeekClass seek,
                  ParsedLogPage* page, uint64_t* done_ns,
                  bool any_member = false);

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t pages_written() const { return next_lsn_; }

  /// Oldest LSN still inside the log window.
  uint64_t window_start() const {
    return next_lsn_ > config_.window_pages ? next_lsn_ - config_.window_pages
                                            : 0;
  }
  /// The window less its grace region: a page is age_span() pages old
  /// when it enters the grace region.
  uint64_t age_span() const {
    return config_.window_pages > config_.grace_pages
               ? config_.window_pages - config_.grace_pages
               : 0;
  }
  /// LSNs below this are within the grace region: their partitions should
  /// be checkpointed because of age (they are within grace_pages of
  /// falling off the tail of the log window). Zero while the log is
  /// still far from filling the window.
  uint64_t age_boundary() const {
    return next_lsn_ > age_span() ? next_lsn_ - age_span() : 0;
  }

 private:
  std::vector<uint8_t> BuildPage(uint64_t lsn, PartitionId pid,
                                 uint64_t prev_lsn, uint64_t prev_anchor,
                                 const std::vector<uint64_t>& dir,
                                 std::span<const uint8_t> stream_bytes) const;

  Status ParseRawPage(uint64_t lsn, const std::vector<uint8_t>& raw,
                      ParsedLogPage* page) const;

  void NoteFlush(const char* kind, PartitionId pid, uint64_t now_ns,
                 uint64_t done_ns);

  Config config_;
  sim::DuplexedDisk* disks_;
  uint64_t next_lsn_ = 0;
  fault::FaultInjector* fault_ = nullptr;

  // Optional observers (null until attached).
  obs::Counter* m_pages_flushed_ = nullptr;
  obs::Counter* m_archive_pages_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Histogram* m_flush_ns_ = nullptr;
  obs::Gauge* m_next_lsn_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Track track_ = obs::Track::kLogDisk;
};

}  // namespace mmdb

#endif  // MMDB_LOG_LOG_DISK_H_
