#ifndef MMDB_CORE_LOG_STREAMS_H_
#define MMDB_CORE_LOG_STREAMS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "log/log_disk.h"
#include "log/slb.h"
#include "log/slt.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "recovery/archive.h"
#include "sim/cpu.h"
#include "sim/disk.h"
#include "sim/scheduler.h"
#include "sim/stable_memory.h"
#include "txn/transaction.h"
#include "util/status.h"

namespace mmdb {

struct DatabaseOptions;

/// One log stream: the paper's logger (§2.2-2.3) once over. It owns the
/// stream's SLB and SLT in stable memory, its duplexed log pair and page
/// writer, and runs the stream's sort process on the shared recovery CPU.
/// Stream 0's series and disks carry the single-stream names; stream s > 0
/// appends `suffix()` (".<s>") to its series, names its disk pair "log<s>"
/// and traces to its own log-disk track.
///
/// The sort process moves committed REDO records from the SLB into
/// partition bins in the SLT, writes every full bin page to the log disk
/// and asks the main CPU for checkpoints, by update count or by age as the
/// log window advances. Each step charges its Table 2 instruction count
/// to the recovery CPU. Everything but the First-LSN list is stable; a
/// crash rebuilds that list from the bins.
class LogStream {
 public:
  /// Builds stream `index` from `opts` (which must outlive it) on `meter`
  /// and `recovery_cpu`; `fault`, `metrics` and `tracer` may be null.
  LogStream(const DatabaseOptions& opts, uint32_t index,
            sim::StableMemoryMeter* meter, sim::CpuModel* recovery_cpu,
            fault::FaultInjector* fault = nullptr,
            obs::MetricsRegistry* metrics = nullptr,
            obs::Tracer* tracer = nullptr);

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  const std::string& suffix() const { return suffix_; }
  StableLogBuffer& slb() { return slb_; }
  const StableLogBuffer& slb() const { return slb_; }
  StableLogTail& slt() { return slt_; }
  const StableLogTail& slt() const { return slt_; }
  sim::DuplexedDisk& disks() { return disks_; }
  LogDiskWriter& writer() { return writer_; }
  /// SLB block-allocation gate shared by the stream's workers.
  sim::DeviceTimeline& gate() { return gate_; }
  /// Epoch group-commit marker: the last epoch whose flush marker this
  /// stream persisted (several streams only).
  uint32_t flushed_epoch() const { return flushed_epoch_; }
  void set_flushed_epoch(uint32_t epoch) { flushed_epoch_ = epoch; }

  // --- the sort process (recovery CPU) ---------------------------------------
  /// Sorts up to `max_records` committed records into their bins, flushing
  /// full pages and raising checkpoint requests; returns how many it
  /// sorted. Records of epochs past `max_epoch` stay in the SLB, so
  /// nothing binned or on disk ever needs discarding at a crash. Each
  /// SLB pop and bin append is one atomic stable transition: an injected
  /// crash lands between records.
  Result<uint64_t> Pump(uint64_t max_records, uint64_t now_ns,
                        uint32_t max_epoch = UINT32_MAX);
  /// Pumps until the committed list (up to `max_epoch`) is empty.
  Status Drain(uint64_t now_ns, uint32_t max_epoch = UINT32_MAX) {
    return Pump(~0ull, now_ns, max_epoch).status();
  }
  /// A checkpoint of bin `bin`'s partition finished (§2.4 step 7): its
  /// partial page joins the combine buffer, which writes full archive
  /// pages (media recovery only), and the bin is reset.
  Status OnCheckpointFinished(uint32_t bin, uint64_t now_ns);
  /// Rebuilds the volatile First-LSN list from the bins.
  void RebuildFirstLsnList();
  /// Releases a dropped partition's bin: it leaves the First-LSN list, so
  /// no later age request names it, then the SLT.
  Status DropBin(uint32_t bin);

  // --- reading a partition's log back ----------------------------------------
  /// The full in-order list of bin `bin`'s on-disk page LSNs, found by
  /// walking directory anchors back from the info block (§2.5.1).
  /// `*backward_reads` counts the anchor pages read; `*done_ns` is when
  /// the walk finished. Anchors are read from the primary disk, or with
  /// `any_member` from whichever member is free sooner.
  Status CollectPageList(uint32_t bin, uint64_t now_ns,
                         std::vector<uint64_t>* lsns, uint64_t* backward_reads,
                         uint64_t* done_ns, bool any_member = false);
  /// The stream's share of a partition's log: its records in stream
  /// order, the page ("chunk") whose arrival completes each record, each
  /// chunk's arrival time, and when the last page arrived.
  struct ChainLog {
    std::vector<LogRecord> records;
    std::vector<uint32_t> chunk_of;    // per record
    std::vector<uint64_t> arrived_ns;  // per chunk
    uint64_t pages_read = 0;
    uint64_t read_ns = 0;
  };
  /// Walks bin `bin`'s anchors back from `walk_ns`, reads every page
  /// forward (`fanned`: from whichever member is free sooner), then
  /// appends the bin's stable active page.
  Result<ChainLog> ReadChain(uint32_t bin, uint64_t walk_ns, bool fanned);

  uint64_t records_sorted() const { return records_sorted_; }
  /// First-LSN list (§2.3.3): each active partition's oldest on-disk log
  /// page, oldest first; only the head is tested when the window moves.
  const std::map<uint64_t, uint32_t>& first_lsn_list() const {
    return first_lsn_list_;
  }

 private:
  Status SortOne(const LogRecord& rec, uint64_t now_ns);
  Status FlushBin(uint32_t bin_index, PartitionBin* bin, uint64_t now_ns);
  void CheckAgeTriggers();
  /// `log.window_slack_pages`: pages the log can still write before the
  /// oldest active partition's age trigger fires (the window size when
  /// none is active, 0 while age checkpoints fire).
  void UpdateWindowSlack();

  const DatabaseOptions& opts_;
  const std::string suffix_;
  sim::StableMemoryMeter* meter_;
  sim::CpuModel* cpu_;
  fault::FaultInjector* fault_;
  StableLogBuffer slb_;
  StableLogTail slt_;
  sim::DuplexedDisk disks_;
  LogDiskWriter writer_;
  sim::DeviceTimeline gate_;
  uint32_t flushed_epoch_ = 0;

  std::map<uint64_t, uint32_t> first_lsn_list_;
  /// Combine buffer for checkpointed partitions' partial pages (§2.4):
  /// "its log records are copied to a buffer where they are combined with
  /// other log records to create a full page". Stable.
  std::vector<uint8_t> combine_buf_;
  /// One record's bytes, reused by every SortOne.
  std::vector<uint8_t> sort_scratch_;

  uint64_t records_sorted_ = 0;
  // Registry series (null without a registry).
  obs::Counter* m_records_sorted_ = nullptr;
  obs::Counter* m_ckpt_update_ = nullptr;
  obs::Counter* m_ckpt_age_ = nullptr;
  obs::Gauge* m_window_slack_ = nullptr;
};

/// The stable log (survives Database::Crash()): `log_streams` streams on
/// one stable-memory meter and one recovery CPU, and every rule about
/// them. With several streams each commit is stamped (epoch, csn) and is
/// externally durable once every stream's flush marker reaches its epoch
/// (epoch group commit); one stream has no stamp, only the csn latch the
/// version store orders by. Stream 0 alone also carries both catalog-root
/// copies, forced checkpoint requests, the WAL baselines' page writes,
/// the archive roll and the re-silvered pair.
///
/// `worker` arguments are the bound executor worker's CPU timeline (null
/// outside the executor); `now_ns` is the acting side's virtual time.
class LogStreams {
 public:
  /// A commit's group-commit stamp (epoch 0 with a single stream).
  struct Stamp {
    uint32_t epoch = 0;
    uint64_t csn = 0;
  };

  /// Builds every stream. `opts` must outlive this object.
  LogStreams(const DatabaseOptions& opts, const sim::CpuModel& main_cpu,
             sim::CpuModel* recovery_cpu, sim::StableMemoryMeter* meter,
             fault::FaultInjector* fault, obs::MetricsRegistry* metrics,
             obs::Tracer* tracer);

  LogStreams(const LogStreams&) = delete;
  LogStreams& operator=(const LogStreams&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(streams_.size()); }
  LogStream& stream(uint32_t s) { return streams_[s]; }
  /// The stream a transaction logs on.
  LogStream& of(const Transaction* txn) {
    return streams_[txn->log_stream()];
  }

  // --- the transaction side (main CPU) ---------------------------------------
  /// The stream of a transaction begun on executor worker `worker`: a
  /// user transaction's is worker % size(); any other's is stream 0, as
  /// is that of every transaction begun outside the executor.
  uint32_t Route(TxnKind kind, uint32_t worker) const {
    return kind == TxnKind::kUser ? worker % size() : 0;
  }
  /// Appends `redo` to the transaction's chain. A full SLB is drained
  /// (fence, then every stream) and the append retried once.
  Status Append(const Transaction* txn, const LogRecord& redo,
                sim::CpuModel* worker, uint64_t now_ns);
  /// Moves the chain to its stream's committed list. Several streams
  /// stamp (epoch, csn) first, epoch = max(now / epoch_interval + 1, last
  /// stamped), and fence a non-user commit on the spot; one stream only
  /// advances the csn latch, after the SLB commit succeeds.
  Result<Stamp> Commit(const Transaction* txn, sim::CpuModel* worker,
                       uint64_t now_ns);
  /// Discards the transaction's chain (abort).
  Status Discard(const Transaction* txn, sim::CpuModel* worker) {
    Gate(of(txn), worker);
    return of(txn).slb().Discard(txn->id());
  }
  /// The commit-mode baselines' log force (§1.1-1.2): the virtual time a
  /// user commit of `redo_bytes` waits until, or 0 when it does not wait.
  uint64_t ApplyCommitDurability(uint64_t redo_bytes, uint64_t now_ns);

  /// Newest csn: the snapshot a read-only transaction captures.
  uint64_t last_csn() const { return epoch_csn_last_; }
  /// The most recent commit's stamp (several streams only).
  const Stamp& last_commit() const { return last_commit_; }

  // --- the recovery CPU ------------------------------------------------------
  /// Writes every stream's epoch flush marker up to the stamp high-water.
  /// A crash between two markers acknowledges the epoch on some streams
  /// only. No-op with one stream.
  Status Fence();
  /// Epoch bound of a stream's sort process (none with one stream).
  uint32_t PumpBound(const LogStream& ls) const {
    return streams_.size() == 1 ? UINT32_MAX : ls.flushed_epoch();
  }
  /// Fences, then sorts up to `max_records` committed records per stream
  /// (by default every stream's whole backlog).
  Status Drain(uint64_t now_ns, uint64_t max_records = ~0ull);

  // --- crash and restart -----------------------------------------------------
  /// Crash semantics: with several streams, latches the discard frontier
  /// (min marker; a frontier already latched stays) and discards every
  /// stream's commits stamped past it; drops uncommitted chains.
  void OnCrash();
  /// The latched frontier (UINT32_MAX when none).
  uint32_t discard_frontier() const { return epoch_discard_frontier_; }
  /// Restart: drains every stream up to its own marker (no fence) and
  /// rebuilds the first-LSN lists.
  Status DrainForRestart(uint64_t now_ns) {
    for (LogStream& ls : streams_) {
      MMDB_RETURN_IF_ERROR(ls.Drain(now_ns, PumpBound(ls)));
      ls.RebuildFirstLsnList();
    }
    return Status::OK();
  }
  /// A restart completed: fences, then clears the latched frontier.
  Status RetireFrontier() {
    MMDB_RETURN_IF_ERROR(Fence());
    epoch_discard_frontier_ = UINT32_MAX;
    return Status::OK();
  }
  uint64_t max_txn_id() const {
    uint64_t id = 0;
    for (const LogStream& ls : streams_) {
      id = std::max(id, ls.slb().max_txn_id());
    }
    return id;
  }

  // --- bins: one index per partition on every stream -------------------------
  /// Registers `pid` on every stream. On failure no stream keeps a bin.
  Result<uint32_t> RegisterPartition(PartitionId pid);
  /// Releases a bin whose partition was never created, on the first
  /// `streams` streams. A pending injected crash keeps the bins; restart
  /// releases them.
  void ReleaseBin(uint32_t bin, uint32_t streams = UINT32_MAX);
  /// Releases a dropped partition's bin on every stream.
  void DropPartition(PartitionId pid) {
    auto bin = FindBin(pid);
    if (!bin.ok()) return;
    for (LogStream& ls : streams_) {
      Status st = ls.DropBin(bin.value());
      (void)st;
    }
  }
  /// Releases every bin whose partition `described` does not name.
  Status ReleaseUndescribed(const std::unordered_set<PartitionId>& described);
  Result<uint32_t> FindBin(PartitionId pid) const {
    return streams_[0].slt().FindBin(pid);
  }

  // --- checkpointing ---------------------------------------------------------
  /// The first pending request in stream order (`*s`: its stream).
  CheckpointRequest* NextCheckpointRequest(uint32_t* s) {
    for (*s = 0; *s < size(); ++*s) {
      for (CheckpointRequest& r : streams_[*s].slb().checkpoint_requests()) {
        if (r.state == CheckpointState::kRequest) return &r;
      }
    }
    return nullptr;
  }
  void ClearFinished(uint32_t stream, PartitionId pid) {
    streams_[stream].slb().ClearFinished(pid);
  }
  void RequestCheckpoint(PartitionId pid) {
    streams_[0].slb().RequestCheckpoint(pid, CheckpointTrigger::kForced);
  }
  /// The partition's records are spread over every stream: each flushes
  /// and resets its bin.
  Status OnCheckpointFinished(uint32_t bin, uint64_t now_ns) {
    for (LogStream& ls : streams_) {
      MMDB_RETURN_IF_ERROR(ls.OnCheckpointFinished(bin, now_ns));
    }
    return Status::OK();
  }
  /// Rolls stream 0's retired log extents onto the archive.
  Status RollArchive(ArchiveManager* archive) {
    return archive->RollLog(streams_[0].disks(),
                            streams_[0].writer().window_start());
  }

  // --- catalog root, stored twice (stream 0's SLB and SLT) ------------------
  void SetCatalogRoot(std::vector<uint8_t> root) {
    meter_->ChargeWrite(2 * root.size());
    streams_[0].slb().SetCatalogRoot(root);
    streams_[0].slt().SetCatalogRoot(std::move(root));
  }
  /// Reads both copies, SLB first.
  std::array<std::vector<uint8_t>, 2> CatalogRoots() {
    std::array<std::vector<uint8_t>, 2> roots{streams_[0].slb().catalog_root(),
                                              streams_[0].slt().catalog_root()};
    meter_->ChargeRead(roots[0].size() + roots[1].size());
    return roots;
  }

  /// A counter summed over every stream's series.
  uint64_t CounterTotal(const obs::MetricsRegistry& metrics,
                        const std::string& name) const {
    uint64_t total = 0;
    for (const LogStream& ls : streams_) {
      total += metrics.counter_value(name + ls.suffix());
    }
    return total;
  }

 private:
  /// Models the SLB's block-allocation critical section (§2.3.1): workers
  /// queue on the stream's gate and pay only the queueing delay.
  void Gate(LogStream& ls, sim::CpuModel* worker);
  uint64_t WriteWalPages(uint64_t bytes, uint64_t now_ns);

  const DatabaseOptions& opts_;
  sim::StableMemoryMeter* meter_;
  fault::FaultInjector* fault_;
  /// Stream 0 first; never empty. A deque: streams never move.
  std::deque<LogStream> streams_;
  uint64_t gate_ns_;

  /// Epoch group-commit ledger (stable): the highest epoch any commit
  /// carries, and the commit-sequence latch giving (epoch, csn) a total
  /// order consistent with commit order.
  uint32_t epoch_stamped_last_ = 0;
  uint64_t epoch_csn_last_ = 0;
  /// Stable restart record: latched by a crash, cleared only when a
  /// restart durably completes. A crash inside the end-of-restart fence
  /// may have advanced some markers past epochs the first crash
  /// discarded; retries must report the first frontier.
  uint32_t epoch_discard_frontier_ = UINT32_MAX;
  /// Volatile mirror of the most recent commit's stamp.
  Stamp last_commit_;

  /// Commit-mode baseline state: durability itself always comes from the
  /// stable SLB; these model the log-force timing.
  uint64_t wal_page_counter_ = 0;
  uint64_t group_pending_bytes_ = 0;
  std::vector<uint64_t> group_pending_since_ns_;
  obs::Counter* m_log_forces_;
  obs::Histogram* m_commit_wait_ns_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_LOG_STREAMS_H_
