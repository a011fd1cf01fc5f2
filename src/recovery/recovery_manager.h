#ifndef MMDB_RECOVERY_RECOVERY_MANAGER_H_
#define MMDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "log/log_disk.h"
#include "log/slb.h"
#include "log/slt.h"
#include "obs/metrics.h"
#include "sim/cpu.h"
#include "util/status.h"

namespace mmdb {

/// The recovery manager: everything the paper runs on the dedicated
/// recovery CPU (§2.2-§2.3).
///
/// During normal processing it spends most of its time moving committed
/// log records from the Stable Log Buffer into partition bins in the
/// Stable Log Tail (the *sort* process), a smaller portion initiating
/// disk writes for full bin pages, and an even smaller portion notifying
/// the main CPU of partitions that must be checkpointed — triggered
/// either by update count or by age as the log window advances. Every
/// step charges the Table 2 instruction counts to the recovery CPU, so
/// measured logging capacity can be compared directly against the
/// analytic model.
///
/// The object logically lives with the stable store (the recovery CPU
/// reboots after a crash but its stable structures persist); `OnCrash()`
/// rebuilds the volatile First-LSN list from the bins.
class RecoveryManager {
 public:
  struct Config {
    analysis::Table2 costs;
    /// Update-count checkpoint threshold (Table 2's N_update).
    uint64_t n_update = 1000;
    /// Partitioned-log mode (log_streams > 1): every record sorted into
    /// a bin is framed with its [epoch | csn] prefix so cross-stream
    /// recovery can merge bins in group-commit order. Off by default —
    /// the single-stream stream format stays byte-identical.
    bool epoch_framing = false;
  };

  RecoveryManager(Config config, StableLogBuffer* slb, StableLogTail* slt,
                  LogDiskWriter* log_writer, sim::CpuModel* recovery_cpu);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Registers the sort process's metric series (`recovery.*`) plus the
  /// log-window pressure gauge `log.window_slack_pages`: how many pages
  /// the oldest active partition's first log page is ahead of the age
  /// boundary (0 = age checkpoints firing now). Every name is followed by
  /// `suffix`.
  void AttachMetrics(obs::MetricsRegistry* reg, const std::string& suffix = "");

  /// Arms fault handling for the sort process. Each SLB-pop + bin-append
  /// runs as one atomic stable transition (the real system releases a
  /// record from the SLB only after binning it), so an injected crash
  /// lands between records, never between the pop and the append.
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Sorts up to `max_records` committed records into partition bins,
  /// flushing full pages and raising checkpoint requests. Returns the
  /// number of records processed. `max_epoch` bounds consumption in
  /// partitioned-log mode: records of epochs not yet acknowledged durable
  /// on every stream stay in the SLB (so nothing binned or on disk ever
  /// needs discarding at a crash).
  Result<uint64_t> Pump(uint64_t max_records, uint64_t now_ns,
                        uint32_t max_epoch = UINT32_MAX);

  /// Pumps until the committed list (up to `max_epoch`) is empty.
  Status Drain(uint64_t now_ns, uint32_t max_epoch = UINT32_MAX);

  /// Handles a finished checkpoint for `bin_index` (paper §2.4 step 7):
  /// the partition's remaining log records are combined with other
  /// partial pages and flushed to the log disk for the archive, then the
  /// bin is reset — its log information is no longer needed for memory
  /// recovery.
  Status OnCheckpointFinished(uint32_t bin_index, uint64_t now_ns);

  /// Rebuilds the volatile First-LSN list after a crash or at attach.
  void RebuildFirstLsnList();

  /// Removes a dropped partition's bin from the First-LSN list.
  void OnPartitionDropped(uint32_t bin_index);

  /// Collects, for `bin_index`, the full in-order list of on-disk log
  /// page LSNs by walking directory anchors backward (§2.5.1). Returns
  /// the number of extra (backward) page reads performed via
  /// `*backward_reads`; `*done_ns` is the disk completion time of the
  /// walk. The anchors are read from the primary log disk, or with
  /// `any_member` from whichever duplexed member is free sooner.
  Status CollectPageList(uint32_t bin_index, uint64_t now_ns,
                         std::vector<uint64_t>* lsns, uint64_t* backward_reads,
                         uint64_t* done_ns, bool any_member = false);

  // --- statistics -----------------------------------------------------------
  uint64_t records_sorted() const { return records_sorted_; }
  uint64_t pages_flushed() const { return pages_flushed_; }
  uint64_t checkpoints_requested_update() const {
    return ckpt_update_count_;
  }
  uint64_t checkpoints_requested_age() const { return ckpt_age_; }

  const std::map<uint64_t, uint32_t>& first_lsn_list() const {
    return first_lsn_list_;
  }

 private:
  Status SortOne(const LogRecord& rec, uint64_t now_ns);
  Status FlushBin(uint32_t bin_index, PartitionBin* bin, uint64_t now_ns);
  void CheckAgeTriggers();
  void UpdateWindowSlack();

  Config config_;
  StableLogBuffer* slb_;
  StableLogTail* slt_;
  LogDiskWriter* log_writer_;
  sim::CpuModel* cpu_;
  fault::FaultInjector* fault_ = nullptr;

  /// First-LSN list (§2.3.3): ordered by each active partition's oldest
  /// on-disk log page; only the head needs testing when the window moves.
  std::map<uint64_t, uint32_t> first_lsn_list_;

  /// Combine buffer for partial pages of checkpointed partitions (§2.4):
  /// "its log records are copied to a buffer where they are combined with
  /// other log records to create a full page". Stable (survives crash);
  /// contents are needed only for media recovery.
  std::vector<uint8_t> combine_buf_;
  uint32_t combine_records_ = 0;

  /// Reusable serialization buffer for SortOne (one record at a time;
  /// avoids a heap allocation per sorted record).
  std::vector<uint8_t> sort_scratch_;

  uint64_t records_sorted_ = 0;
  uint64_t pages_flushed_ = 0;
  uint64_t ckpt_update_count_ = 0;
  uint64_t ckpt_age_ = 0;

  // Optional registry series (null until AttachMetrics).
  obs::Counter* m_records_sorted_ = nullptr;
  obs::Counter* m_ckpt_update_ = nullptr;
  obs::Counter* m_ckpt_age_ = nullptr;
  obs::Gauge* m_window_slack_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_RECOVERY_MANAGER_H_
