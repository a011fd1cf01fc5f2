#ifndef MMDB_ANALYSIS_MODEL_H_
#define MMDB_ANALYSIS_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mmdb::analysis {

/// The paper's Table 2 parameters (instruction counts, sizes, rates) with
/// the published default values. All "(Calculated)" rows of Table 2 are
/// the member functions below.
///
/// Environment (paper §3.1): a 6-MIPS main CPU and a 1-MIPS dedicated
/// recovery CPU; one generic recovery-CPU instruction executes in ~1
/// microsecond; the stable reliable memory is 4x slower than regular
/// memory (already folded into the padded instruction counts).
struct Table2 {
  // --- instruction counts --------------------------------------------------
  /// Read one log record and determine index of proper log bin.
  double i_record_lookup = 20.0;  // instructions / record
  /// Startup cost of copying a string of bytes.
  double i_copy_fixed = 3.0;  // instructions / copy
  /// Additional cost per byte of copying a string of bytes.
  double i_copy_add = 0.125;  // instructions / byte
  /// Cost of initiating a disk write of a full log bin page.
  double i_write_init = 500.0;  // instructions / page write
  /// Cost of allocating a new log bin page and releasing the old one.
  double i_page_alloc = 100.0;  // instructions / page write
  /// Cost of updating the log bin page information.
  double i_page_update = 10.0;  // instructions / record
  /// Cost of checking the existence of a log bin page.
  double i_page_check = 10.0;  // instructions / record
  /// Cost of maintaining the LSN count and checking for possible
  /// checkpoints.
  double i_process_lsn = 40.0;  // instructions / page write
  /// Cost of signaling the main CPU to start a checkpoint transaction.
  double i_checkpoint = 40.0;  // instructions / checkpoint

  // --- sizes and counts ----------------------------------------------------
  double s_log_record = 24.0;          // bytes / record
  double s_log_page = 8.0 * 1024.0;    // bytes / page
  double s_partition = 48.0 * 1024.0;  // bytes / partition
  /// Log records a partition accumulates before an update-count
  /// checkpoint triggers.
  double n_update = 1000.0;  // records / partition

  // --- processor -----------------------------------------------------------
  /// MIPS power of the recovery CPU.
  double p_recovery_mips = 1.0;

  // ==========================================================================
  // Calculated rows of Table 2.
  // ==========================================================================

  /// Average number of log pages for a partition between checkpoints:
  /// N_log_pages = N_update * S_log_record / S_log_page.
  double NLogPages() const;

  /// Total cost of writing one page from the SLT to the log disk,
  /// I_page_write = I_write_init + I_page_alloc + I_process_LSN
  ///              + I_checkpoint / (pages per checkpoint).
  double IPageWrite() const;

  /// Total cost of the record sorting process (per record), including the
  /// amortized share of page writes:
  /// I_record_sort = I_record_lookup + I_page_check + I_copy_fixed
  ///               + I_copy_add * S_log_record + I_page_update
  ///               + I_page_write * S_log_record / S_log_page.
  double IRecordSort() const;

  /// Byte rate of the logging component:
  /// R_bytes_logged = P_recovery / (I_record_sort / S_log_record).
  double RBytesLogged() const;

  /// Record rate of the logging component:
  /// R_records_logged = R_bytes_logged / S_log_record.
  double RRecordsLogged() const;

  /// Maximum transaction rate supportable by the logging component when
  /// each transaction writes `records_per_txn` log records.
  double MaxTransactionRate(double records_per_txn) const;

  /// Checkpoint frequency (checkpoints/second) at logging rate
  /// `records_per_second`, with fraction `f_update` of checkpoints
  /// triggered by update count and `f_age` by age (paper's worst-case
  /// assumption: an age-checkpointed partition accumulated only one page
  /// of log records).
  ///
  /// R_ckpt = R_records * (f_update / N_update
  ///                       + f_age * S_log_record / S_log_page).
  double CheckpointRate(double records_per_second, double f_update,
                        double f_age) const;

  /// Best case (infinite log window): all checkpoints by update count.
  double CheckpointRateBest(double records_per_second) const;
  /// Worst case: every checkpoint by age after a single page.
  double CheckpointRateWorst(double records_per_second) const;
};

/// Disk timing inputs to the recovery-time model (matching
/// sim::DiskParams defaults).
struct DiskModel {
  double avg_seek_ms = 8.0;
  double near_seek_ms = 2.0;
  double settle_ms = 0.5;
  double page_transfer_ms = 0.4;
  double track_rate_multiplier = 2.0;
  double pages_per_track = 6.0;

  double NearPageReadMs() const {
    return near_seek_ms + settle_ms + page_transfer_ms;
  }
  double TrackReadMs() const {
    return avg_seek_ms + settle_ms +
           pages_per_track * page_transfer_ms / track_rate_multiplier;
  }
};

/// Analytic model of §3.4: post-crash recovery time for partition-level
/// vs database-level (complete reload) recovery.
struct RecoveryModel {
  Table2 params;
  DiskModel checkpoint_disk;
  DiskModel log_disk;
  /// Directory size N (log pages addressable without extra reads).
  double directory_entries = 8.0;
  /// CPU cost of applying one log record at recovery (main CPU).
  double apply_instructions_per_record = 50.0;
  double main_cpu_mips = 6.0;

  /// Time (ms) to recover one partition that has `log_pages` of log:
  /// checkpoint-image track read in parallel with ordered log page reads
  /// (near seeks, plus backward directory-anchor reads when log_pages >
  /// directory_entries), apply overlapped with reading.
  double PartitionRecoveryMs(double log_pages) const;

  /// Time (ms) until the first transaction can run under partition-level
  /// recovery: catalogs (catalog_partitions) plus the partitions the
  /// transaction needs (needed_partitions), each with avg_log_pages.
  double TimeToFirstTransactionMs(double catalog_partitions,
                                  double needed_partitions,
                                  double avg_log_pages) const;

  /// Time (ms) for database-level recovery (one very large partition):
  /// stream every partition image plus the whole log before any
  /// transaction runs.
  double DatabaseReloadMs(double total_partitions, double total_log_pages)
      const;

  /// Time (ms) to restore `total_partitions` (each with `log_pages` of
  /// log) on `lanes` pipelined recovery lanes. Two regimes compose
  /// additively: a device-bound floor — the single checkpoint disk must
  /// stream every image and the duplexed log pair splits page reads two
  /// ways, regardless of lane count — plus a CPU-bound term for the
  /// record applies, which run on the lanes and so divide by `lanes`.
  /// Device-bound workloads saturate early (more lanes buy nothing once
  /// a shared disk is streaming continuously); apply-heavy workloads
  /// keep scaling until the disks take over.
  ///
  /// `streams` models partitioned parallel logging: a partition's log
  /// pages are spread across that many duplexed log-disk pairs read
  /// concurrently (device floor divides by 2*streams), at the price of a
  /// per-record (epoch, csn) merge on the recovering lane's CPU.
  double ParallelRecoveryMs(double total_partitions, double lanes,
                            double log_pages, double streams = 1.0) const;
};

/// Pretty-printer used by the Table 2 bench: one row per parameter, with
/// value and units, including the calculated rows.
std::vector<std::string> FormatTable2(const Table2& t);

}  // namespace mmdb::analysis

#endif  // MMDB_ANALYSIS_MODEL_H_
