#ifndef MMDB_RECOVERY_RESILVER_H_
#define MMDB_RECOVERY_RESILVER_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "recovery/archive.h"
#include "sim/disk.h"
#include "util/status.h"

namespace mmdb {

/// Background re-silverer: rebuilds a failed (then repaired) member of
/// the duplexed log disks from its healthy mirror, falling back to the
/// archive's rolled log pages for anything the mirror cannot serve —
/// paper §2.6's media-recovery machinery applied to one duplex member
/// instead of the whole pair.
///
/// The copy runs a bounded number of pages per Step so regular
/// transaction processing interleaves with it on the virtual timeline.
/// The copy cursor is volatile: a crash loses it, but the pages already
/// written to the target are stable, so a restarted run skips every page
/// whose device CRC already verifies — re-silvering is idempotent.
class Resilverer {
 public:
  struct Config {
    /// Pages copied per Step (the background quantum).
    uint32_t pages_per_step = 16;
  };

  Resilverer(Config config, sim::DuplexedDisk* disks, ArchiveManager* archive)
      : config_(config), disks_(disks), archive_(archive) {}

  Resilverer(const Resilverer&) = delete;
  Resilverer& operator=(const Resilverer&) = delete;

  /// Registers `resilver.pages_done` / `resilver.runs` counters and the
  /// `resilver.pages_total` gauge (current run's worklist size).
  void AttachMetrics(obs::MetricsRegistry* reg);
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Begins re-silvering member `target` (0 = primary, 1 = mirror). The
  /// target must already be repaired (RepairMedia) and the other member
  /// healthy; the worklist is the sorted union of the healthy member's
  /// stored pages and the archive's rolled log pages.
  Status Start(int target, uint64_t now_ns);

  /// Copies up to pages_per_step pages. `*done_ns` receives the disk
  /// completion time of the last copy; sets `*done` (and deactivates)
  /// when the worklist is exhausted.
  Status Step(uint64_t now_ns, uint64_t* done_ns, bool* done);

  /// A crash loses the volatile copy cursor; call Start again after
  /// restart to resume (already-copied pages verify clean and are
  /// skipped).
  void OnCrash();

  bool active() const { return active_; }
  int target() const { return target_; }
  uint64_t pages_done() const { return pages_done_; }
  uint64_t pages_total() const { return pages_total_; }
  uint64_t pages_skipped() const { return pages_skipped_; }

 private:
  /// Reads one page from the healthy member with bounded retry on
  /// transient errors, falling back to the archive copy. The target then
  /// stores the same page by reference.
  Status ReadSource(uint64_t page_no, uint64_t now_ns, uint64_t* done_ns,
                    sim::Page* page);

  Config config_;
  sim::DuplexedDisk* disks_;
  ArchiveManager* archive_;
  fault::FaultInjector* fault_ = nullptr;

  bool active_ = false;
  int target_ = 0;
  std::vector<uint64_t> worklist_;  // volatile: lost at crash
  size_t cursor_ = 0;
  uint64_t pages_done_ = 0;
  uint64_t pages_total_ = 0;
  uint64_t pages_skipped_ = 0;
  uint64_t run_start_ns_ = 0;

  obs::Counter* m_pages_done_ = nullptr;
  obs::Counter* m_runs_ = nullptr;
  obs::Gauge* m_pages_total_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_RESILVER_H_
