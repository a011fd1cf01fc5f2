#ifndef MMDB_RECOVERY_PROGRESS_H_
#define MMDB_RECOVERY_PROGRESS_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace mmdb {

/// Which recovery path brought a partition back.
enum class RecoverySource : uint8_t {
  kRestart = 0,    // phase-1 catalog recovery inside Database::Restart
  kOnDemand = 1,   // first-touch ResidentPartition during normal work
  kBackground = 2  // background sweep / explicit RecoverRelation
};

/// Tracks partition-by-partition recovery progress and publishes it as
/// gauges, counters, a ready-fraction time series, and Chrome-trace
/// counter ("C") events, so a restart renders as a rising curve in
/// Perfetto rather than a single opaque span.
///
/// Lifecycle: `OnCrash` zeroes the ready fraction the moment the crash
/// lands; `BeginTracking` fixes the denominator (the crashed data
/// partitions — catalogs recover in restart phase 1 before tracking
/// starts and are attributed to kRestart by record count only);
/// `OnPartitionsRecovered` advances the numerator per source. Partitions
/// created while recovery is still in flight are born resident and grow
/// numerator and denominator together (`OnPartitionCreated`), so the
/// fraction never regresses from DDL. Once every tracked partition is
/// back the fraction pins at 1.0 and tracking ends until the next crash.
///
/// All metrics are kStable: like the stable store they describe, they
/// survive Database::Crash() — that is the entire point, the curve must
/// span the crash.
class RecoveryProgressTracker {
 public:
  /// Resolves metric handles. Call once per registry generation, before
  /// any other method. `bucket_ns` sets the ready-fraction series window.
  void AttachMetrics(obs::MetricsRegistry* reg, uint64_t bucket_ns);
  /// Optional: also emit "C" events (pass nullptr to detach).
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// The crash landed: all data partitions are gone until recovered.
  void OnCrash(uint64_t now_ns);
  /// Restart phase 1 is done (catalogs resident); `total_partitions` data
  /// partitions now await recovery. Starts progress tracking.
  void BeginTracking(uint64_t total_partitions, uint64_t now_ns);
  /// `count` partitions came back via `src`, replaying `records` log
  /// records. Attribution counters always bump; the ready fraction only
  /// moves while tracking (between BeginTracking and full recovery).
  void OnPartitionsRecovered(RecoverySource src, uint64_t count,
                             uint64_t records, uint64_t now_ns);
  /// A partition was created mid-recovery: born resident.
  void OnPartitionCreated(uint64_t now_ns);

  bool tracking() const { return tracking_; }
  uint64_t recovered() const { return recovered_; }
  uint64_t pending() const {
    return total_ > recovered_ ? total_ - recovered_ : 0;
  }
  double ready_fraction() const {
    if (crashed_ && !tracking_) return 0.0;  // crash landed, restart pending
    if (!tracking_ || total_ == 0) return 1.0;
    return static_cast<double>(recovered_) / static_cast<double>(total_);
  }

 private:
  void Publish(uint64_t now_ns);

  obs::Tracer* tracer_ = nullptr;
  obs::Gauge* m_ready_fraction_ = nullptr;
  obs::Gauge* m_partitions_pending_ = nullptr;
  obs::GaugeSeries* s_ready_fraction_ = nullptr;
  obs::Counter* m_partitions_by_src_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* m_records_by_src_[3] = {nullptr, nullptr, nullptr};

  bool tracking_ = false;
  bool crashed_ = false;  // between OnCrash and BeginTracking
  uint64_t total_ = 0;
  uint64_t recovered_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_PROGRESS_H_
