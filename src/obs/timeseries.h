#ifndef MMDB_OBS_TIMESERIES_H_
#define MMDB_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace mmdb::obs {

/// Fixed-bucket log-scale percentile sketch.
///
/// Values land in geometric buckets `[v0 * gamma^i, v0 * gamma^(i+1))`;
/// a percentile query returns the geometric midpoint of the bucket where
/// the requested rank falls, clamped by the exact observed min/max. With
/// the default gamma of 1.08 the worst-case relative error is
/// sqrt(1.08) - 1 < 4%, comfortably inside the 5% bound the tests
/// assert, while 400 buckets starting at 100 ns span past a virtual
/// month. The bucket array is fixed at construction — recording is two
/// comparisons, one std::log, one increment — so per-transaction
/// latency tracking costs the same whether one or a million values have
/// been recorded.
class LogSketch {
 public:
  explicit LogSketch(double min_value = 100.0, double gamma = 1.08,
                     uint32_t buckets = 400);

  void Record(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// `p` in [0,1]; e.g. Percentile(0.999). Returns 0 on an empty sketch.
  double Percentile(double p) const;

  void Reset();

 private:
  uint32_t BucketIndex(double v) const;
  /// Geometric midpoint of bucket `i` (its representative value).
  double BucketMid(uint32_t i) const;

  double min_value_;
  double log_gamma_;   // precomputed std::log(gamma)
  double gamma_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Base for virtual-clock-bucketed windowed collectors: a sample at
/// virtual time `ts_ns` lands in bucket `ts_ns / bucket_ns`. Bucket
/// boundaries are a pure function of virtual time (no host clock, no
/// registration-order offsets), so two identical runs produce identical
/// series and the JSON export is byte-for-byte reproducible for a fixed
/// seed. Storage is sparse: empty windows occupy nothing and survive in
/// the export as index gaps.
class TimeSeriesBase {
 public:
  explicit TimeSeriesBase(uint64_t bucket_ns)
      : bucket_ns_(bucket_ns == 0 ? 1 : bucket_ns) {}

  uint64_t bucket_ns() const { return bucket_ns_; }
  uint64_t BucketOf(uint64_t ts_ns) const { return ts_ns / bucket_ns_; }
  /// Virtual start time of bucket `index`.
  uint64_t BucketStartNs(uint64_t index) const { return index * bucket_ns_; }

 private:
  uint64_t bucket_ns_;
};

/// Counter-rate flavor: per-window event counts (e.g. commits per
/// virtual millisecond — the throughput-over-time curve).
class CounterSeries : public TimeSeriesBase {
 public:
  explicit CounterSeries(uint64_t bucket_ns) : TimeSeriesBase(bucket_ns) {}

  void Add(uint64_t ts_ns, uint64_t delta = 1) {
    // Hot path: successive samples overwhelmingly land in the current
    // window, so the last bucket's slot is cached and the map (a tree
    // walk + possible node allocation) is consulted only on window
    // rollover. std::map nodes are stable, so the cached pointer
    // survives unrelated insertions.
    const uint64_t b = BucketOf(ts_ns);
    if (cached_slot_ == nullptr || b != cached_bucket_) {
      cached_slot_ = &buckets_[b];
      cached_bucket_ = b;
    }
    *cached_slot_ += delta;
    total_ += delta;
  }

  uint64_t total() const { return total_; }
  /// Count in bucket `index` (0 for empty windows).
  uint64_t ValueAt(uint64_t index) const {
    auto it = buckets_.find(index);
    return it == buckets_.end() ? 0 : it->second;
  }
  size_t nonempty_buckets() const { return buckets_.size(); }
  const std::map<uint64_t, uint64_t>& buckets() const { return buckets_; }

  void Reset() {
    buckets_.clear();
    total_ = 0;
    cached_slot_ = nullptr;
    cached_bucket_ = 0;
  }

 private:
  std::map<uint64_t, uint64_t> buckets_;  // sorted: deterministic export
  uint64_t total_ = 0;
  uint64_t* cached_slot_ = nullptr;  // last-touched bucket's value slot
  uint64_t cached_bucket_ = 0;
};

/// Gauge-sample flavor: per-window last/min/max of an instantaneous
/// measurement (e.g. recovery.ready_fraction).
class GaugeSeries : public TimeSeriesBase {
 public:
  struct Window {
    double last = 0;
    double min = 0;
    double max = 0;
    uint64_t samples = 0;
  };

  explicit GaugeSeries(uint64_t bucket_ns) : TimeSeriesBase(bucket_ns) {}

  void Sample(uint64_t ts_ns, double v) {
    Window& w = buckets_[BucketOf(ts_ns)];
    if (w.samples == 0) {
      w.min = w.max = v;
    } else {
      if (v < w.min) w.min = v;
      if (v > w.max) w.max = v;
    }
    w.last = v;
    ++w.samples;
  }

  size_t nonempty_buckets() const { return buckets_.size(); }
  const std::map<uint64_t, Window>& buckets() const { return buckets_; }

  void Reset() { buckets_.clear(); }

 private:
  std::map<uint64_t, Window> buckets_;
};

/// Headline metrics of a throughput-over-time curve across a crash
/// (instant-recovery experiment; Sauer & Härder's "perceived downtime").
struct RecoveryCurveStats {
  /// Mean commits per bucket over [steady_start, crash) — the
  /// steady-state reference rate (empty windows count as zero).
  double steady_per_bucket = 0;
  /// Longest contiguous run of post-crash windows below
  /// `downtime_frac * steady`, in virtual ns. Empty windows inside the
  /// observed range count as zero-throughput (below).
  uint64_t perceived_downtime_ns = 0;
  /// From the crash to the end of the first post-crash window at or
  /// above `recover_frac * steady`. Equals the full observed post-crash
  /// span when throughput never recovers (and `recovered` stays false).
  uint64_t time_to_recover_ns = 0;
  bool recovered = false;
  /// Non-empty windows inside [steady_start, last observed], split at
  /// the crash bucket.
  uint64_t nonempty_pre_crash = 0;
  uint64_t nonempty_post_crash = 0;
};

/// Analyzes a commit-rate curve across a crash at `crash_ns`. The
/// steady-state rate is taken from [steady_start_ns, crash_ns); the
/// post-crash scan runs from the first *full* post-crash window (the
/// crash bucket itself mixes pre- and post-crash commits when the crash
/// lands mid-window) through the last non-empty bucket, so trailing
/// silence after the workload ends is not counted as downtime.
RecoveryCurveStats AnalyzeRecoveryCurve(const CounterSeries& series,
                                        uint64_t steady_start_ns,
                                        uint64_t crash_ns,
                                        double downtime_frac = 0.5,
                                        double recover_frac = 0.9);

}  // namespace mmdb::obs

#endif  // MMDB_OBS_TIMESERIES_H_
