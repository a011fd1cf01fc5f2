#ifndef MMDB_OBS_METRICS_H_
#define MMDB_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace mmdb::obs {

/// Whether a metric survives Database::Crash().
///
/// Stable metrics describe the crash-surviving store and hardware (log
/// disks, SLB/SLT contents, CPUs) — a crash does not erase them, just as
/// it does not erase the stable memory they measure. Volatile metrics
/// describe state that the crash destroys (the in-memory transaction
/// manager, the lock table): they reset to zero together with it, so a
/// post-crash reading never mixes epochs.
enum class Scope : uint8_t { kStable = 0, kVolatile = 1 };

/// Monotonic event counter (plain uint64: cheap-by-default).
class Counter {
 public:
  void Add(uint64_t delta = 1) { v_ += delta; }
  uint64_t value() const { return v_; }
  void Reset() { v_ = 0; }

 private:
  uint64_t v_ = 0;
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void Set(double v) { v_ = v; }
  void Add(double delta) { v_ += delta; }
  double value() const { return v_; }
  void Reset() { v_ = 0; }

 private:
  double v_ = 0;
};

/// Fixed-bucket histogram with percentile estimation.
///
/// Buckets are defined by their (inclusive) upper bounds; a final
/// implicit overflow bucket catches everything above the last bound.
/// Percentiles are estimated by linear interpolation inside the bucket
/// where the requested rank falls, clamped by the exact observed
/// min/max. The default bounds are exponential (powers of two starting
/// at 1us in ns), suitable for virtual-time latencies from microseconds
/// to hours.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// 48 power-of-two buckets from 1us (1000 ns) upward.
  static std::vector<double> DefaultLatencyBoundsNs();

  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// `p` in [0,1]; e.g. Percentile(0.99). Returns 0 on an empty histogram.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  void Reset();

 private:
  std::vector<double> bounds_;     // ascending upper bounds
  std::vector<uint64_t> counts_;   // bounds_.size() + 1 (overflow)
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named registry of counters, gauges, and histograms.
///
/// Handles returned by the accessors are stable for the registry's
/// lifetime, so components resolve their metrics once at attach time and
/// record through plain pointers afterwards. Re-requesting an existing
/// name returns the same object (the scope of the first creation wins).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, Scope scope = Scope::kStable);
  Gauge* gauge(const std::string& name, Scope scope = Scope::kStable);
  Histogram* histogram(const std::string& name, Scope scope = Scope::kStable);
  Histogram* histogram(const std::string& name, std::vector<double> bounds,
                       Scope scope = Scope::kStable);

  /// Whole-run log-scale percentile sketch (p50/p95/p99/p999 export).
  LogSketch* sketch(const std::string& name, Scope scope = Scope::kStable);

  /// Virtual-clock-bucketed time series (obs/timeseries.h). The bucket
  /// width of the first creation wins, like the scope.
  CounterSeries* counter_series(const std::string& name, uint64_t bucket_ns,
                                Scope scope = Scope::kStable);
  GaugeSeries* gauge_series(const std::string& name, uint64_t bucket_ns,
                            Scope scope = Scope::kStable);

  /// Read-only lookups; return 0 / nullptr when the metric was never
  /// created. Reading never creates.
  uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  const LogSketch* find_sketch(const std::string& name) const;
  const CounterSeries* find_counter_series(const std::string& name) const;
  const GaugeSeries* find_gauge_series(const std::string& name) const;

  /// Resets every volatile metric to zero (Database::Crash()).
  void ResetVolatile();
  /// Resets everything (fresh epoch; used by rigs between runs).
  void ResetAll();

  /// Visitation for the exporter, in name order.
  template <typename F>
  void ForEachCounter(F&& f) const {
    for (const auto& [name, e] : counters_) f(name, e.metric);
  }
  template <typename F>
  void ForEachGauge(F&& f) const {
    for (const auto& [name, e] : gauges_) f(name, e.metric);
  }
  template <typename F>
  void ForEachHistogram(F&& f) const {
    for (const auto& [name, e] : histograms_) f(name, *e.metric);
  }
  template <typename F>
  void ForEachSketch(F&& f) const {
    for (const auto& [name, e] : sketches_) f(name, *e.metric);
  }
  template <typename F>
  void ForEachCounterSeries(F&& f) const {
    for (const auto& [name, e] : counter_series_) f(name, *e.metric);
  }
  template <typename F>
  void ForEachGaugeSeries(F&& f) const {
    for (const auto& [name, e] : gauge_series_) f(name, *e.metric);
  }

 private:
  struct CounterEntry {
    Counter metric;
    Scope scope;
  };
  struct GaugeEntry {
    Gauge metric;
    Scope scope;
  };
  struct HistEntry {
    std::unique_ptr<Histogram> metric;
    Scope scope;
  };
  struct SketchEntry {
    std::unique_ptr<LogSketch> metric;
    Scope scope;
  };
  template <typename Series>
  struct SeriesEntry {
    std::unique_ptr<Series> metric;
    Scope scope;
  };

  template <typename Series>
  Series* GetSeries(std::map<std::string, SeriesEntry<Series>>* store,
                    const std::string& name, uint64_t bucket_ns, Scope scope);

  // std::map: node-stable, so returned handles stay valid.
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, HistEntry> histograms_;
  std::map<std::string, SketchEntry> sketches_;
  std::map<std::string, SeriesEntry<CounterSeries>> counter_series_;
  std::map<std::string, SeriesEntry<GaugeSeries>> gauge_series_;
};

}  // namespace mmdb::obs

#endif  // MMDB_OBS_METRICS_H_
