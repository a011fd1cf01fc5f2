#include "obs/metrics.h"

#include <algorithm>

namespace mmdb::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  std::sort(bounds_.begin(), bounds_.end());
}

std::vector<double> Histogram::DefaultLatencyBoundsNs() {
  std::vector<double> bounds;
  double b = 1000.0;  // 1us
  for (int i = 0; i < 48; ++i) {
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}

void Histogram::Record(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  ++counts_[idx];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 1) return max_;
  // Rank of the requested percentile, 1-based.
  double rank = p * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    double lo = i == 0 ? min_ : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : max_;
    double prev = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= rank) {
      // Linear interpolation within the bucket.
      double frac = (rank - prev) / static_cast<double>(counts_[i]);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

Counter* MetricsRegistry::counter(const std::string& name, Scope scope) {
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second.scope = scope;
  return &it->second.metric;
}

Gauge* MetricsRegistry::gauge(const std::string& name, Scope scope) {
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second.scope = scope;
  return &it->second.metric;
}

Histogram* MetricsRegistry::histogram(const std::string& name, Scope scope) {
  return histogram(name, Histogram::DefaultLatencyBoundsNs(), scope);
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      Scope scope) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      HistEntry{std::make_unique<Histogram>(std::move(bounds)),
                                scope})
             .first;
  }
  return it->second.metric.get();
}

LogSketch* MetricsRegistry::sketch(const std::string& name, Scope scope) {
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(name, SketchEntry{std::make_unique<LogSketch>(), scope})
             .first;
  }
  return it->second.metric.get();
}

template <typename Series>
Series* MetricsRegistry::GetSeries(
    std::map<std::string, SeriesEntry<Series>>* store, const std::string& name,
    uint64_t bucket_ns, Scope scope) {
  auto it = store->find(name);
  if (it == store->end()) {
    it = store
             ->emplace(name, SeriesEntry<Series>{
                                 std::make_unique<Series>(bucket_ns), scope})
             .first;
  }
  return it->second.metric.get();
}

CounterSeries* MetricsRegistry::counter_series(const std::string& name,
                                               uint64_t bucket_ns,
                                               Scope scope) {
  return GetSeries(&counter_series_, name, bucket_ns, scope);
}

GaugeSeries* MetricsRegistry::gauge_series(const std::string& name,
                                           uint64_t bucket_ns, Scope scope) {
  return GetSeries(&gauge_series_, name, bucket_ns, scope);
}

uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.metric.value();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.metric.value();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.metric.get();
}

const LogSketch* MetricsRegistry::find_sketch(const std::string& name) const {
  auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : it->second.metric.get();
}

const CounterSeries* MetricsRegistry::find_counter_series(
    const std::string& name) const {
  auto it = counter_series_.find(name);
  return it == counter_series_.end() ? nullptr : it->second.metric.get();
}

const GaugeSeries* MetricsRegistry::find_gauge_series(
    const std::string& name) const {
  auto it = gauge_series_.find(name);
  return it == gauge_series_.end() ? nullptr : it->second.metric.get();
}

void MetricsRegistry::ResetVolatile() {
  for (auto& [_, e] : counters_) {
    if (e.scope == Scope::kVolatile) e.metric.Reset();
  }
  for (auto& [_, e] : gauges_) {
    if (e.scope == Scope::kVolatile) e.metric.Reset();
  }
  for (auto& [_, e] : histograms_) {
    if (e.scope == Scope::kVolatile) e.metric->Reset();
  }
  for (auto& [_, e] : sketches_) {
    if (e.scope == Scope::kVolatile) e.metric->Reset();
  }
  for (auto& [_, e] : counter_series_) {
    if (e.scope == Scope::kVolatile) e.metric->Reset();
  }
  for (auto& [_, e] : gauge_series_) {
    if (e.scope == Scope::kVolatile) e.metric->Reset();
  }
}

void MetricsRegistry::ResetAll() {
  for (auto& [_, e] : counters_) e.metric.Reset();
  for (auto& [_, e] : gauges_) e.metric.Reset();
  for (auto& [_, e] : histograms_) e.metric->Reset();
  for (auto& [_, e] : sketches_) e.metric->Reset();
  for (auto& [_, e] : counter_series_) e.metric->Reset();
  for (auto& [_, e] : gauge_series_) e.metric->Reset();
}

}  // namespace mmdb::obs
