#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

namespace mmdb::obs {

LogSketch::LogSketch(double min_value, double gamma, uint32_t buckets)
    : min_value_(min_value > 0 ? min_value : 1.0),
      log_gamma_(std::log(gamma > 1.0 ? gamma : 1.08)),
      gamma_(gamma > 1.0 ? gamma : 1.08),
      counts_(buckets == 0 ? 1 : buckets, 0) {}

uint32_t LogSketch::BucketIndex(double v) const {
  if (v <= min_value_) return 0;
  double idx = std::floor(std::log(v / min_value_) / log_gamma_);
  if (idx < 0) return 0;
  uint32_t i = static_cast<uint32_t>(idx);
  uint32_t last = static_cast<uint32_t>(counts_.size()) - 1;
  return i > last ? last : i;
}

double LogSketch::BucketMid(uint32_t i) const {
  // Geometric midpoint of [v0 * gamma^i, v0 * gamma^(i+1)): relative
  // error at most sqrt(gamma) - 1 either way.
  return min_value_ * std::pow(gamma_, static_cast<double>(i) + 0.5);
}

void LogSketch::Record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++counts_[BucketIndex(v)];
}

double LogSketch::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 1) return max_;
  double rank = p * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= rank) {
      return std::clamp(BucketMid(i), min_, max_);
    }
  }
  return max_;
}

void LogSketch::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

RecoveryCurveStats AnalyzeRecoveryCurve(const CounterSeries& series,
                                        uint64_t steady_start_ns,
                                        uint64_t crash_ns,
                                        double downtime_frac,
                                        double recover_frac) {
  RecoveryCurveStats out;
  const uint64_t bucket_ns = series.bucket_ns();
  const uint64_t steady_b = series.BucketOf(steady_start_ns);
  const uint64_t crash_b = series.BucketOf(crash_ns);
  if (series.buckets().empty() || crash_b <= steady_b) return out;

  // Steady state: mean commits per bucket over [steady_start, crash),
  // counting empty windows as zero.
  uint64_t steady_total = 0;
  for (uint64_t b = steady_b; b < crash_b; ++b) {
    uint64_t v = series.ValueAt(b);
    steady_total += v;
    if (v > 0) ++out.nonempty_pre_crash;
  }
  out.steady_per_bucket =
      static_cast<double>(steady_total) / static_cast<double>(crash_b - steady_b);
  if (out.steady_per_bucket <= 0) return out;

  // The crash bucket mixes pre- and post-crash commits when the crash
  // lands mid-window; scanning it would let pre-crash commits fake an
  // instant recovery. Start at the first *full* post-crash window.
  const uint64_t first_post =
      crash_ns % bucket_ns == 0 ? crash_b : crash_b + 1;
  const uint64_t last_b = series.buckets().rbegin()->first;
  if (last_b < first_post) return out;  // nothing observed after the crash

  const double down_thresh = downtime_frac * out.steady_per_bucket;
  const double up_thresh = recover_frac * out.steady_per_bucket;
  uint64_t run = 0, longest = 0;
  for (uint64_t b = first_post; b <= last_b; ++b) {
    uint64_t v = series.ValueAt(b);
    if (v > 0) ++out.nonempty_post_crash;
    if (static_cast<double>(v) < down_thresh) {
      ++run;
      if (run > longest) longest = run;
    } else {
      run = 0;
    }
    if (!out.recovered && static_cast<double>(v) >= up_thresh) {
      out.recovered = true;
      out.time_to_recover_ns = (b + 1) * bucket_ns - crash_ns;
    }
  }
  out.perceived_downtime_ns = longest * bucket_ns;
  if (!out.recovered) {
    out.time_to_recover_ns = (last_b + 1) * bucket_ns - crash_ns;
  }
  return out;
}

}  // namespace mmdb::obs
