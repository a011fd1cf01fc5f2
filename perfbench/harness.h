// Helpers of the repository benchmark that carry its rules: the
// percentile rule, the sustained-throughput window, the TP1 oracle and
// the host-time span recorder. Kept apart from perfbench.cc so that
// harness_test.cc can check them on their own.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// --- percentiles -------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p99 needs 1000 samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (in [0, 1]) among `n` samples.
inline size_t NearestRank(size_t n, double p) {
  size_t r = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<size_t>(r, 1, n);
}

/// True when at least kMinSamplesBeyond of `n` samples rank above `p`.
inline bool PercentileSupported(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile, or nothing when the sample cannot support it.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  const size_t r = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

/// Median of a non-empty sample (the lower middle for even sizes, so the
/// value is always one that was measured).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

// --- sustained throughput ----------------------------------------------------

/// What bounds a measured window on the modelled machine. The main CPU
/// commits at its own pace, but a commit is only sustainable if the
/// recovery CPU can sort its log records and the log disk can write the
/// pages, so the window ends at whichever of the three finishes last.
struct WindowCost {
  double main_ns = 0;                // first start to last commit, main side
  double recovery_instructions = 0;  // recovery-CPU work charged in the window
  double recovery_mips = 1;
  double log_disk_busy_ns = 0;       // busiest log disk's busy time
};

inline double RecoveryCpuNs(const WindowCost& w) {
  return w.recovery_instructions * 1000.0 / w.recovery_mips;
}

/// End of the sustained window, in virtual ns after its start.
inline double SustainedWindowNs(const WindowCost& w) {
  return std::max({w.main_ns, RecoveryCpuNs(w), w.log_disk_busy_ns});
}

/// Committed transactions per virtual second over the sustained window.
inline double TxnPerVirtualSecond(uint64_t committed, const WindowCost& w) {
  const double ns = SustainedWindowNs(w);
  return ns > 0 ? static_cast<double>(committed) * 1e9 / ns : 0.0;
}

// --- TP1 oracle ---------------------------------------------------------------

/// Balance deltas against the populated state, and the history row count.
/// Every committed TP1 transaction adds 1 to one account, one teller and
/// one branch balance and inserts one history row.
struct Tp1State {
  int64_t account_delta = 0;
  int64_t teller_delta = 0;
  int64_t branch_delta = 0;
  int64_t history_rows = 0;
};

/// Empty when the database holds exactly `committed_writers` TP1
/// transactions; otherwise says what disagrees.
inline std::string CheckTp1(const Tp1State& s, uint64_t committed_writers) {
  const int64_t want = static_cast<int64_t>(committed_writers);
  if (s.account_delta == want && s.teller_delta == want &&
      s.branch_delta == want && s.history_rows == want) {
    return "";
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "TP1 invariant broken: account %lld, teller %lld, branch "
                "%lld, history %lld, committed %lld",
                static_cast<long long>(s.account_delta),
                static_cast<long long>(s.teller_delta),
                static_cast<long long>(s.branch_delta),
                static_cast<long long>(s.history_rows),
                static_cast<long long>(want));
  return buf;
}

/// A snapshot reader's audit scan sees a prefix of the commit order: the
/// same number of TP1 transactions in all three balance columns, and no
/// more than have committed by the end of the run.
inline std::string CheckSnapshotPrefix(const Tp1State& s,
                                       uint64_t committed_writers) {
  if (s.account_delta == s.teller_delta && s.teller_delta == s.branch_delta &&
      s.account_delta >= 0 &&
      s.account_delta <= static_cast<int64_t>(committed_writers)) {
    return "";
  }
  return "snapshot scan is not a commit-order prefix: " +
         CheckTp1(s, committed_writers);
}

// --- host-time spans ------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest (one host
/// thread), so a span's parent is whatever span was open when it began.
/// Disabled, Open/Close cost one branch and read no clock.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 at top level
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, Now(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void Close(int32_t id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(double(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Self time (ns) of span `id`: its duration minus the time its direct
  /// children cover.
  double SelfNs(int32_t id) const {
    const Span& s = spans_[id];
    double ns = double(s.end_ns - s.start_ns);
    for (size_t j = id + 1; j < spans_.size(); ++j) {
      if (spans_[j].parent == id) ns -= double(spans_[j].end_ns - spans_[j].start_ns);
    }
    return ns;
  }

  /// Total self time (ns) per span name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += double(s.end_ns - s.start_ns);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += double(s.end_ns - s.start_ns) - child[i];
    }
    return out;
  }

  /// Writes up to `max_spans` spans as Chrome trace-event JSON (complete
  /// events, microsecond timestamps), which Perfetto and chrome://tracing
  /// open. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const size_t n = std::min(max_spans, spans_.size());
    const int64_t t0 = n > 0 ? spans_[0].start_ns : 0;
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name, double(s.start_ns - t0) / 1e3,
                   double(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->Open(name)) {}
  ~ScopedSpan() { Close(); }
  /// Ends the span early; returns its id (-1 when the recorder is off).
  int32_t Close() {
    rec_->Close(id_);
    const int32_t id = id_;
    id_ = -1;
    return id;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
