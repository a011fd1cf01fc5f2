#ifndef MMDB_OBS_TRACER_H_
#define MMDB_OBS_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/status.h"

namespace mmdb::obs {

/// Logical timeline a trace event belongs to. Rendered as one "process"
/// per track in the Chrome trace format so Perfetto lays the simulated
/// CPUs and disks out as parallel swimlanes.
enum class Track : uint32_t {
  kMainCpu = 1,
  kRecoveryCpu = 2,
  kLogDisk = 3,
  kCheckpointDisk = 4,
  kSystem = 5,  // crash/restart lifecycle, recovery phases
  /// Recovery-lane swimlanes start here: lane i is kRecoveryLaneBase + i.
  kRecoveryLaneBase = 16,
  /// Transaction-worker swimlanes start here: worker w is
  /// kTxnWorkerBase + w (the concurrent executor's per-worker lanes).
  kTxnWorkerBase = 32,
  /// Log-disk swimlanes of log streams 1..N-1 start here, above any
  /// worker id: stream s > 0 is kLogDiskBase + s (stream 0 is kLogDisk).
  kLogDiskBase = 1u << 16,
};

/// Per-recovery-lane track (rendered "recovery-lane-<i>" in Perfetto).
inline Track LaneTrack(uint32_t lane) {
  return static_cast<Track>(
      static_cast<uint32_t>(Track::kRecoveryLaneBase) + lane);
}

/// Per-transaction-worker track (rendered "txn-worker-<w>" in Perfetto).
inline Track WorkerTrack(uint32_t worker) {
  return static_cast<Track>(static_cast<uint32_t>(Track::kTxnWorkerBase) +
                            worker);
}

/// Log stream `s`'s log-disk track: "log-disk" for stream 0, rendered
/// "log-disk-<s>" for every other stream.
inline Track LogDiskTrack(uint32_t stream) {
  return stream == 0 ? Track::kLogDisk
                     : static_cast<Track>(
                           static_cast<uint32_t>(Track::kLogDiskBase) + stream);
}

/// Virtual-clock tracer emitting Chrome `trace_event` JSON.
///
/// All timestamps are virtual nanoseconds from the SimClock; the emitted
/// JSON uses the format's microsecond unit, so a run opens directly in
/// Perfetto / chrome://tracing with the simulated timeline intact.
/// Disabled tracers cost one branch per call site and allocate nothing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// A completed span ("X" phase event): [start_ns, start_ns + dur_ns].
  void Span(Track track, const char* category, std::string name,
            uint64_t start_ns, uint64_t dur_ns) {
    if (!enabled_) return;
    events_.push_back(Event{'X', track, category, std::move(name), start_ns,
                            dur_ns});
  }

  /// A zero-duration instant event ("i" phase).
  void Instant(Track track, const char* category, std::string name,
               uint64_t ts_ns) {
    if (!enabled_) return;
    events_.push_back(Event{'i', track, category, std::move(name), ts_ns, 0});
  }

  /// A counter sample ("C" phase). Perfetto renders same-named counter
  /// events on one track as a stepped value-over-time curve.
  void Counter(Track track, const char* category, std::string name,
               uint64_t ts_ns, double value) {
    if (!enabled_) return;
    events_.push_back(
        Event{'C', track, category, std::move(name), ts_ns, 0, value});
  }

  size_t event_count() const { return events_.size(); }
  void Clear() { events_.clear(); }

  /// Serializes the trace (metadata + events) as a Chrome trace JSON
  /// object: {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  struct Event {
    char phase;
    Track track;
    const char* category;
    std::string name;
    uint64_t ts_ns;
    uint64_t dur_ns;
    double value = 0;  // 'C' events only
  };

  bool enabled_ = false;
  std::vector<Event> events_;
};

/// RAII span helper: captures the virtual start time at construction and
/// emits the span at End() (or destruction) with the clock's then-current
/// time, so virtual time advanced inside the span is observed.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Track track, const char* category,
             std::string name, const sim::SimClock* clock)
      : tracer_(tracer),
        track_(track),
        category_(category),
        name_(std::move(name)),
        clock_(clock),
        start_ns_(clock->now_ns()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { End(); }

  void End() {
    if (done_) return;
    done_ = true;
    if (tracer_ != nullptr) {
      tracer_->Span(track_, category_, std::move(name_), start_ns_,
                    clock_->now_ns() - start_ns_);
    }
  }

 private:
  Tracer* tracer_;
  Track track_;
  const char* category_;
  std::string name_;
  const sim::SimClock* clock_;
  uint64_t start_ns_;
  bool done_ = false;
};

}  // namespace mmdb::obs

#endif  // MMDB_OBS_TRACER_H_
