#ifndef MMDB_SIM_SCHEDULER_H_
#define MMDB_SIM_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/small_fn.h"
#include "util/status.h"

namespace mmdb::sim {

/// Deterministic discrete-event scheduler over the simulated devices —
/// the event loop of recovery lanes, the background sweep, the
/// checkpoint/pump maintenance tick and the cluster's shards. The
/// concurrent executor steps its transaction workers between these
/// events (next_ns() / RunNext()).
///
/// Events are (ready time, submission sequence) pairs drained in
/// strictly ascending order; an event's callback performs its device
/// operation (Disk reads/writes, CPU-lane occupancy) and may submit
/// follow-up events at or after its own ready time. Because every
/// device serializes requests on its own busy-until timeline
/// (max(ready, busy_until) start rule), invoking the operations in
/// global ready order yields per-device FCFS service identical to a
/// queue per device — with completion times that interleave across
/// devices, which is what lets checkpoint-image transfer, log-page
/// reads, record apply, and transaction operations overlap on the
/// virtual timeline.
///
/// Determinism: ties on ready time break by submission order, which is
/// program order, and no wall-clock or randomness is involved — the
/// same initial events always produce the same trajectory.
///
/// Host-time hot path: the heap proper holds only 24-byte POD ordering
/// keys (ready time, seq, slab slot) managed with std::push_heap/pop_heap,
/// so every sift step moves three words instead of a whole callback. The
/// callbacks themselves are SmallFn small-buffer callables parked in a
/// slab indexed by the key's slot and recycled through a free list —
/// steady-state event submission touches no allocator at all (Reserve
/// pre-sizes heap, slab, and free list).
class EventScheduler {
 public:
  using Fn = SmallFn;

  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Schedules `fn` to run at virtual time `when_ns` (clamped forward to
  /// the currently running event's time: the simulation cannot submit
  /// work into its own past).
  void At(uint64_t when_ns, Fn fn);

  /// Pre-sizes the event heap and callback slab (allocation-free
  /// submission afterwards, until the reservation is outgrown).
  void Reserve(size_t events) {
    heap_.reserve(events);
    fns_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Drains the event heap. Stops early if any callback called Fail().
  /// Returns the first failure, or OK when the heap ran dry.
  Status Run();

  /// Ready time of the earliest pending event (UINT64_MAX when none) —
  /// lets a caller interleave its own actors with the heap's events.
  uint64_t next_ns() const {
    return heap_.empty() ? UINT64_MAX : heap_.front().when_ns;
  }

  /// Runs the earliest pending event, if any. Returns the first failure
  /// recorded so far, or OK.
  Status RunNext();

  /// Records a failure; Run() stops before the next event.
  void Fail(Status st);

  bool failed() const { return !status_.ok(); }

  /// Ready time of the event currently being run (0 before Run()).
  uint64_t now_ns() const { return now_ns_; }

  uint64_t events_run() const { return events_run_; }
  /// High-water mark of pending events (heap depth).
  size_t peak_depth() const { return peak_depth_; }
  size_t depth() const { return heap_.size(); }
  /// Submissions whose callback captures did not fit SmallFn's inline
  /// buffer (each one cost a heap allocation; hot paths keep this 0).
  uint64_t heap_fallbacks() const { return heap_fallbacks_; }

 private:
  /// Heap entry: ordering key plus the callback's slab slot. POD and
  /// 24 bytes, so push_heap/pop_heap sifts stay cheap at any depth.
  struct Event {
    uint64_t when_ns;
    uint64_t seq;
    uint32_t slot;
  };
  /// std::push_heap max-heap comparator: "a orders after b" — the top of
  /// the heap is then the event that runs first.
  static bool Later(const Event& a, const Event& b) {
    if (a.when_ns != b.when_ns) return a.when_ns > b.when_ns;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::vector<Fn> fns_;                  // callback slab, heap_[i].slot
  std::vector<uint32_t> free_slots_;     // recycled slab slots
  uint64_t next_seq_ = 0;
  uint64_t now_ns_ = 0;
  uint64_t events_run_ = 0;
  uint64_t heap_fallbacks_ = 0;
  size_t peak_depth_ = 0;
  Status status_ = Status::OK();
};

/// A bare service timeline for devices that have no backing object of
/// their own — the recovery CPU lanes. Occupancy follows the same rule
/// as Disk: a request ready at `ready_ns` starts at max(ready,
/// busy_until) and holds the device for `service_ns`.
class DeviceTimeline {
 public:
  explicit DeviceTimeline(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Occupies the device; returns the completion time.
  uint64_t Occupy(uint64_t ready_ns, uint64_t service_ns) {
    uint64_t start = ready_ns > busy_until_ns_ ? ready_ns : busy_until_ns_;
    busy_until_ns_ = start + service_ns;
    busy_total_ns_ += service_ns;
    return busy_until_ns_;
  }

  uint64_t busy_until_ns() const { return busy_until_ns_; }
  /// Accumulated service time (the lane's busy — not idle — virtual ns).
  uint64_t busy_total_ns() const { return busy_total_ns_; }

 private:
  std::string name_;
  uint64_t busy_until_ns_ = 0;
  uint64_t busy_total_ns_ = 0;
};

}  // namespace mmdb::sim

#endif  // MMDB_SIM_SCHEDULER_H_
