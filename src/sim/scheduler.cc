#include "sim/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mmdb::sim {

void EventScheduler::At(uint64_t when_ns, Fn fn) {
  if (when_ns < now_ns_) when_ns = now_ns_;
  if (!fn.is_inline()) ++heap_fallbacks_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
  }
  heap_.push_back(Event{when_ns, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  if (heap_.size() > peak_depth_) peak_depth_ = heap_.size();
}

void EventScheduler::Fail(Status st) {
  if (status_.ok() && !st.ok()) status_ = std::move(st);
}

Status EventScheduler::Run() {
  while (!heap_.empty() && status_.ok()) RunNext();
  return status_;
}

Status EventScheduler::RunNext() {
  if (heap_.empty()) return status_;
  // pop_heap moves the top key to the back; the callback is moved out of
  // the slab and its slot freed *before* invocation, so the callback may
  // submit new events (reusing the slot, growing the heap) while running.
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Event e = heap_.back();
  heap_.pop_back();
  MMDB_DCHECK(e.when_ns >= now_ns_);
  now_ns_ = e.when_ns;
  ++events_run_;
  Fn fn = std::move(fns_[e.slot]);
  free_slots_.push_back(e.slot);
  fn(now_ns_);
  return status_;
}

}  // namespace mmdb::sim
