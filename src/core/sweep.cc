// Heat-ordered background recovery sweep queue (paper §2.5).
//
// The sweep queue is ordered by access heat: every resident partition
// reference bumps a per-partition counter, Crash() harvests the counts,
// and the post-crash sweep restores the hottest partitions first — under
// a Zipf workload the partitions transactions are about to fault on
// anyway. The queue is shared by BackgroundRecoveryStep (explicit
// stepping), the kFullReload restart and the concurrent executor's
// interleaved sweep lanes (src/txn/executor.cc), so no two of them
// rebuild the same partition. Every one of them rebuilds through the
// recovery-lane loop (core/parallel_recovery.cc).

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"

namespace mmdb {

void Database::EnsureSweepQueue() {
  if (bg_queue_epoch_ == ddl_epoch_) return;
  bg_queue_.clear();
  bg_queue_pos_ = 0;
  bg_queue_epoch_ = ddl_epoch_;

  struct Entry {
    PartitionId pid;
    uint64_t heat;
    uint64_t pack;
  };
  std::vector<Entry> entries;
  auto heat_of = [&](PartitionId pid) -> uint64_t {
    auto it = partition_heat_.find(pid.Pack());
    return it == partition_heat_.end() ? 0 : it->second;
  };
  for (const PartitionDescriptor* d : v_->catalog.DataPartitions()) {
    if (d->resident) continue;
    entries.push_back(Entry{d->id, heat_of(d->id), d->id.Pack()});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.heat != b.heat) return a.heat > b.heat;
                     return a.pack < b.pack;
                   });
  bg_queue_.reserve(entries.size());
  for (const Entry& e : entries) bg_queue_.push_back(e.pid);
}

bool Database::NextSweepItem(PartitionId* pid) {
  EnsureSweepQueue();
  while (bg_queue_pos_ < bg_queue_.size()) {
    const PartitionId cand = bg_queue_[bg_queue_pos_++];
    // Skip partitions an on-demand fault recovered (or DDL dropped) since
    // the queue was built.
    auto d = v_->catalog.FindDescriptor(cand);
    if (!d.ok() || d.value()->resident) continue;
    *pid = cand;
    return true;
  }
  return false;
}

}  // namespace mmdb
