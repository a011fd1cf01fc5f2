#ifndef MMDB_RECOVERY_CHECKPOINTER_H_
#define MMDB_RECOVERY_CHECKPOINTER_H_

#include <cstdint>

#include "log/slb.h"
#include "util/status.h"

namespace mmdb {

class Database;

/// Main-CPU side of checkpointing (paper §2.4).
///
/// The recovery CPU signals checkpoint work by entering a partition
/// address and a status flag into the SLB communication buffer. The
/// transaction manager, running on the main CPU, "checks the checkpoint
/// request queue in the Stable Log Buffer between transactions" and runs
/// a checkpoint transaction per request:
///
///   1. read lock on the partition's relation (transaction-consistent),
///   2. copy the partition at memory speed, release the lock,
///   3. allocate a free checkpoint-disk location (pseudo-circular queue;
///      new copies never overwrite old ones),
///   4. log the disk-allocation-map and catalog-entry updates,
///   5. write the partition image (a whole track) and commit,
///   6. the new location is installed atomically; the recovery CPU then
///      flushes the partition's remaining log info and resets its bin.
class Checkpointer {
 public:
  explicit Checkpointer(Database* db) : db_(db) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Processes every pending request in the queue. Requests that cannot
  /// run yet (lock conflict, partition not resident) stay queued.
  Status Poll();

 private:
  /// Runs one request from `stream`'s SLB queue. In partitioned-log mode
  /// a partition's records are spread across every stream, so the bin
  /// flush/reset covers all streams while the finished request is cleared
  /// from the owning stream's queue only.
  Status RunOne(CheckpointRequest* req, uint32_t stream);

  Database* db_;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_CHECKPOINTER_H_
