#ifndef MMDB_RECOVERY_ARCHIVE_H_
#define MMDB_RECOVERY_ARCHIVE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "log/log_disk.h"
#include "sim/disk.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Archive component (paper §2.6).
///
/// The disk copy of the database (checkpoint images + log) is the archive
/// for the primary memory copy, but the disks themselves need an archive
/// (tape or optical disk) against media failure. This manager models the
/// archive medium as unbounded stable storage:
///
///  * every committed checkpoint image is also archived, and
///  * log pages are rolled onto the archive as the log window advances
///    past them ("the recovery component releases control of a log disk
///    when that disk is transferred to the archive component to roll the
///    contents of the disk onto tape").
///
/// `RecoverCheckpointDisk` implements media recovery for the checkpoint
/// disk: it rewrites every partition's latest archived image back to its
/// recorded slot. Because a partition's bin retains all log records
/// written since its last checkpoint, ordinary post-crash partition
/// recovery then reproduces the current state.
class ArchiveManager {
 public:
  ArchiveManager() = default;

  ArchiveManager(const ArchiveManager&) = delete;
  ArchiveManager& operator=(const ArchiveManager&) = delete;

  /// Archives a checkpoint image of `pid` that lives at checkpoint-disk
  /// page `first_page` (track of `pages` pages). The archive keeps the
  /// pages by reference: they share their bytes with the checkpoint disk.
  void ArchiveCheckpointImage(PartitionId pid, uint64_t first_page,
                              const std::vector<sim::Page>& pages);

  /// Forgets the archived image of a partition whose drop has committed:
  /// media recovery must not restore it over a slot reused since.
  void DropImage(PartitionId pid) { images_.erase(pid); }

  /// Rolls log pages with LSN < `up_to_lsn` from the log disk onto the
  /// archive (idempotent; already-rolled pages are skipped). Each page is
  /// taken by reference from a duplex member whose copy verifies
  /// (`DuplexedDisk::StoredPage`): the roll is a hand-over of the disk
  /// to the archive component, not a timed read through its queue.
  Status RollLog(const sim::DuplexedDisk& log_disks, uint64_t up_to_lsn);

  /// Media recovery: restore every archived partition image onto the
  /// (repaired) checkpoint disk at its recorded location.
  Status RecoverCheckpointDisk(sim::Disk* checkpoint_disk, uint64_t now_ns,
                               uint64_t* done_ns);

  uint64_t archived_images() const { return archived_images_; }
  uint64_t archived_log_pages() const { return archived_log_pages_; }

  /// Archived log pages (LSN → page). The re-silverer restores from here
  /// any page the healthy duplex member can no longer serve (e.g. a
  /// latent-corrupt sector discovered during the copy).
  const std::map<uint64_t, sim::Page>& log_page_archive() const {
    return log_pages_;
  }

 private:
  struct ImageCopy {
    uint64_t first_page;
    std::vector<sim::Page> pages;
  };

  // Latest archived image per partition (tape would keep all; media
  // recovery only needs the latest plus the retained log).
  std::unordered_map<PartitionId, ImageCopy> images_;
  std::map<uint64_t, sim::Page> log_pages_;
  uint64_t rolled_up_to_ = 0;
  uint64_t archived_images_ = 0;
  uint64_t archived_log_pages_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_ARCHIVE_H_
