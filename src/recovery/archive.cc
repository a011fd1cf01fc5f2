#include "recovery/archive.h"

namespace mmdb {

void ArchiveManager::ArchiveCheckpointImage(
    PartitionId pid, uint64_t first_page, const std::vector<sim::Page>& pages) {
  images_[pid] = ImageCopy{first_page, pages};
  ++archived_images_;
}

Status ArchiveManager::RollLog(const sim::DuplexedDisk& log_disks,
                               uint64_t up_to_lsn) {
  for (uint64_t lsn = rolled_up_to_; lsn < up_to_lsn; ++lsn) {
    if (log_pages_.count(lsn) != 0) continue;
    sim::Page page;
    Status st = log_disks.StoredPage(lsn, &page);
    if (st.IsNotFound()) continue;  // never written (sparse LSN space)
    MMDB_RETURN_IF_ERROR(st);
    log_pages_[lsn] = std::move(page);
    ++archived_log_pages_;
  }
  if (up_to_lsn > rolled_up_to_) rolled_up_to_ = up_to_lsn;
  return Status::OK();
}

Status ArchiveManager::RecoverCheckpointDisk(sim::Disk* checkpoint_disk,
                                             uint64_t now_ns,
                                             uint64_t* done_ns) {
  if (checkpoint_disk->media_failed()) {
    return Status::InvalidArgument(
        "repair the checkpoint disk before archive restore");
  }
  uint64_t t = now_ns;
  for (const auto& [pid, copy] : images_) {
    t = checkpoint_disk->WriteTrack(copy.first_page, copy.pages, t,
                                    sim::SeekClass::kRandom);
  }
  *done_ns = t;
  return Status::OK();
}

}  // namespace mmdb
