// Main-CPU side of checkpointing (paper §2.4).
//
// The recovery CPU signals checkpoint work by entering a partition address
// and a status flag into the SLB communication buffer. The transaction
// manager "checks the checkpoint request queue in the Stable Log Buffer
// between transactions" and runs a checkpoint transaction per request:
//
//   1. read lock on the partition's relation (transaction-consistent),
//   2. copy the partition at memory speed, release the lock,
//   3. allocate a free checkpoint-disk location (pseudo-circular queue;
//      new copies never overwrite old ones),
//   4. log the disk-allocation-map and catalog-entry updates,
//   5. write the partition image (a whole track) and commit,
//   6. the new location is installed atomically; the recovery CPU then
//      flushes the partition's remaining log info and resets its bin.

#include <set>

#include "core/database.h"
#include "util/logging.h"

namespace mmdb {

Status Database::RunCheckpoints() {
  if (in_maintenance_) return Status::OK();
  in_maintenance_ = true;
  Status st = PollCheckpoints();
  in_maintenance_ = false;
  return st;
}

Status Database::PollCheckpoints() {
  // One request at a time, rescanning the queues after each: a finished
  // request is removed from its queue.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    uint32_t stream = 0;
    CheckpointRequest* next = log_->NextCheckpointRequest(&stream);
    if (next == nullptr) return Status::OK();
    Status st = RunCheckpoint(next, stream);
    if (st.IsBusy() || st.IsNotResident()) {
      // Cannot run now (lock conflict / partition not in memory): leave
      // queued and stop; the next poll retries.
      return Status::OK();
    }
    MMDB_RETURN_IF_ERROR(st);
  }
  return Status::Corruption("checkpoint queue did not drain");
}

Status Database::RunCheckpoint(CheckpointRequest* req, uint32_t stream) {
  PartitionId pid = req->partition;
  bool is_catalog = pid.segment == v_->catalog.catalog_segment();
  uint64_t ckpt_start_ns = clock_.now_ns();

  auto dr = v_->catalog.FindDescriptor(pid);
  if (!dr.ok()) {
    // The partition was dropped since the request: nothing to do.
    req->state = CheckpointState::kFinished;
    log_->ClearFinished(stream, pid);
    return Status::OK();
  }
  PartitionDescriptor* d = dr.value();
  // Catalog partitions have no relation to lock.
  auto relr = v_->catalog.RelationOfSegment(pid.segment);
  RelationInfo* rel = relr.ok() ? relr.value() : nullptr;

  auto pr = v_->pm.Get(pid);
  if (!pr.ok()) return pr.status();  // kNotResident: retry later
  Partition* p = pr.value();

  auto txn_r = Begin(TxnKind::kCheckpoint);
  if (!txn_r.ok()) return txn_r.status();
  Transaction* txn = txn_r.value();

  // Step 1: a single read lock on the relation gives a transaction-
  // consistent image.
  if (rel != nullptr) {
    Status lk = v_->locks.Acquire(txn->id(), LockResource::Relation(rel->id),
                                  LockMode::kS);
    MainWork(opts_.lock_instructions);
    if (!lk.ok()) {
      Status ab = Abort(txn);
      (void)ab;
      return lk;  // Busy: retry on a later poll
    }
  }
  req->state = CheckpointState::kInProgress;

  // Let the sort processes catch up so the bin cut matches the image:
  // every record of transactions committed before the lock is in its bin.
  // A partition's records are spread across every stream, so all of them
  // are fenced and drained before the copy.
  MMDB_RETURN_IF_ERROR(log_->Drain(clock_.now_ns()));

  // Step 2: copy the partition at memory speed, then release the lock.
  std::vector<uint8_t> image = p->image();
  uint32_t bin_index = p->bin_index();
  MainWork(opts_.costs.i_copy_fixed +
           opts_.costs.i_copy_add * static_cast<double>(image.size()));
  v_->locks.ReleaseAll(txn->id());

  // Step 3: locate a free checkpoint-disk slot (pseudo-circular queue).
  auto slot_r = v_->disk_map.Allocate(pid.Pack());
  if (!slot_r.ok()) {
    Status ab = Abort(txn);
    (void)ab;
    req->state = CheckpointState::kRequest;
    return slot_r.status();
  }
  uint64_t slot = slot_r.value();
  uint64_t first_page = v_->disk_map.SlotFirstPage(slot);
  uint64_t old_page = d->checkpoint_page;
  uint64_t old_slot = d->checkpoint_slot;
  bool had_old = d->has_checkpoint();

  // Install the new location in memory; free the old slot (new copies
  // never overwrite old ones — the old image stays untouched on disk).
  d->checkpoint_page = first_page;
  d->checkpoint_slot = slot;
  if (had_old) MMDB_CHECK(v_->disk_map.Free(old_slot).ok());

  // Step 4: log the catalog-entry and disk-allocation-map updates before
  // the partition is written. Catalog partitions keep their locations in
  // the stable root block instead (duplicated in stable memory).
  Status st = is_catalog ? Status::OK() : PersistDescriptorRow(txn, d);
  if (st.ok()) {
    std::set<uint32_t> chunks{DiskAllocationMap::ChunkOf(slot)};
    if (had_old) chunks.insert(DiskAllocationMap::ChunkOf(old_slot));
    st = PersistDiskMapChunks(txn, chunks);
  }
  auto rollback_install = [&](Status why) {
    // Roll back the in-memory install; the row updates are undone by the
    // transaction abort. The new image (whole or partial) may sit in its
    // slot on disk, but nothing durable references it: the committed
    // descriptor row still points at the old image.
    d->checkpoint_page = old_page;
    d->checkpoint_slot = old_slot;
    MMDB_CHECK(v_->disk_map.Free(slot).ok());
    if (had_old) MMDB_CHECK(v_->disk_map.Reclaim(old_slot, pid.Pack()).ok());
    Status ab = Abort(txn);
    (void)ab;
    req->state = CheckpointState::kRequest;
    return why;
  };
  if (!st.ok()) return rollback_install(st);

  // Step 5: write the partition image as a whole track and commit.
  if (fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kCheckpointTrackWrite;
    ev.device = "ckpt";
    ev.page_no = first_page;
    ev.now_ns = clock_.now_ns();
    Status hs = fault_->OnSite(&ev);
    if (!hs.ok()) return rollback_install(hs);
  }
  // Each page is built and checksummed once: the checkpoint disk and the
  // archive hold the same pages by reference.
  uint32_t page_bytes = opts_.log_page_bytes;
  std::vector<sim::Page> pages;
  for (size_t off = 0; off < image.size(); off += page_bytes) {
    size_t n = std::min<size_t>(page_bytes, image.size() - off);
    pages.push_back(sim::MakePage(
        std::vector<uint8_t>(image.begin() + static_cast<long>(off),
                             image.begin() + static_cast<long>(off + n))));
  }
  uint64_t done = checkpoint_disk_->WriteTrack(
      first_page, pages, clock_.now_ns(), sim::SeekClass::kNear);
  clock_.AdvanceTo(done);
  // A crash during the track write (partial image in the new slot) must
  // not install the new checkpoint: the previous image stays authoritative.
  st = fault::Barrier(fault_.get());
  if (!st.ok()) return rollback_install(st);
  archive_->ArchiveCheckpointImage(pid, first_page, pages);

  // Step 6: the descriptor-row commit, catalog-root update, and bin reset
  // form one atomic stable transition. Without it, a crash between the
  // commit (new image durable) and the bin reset would make restart
  // replay the bin's full chain onto the already-updated image — and
  // REDO replay is not idempotent.
  {
    fault::AtomicSection atomic(fault_.get());
    MMDB_RETURN_IF_ERROR(Commit(txn));
    if (is_catalog) {
      MMDB_RETURN_IF_ERROR(WriteCatalogRootBlock());
    }
    req->state = CheckpointState::kFinished;
    MMDB_RETURN_IF_ERROR(
        log_->OnCheckpointFinished(bin_index, clock_.now_ns()));
    log_->ClearFinished(stream, pid);  // `req` dangles after this
    req = nullptr;
  }
  // The commit made the old slot's free durable: no restart can read the
  // superseded image any more, so the disk lets go of its pages. (Until
  // the commit a crash restarts from it, so it must stay readable.)
  if (had_old) {
    checkpoint_disk_->ReleasePages(old_page, v_->disk_map.pages_per_slot());
  }
  MMDB_RETURN_IF_ERROR(fault::Barrier(fault_.get()));

  if (opts_.audit_logging) {
    MMDB_RETURN_IF_ERROR(audit_->Append(AuditRecord{
        0, clock_.now_ns(), AuditKind::kCheckpoint, pid.ToString()}));
  }
  m_ckpt_completed_->Add(1);
  m_ckpt_duration_ns_->Record(
      static_cast<double>(clock_.now_ns() - ckpt_start_ns));
  tracer_.Span(obs::Track::kCheckpointDisk, "checkpoint",
               "checkpoint " + pid.ToString(), ckpt_start_ns,
               clock_.now_ns() - ckpt_start_ns);
  return log_->RollArchive(archive_.get());
}

Status Database::ForceCheckpointRelation(const std::string& relation) {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  auto parts = v_->catalog.RelationPartitions(relation);
  if (!parts.ok()) return parts.status();
  MMDB_RETURN_IF_ERROR(log_->Drain(clock_.now_ns()));
  for (const PartitionDescriptor* d : parts.value()) {
    log_->RequestCheckpoint(d->id);
  }
  return RunCheckpoints();
}

Status Database::CheckpointEverything() {
  if (crashed_) return Status::InvalidArgument("crashed; call Restart()");
  MMDB_RETURN_IF_ERROR(log_->Drain(clock_.now_ns()));
  // The catalog goes last: every other checkpoint rewrites a descriptor
  // row and a disk-map chunk row, which then land in its image instead of
  // its log, where restart phase 1 would replay them.
  std::vector<PartitionId> catalog;
  for (Partition* p : v_->pm.AllPartitions()) {
    if (p->id().segment == v_->catalog.catalog_segment()) {
      catalog.push_back(p->id());
    } else {
      log_->RequestCheckpoint(p->id());
    }
  }
  for (PartitionId pid : catalog) log_->RequestCheckpoint(pid);
  return RunCheckpoints();
}

}  // namespace mmdb
