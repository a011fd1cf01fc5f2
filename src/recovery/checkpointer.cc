#include "recovery/checkpointer.h"

#include <set>

#include "core/database.h"
#include "util/logging.h"

namespace mmdb {

Status Checkpointer::Poll() {
  Database& db = *db_;
  // Process one request at a time, rescanning the queue after each: RunOne
  // mutates the queue (finished entries are removed).
  for (int guard = 0; guard < 1 << 20; ++guard) {
    CheckpointRequest* next = nullptr;
    uint32_t stream = 0;
    for (uint32_t s = 0; s < db.log_streams() && next == nullptr; ++s) {
      for (CheckpointRequest& r : db.streams_[s].slb->checkpoint_requests()) {
        if (r.state == CheckpointState::kRequest) {
          next = &r;
          stream = s;
          break;
        }
      }
    }
    if (next == nullptr) return Status::OK();
    Status st = RunOne(next, stream);
    if (st.IsBusy() || st.IsNotResident()) {
      // Cannot run now (lock conflict / partition not in memory): leave
      // queued and stop; the next Poll retries.
      return Status::OK();
    }
    MMDB_RETURN_IF_ERROR(st);
  }
  return Status::Corruption("checkpoint queue did not drain");
}

Status Checkpointer::RunOne(CheckpointRequest* req, uint32_t stream) {
  Database& db = *db_;
  PartitionId pid = req->partition;
  bool is_catalog = pid.segment == db.v_->catalog.catalog_segment();
  uint64_t ckpt_start_ns = db.clock_.now_ns();

  auto dr = db.v_->catalog.FindDescriptor(pid);
  if (!dr.ok()) {
    // The partition was dropped since the request: nothing to do.
    req->state = CheckpointState::kFinished;
    db.streams_[stream].slb->ClearFinished(pid);
    return Status::OK();
  }
  PartitionDescriptor* d = dr.value();
  // Catalog partitions have no relation to lock.
  auto relr = db.v_->catalog.RelationOfSegment(pid.segment);
  RelationInfo* rel = relr.ok() ? relr.value() : nullptr;

  auto pr = db.v_->pm.Get(pid);
  if (!pr.ok()) return pr.status();  // kNotResident: retry later
  Partition* p = pr.value();

  auto txn_r = db.Begin(TxnKind::kCheckpoint);
  if (!txn_r.ok()) return txn_r.status();
  Transaction* txn = txn_r.value();

  // Step 3: a single read lock on the relation gives a transaction-
  // consistent image.
  if (rel != nullptr) {
    Status lk = db.v_->locks.Acquire(
        txn->id(), LockResource::Relation(rel->id), LockMode::kS);
    db.MainWork(db.opts_.lock_instructions);
    if (!lk.ok()) {
      Status ab = db.Abort(txn);
      (void)ab;
      return lk;  // Busy: retry on a later Poll
    }
  }
  req->state = CheckpointState::kInProgress;

  // Let the sort process catch up so the bin cut matches the image: every
  // record of transactions committed before the lock is in its bin. In
  // partitioned-log mode a partition's records are spread across every
  // stream, so all of them must be fenced and drained before the copy.
  MMDB_RETURN_IF_ERROR(db.DrainAllStreams(db.clock_.now_ns()));

  // Step 4: copy the partition at memory speed, then release the lock.
  std::vector<uint8_t> image = p->image();
  uint32_t bin_index = p->bin_index();
  db.MainWork(db.opts_.costs.i_copy_fixed +
              db.opts_.costs.i_copy_add * static_cast<double>(image.size()));
  db.v_->locks.ReleaseAll(txn->id());

  // Locate a free checkpoint-disk slot (pseudo-circular queue).
  auto slot_r = db.v_->disk_map.Allocate(pid.Pack());
  if (!slot_r.ok()) {
    Status ab = db.Abort(txn);
    (void)ab;
    req->state = CheckpointState::kRequest;
    return slot_r.status();
  }
  uint64_t slot = slot_r.value();
  uint64_t first_page = db.v_->disk_map.SlotFirstPage(slot);
  uint64_t old_page = d->checkpoint_page;
  uint64_t old_slot = d->checkpoint_slot;
  bool had_old = d->has_checkpoint();

  // Install the new location in memory; free the old slot (new copies
  // never overwrite old ones — the old image stays untouched on disk).
  d->checkpoint_page = first_page;
  d->checkpoint_slot = slot;
  if (had_old) MMDB_CHECK(db.v_->disk_map.Free(old_slot).ok());

  // Step 5: log the catalog-entry and disk-allocation-map updates before
  // the partition is written. Catalog partitions keep their locations in
  // the stable root block instead (duplicated in stable memory).
  Status st = is_catalog ? Status::OK() : db.PersistDescriptorRow(txn, d);
  if (st.ok()) {
    std::set<uint32_t> chunks{DiskAllocationMap::ChunkOf(slot)};
    if (had_old) chunks.insert(DiskAllocationMap::ChunkOf(old_slot));
    st = db.PersistDiskMapChunks(txn, chunks);
  }
  auto rollback_install = [&](Status why) {
    // Roll back the in-memory install; the row updates are undone by the
    // transaction abort. The new image (whole or partial) may sit in its
    // slot on disk, but nothing durable references it: the committed
    // descriptor row still points at the old image.
    d->checkpoint_page = old_page;
    d->checkpoint_slot = old_slot;
    MMDB_CHECK(db.v_->disk_map.Free(slot).ok());
    if (had_old) MMDB_CHECK(db.v_->disk_map.Reclaim(old_slot, pid.Pack()).ok());
    Status ab = db.Abort(txn);
    (void)ab;
    req->state = CheckpointState::kRequest;
    return why;
  };
  if (!st.ok()) return rollback_install(st);

  // Step 6: write the partition image as a whole track and commit.
  if (db.fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kCheckpointTrackWrite;
    ev.device = "ckpt";
    ev.page_no = first_page;
    ev.now_ns = db.clock_.now_ns();
    Status hs = db.fault_->OnSite(&ev);
    if (!hs.ok()) return rollback_install(hs);
  }
  uint32_t page_bytes = db.opts_.log_page_bytes;
  std::vector<std::vector<uint8_t>> pages;
  for (size_t off = 0; off < image.size(); off += page_bytes) {
    size_t n = std::min<size_t>(page_bytes, image.size() - off);
    pages.emplace_back(image.begin() + static_cast<long>(off),
                       image.begin() + static_cast<long>(off + n));
  }
  uint64_t done = db.checkpoint_disk_->WriteTrack(
      first_page, pages, db.clock_.now_ns(), sim::SeekClass::kNear);
  db.clock_.AdvanceTo(done);
  db.main_cpu_.IdleUntil(db.clock_.now_ns());
  // A crash during the track write (partial image in the new slot) must
  // not install the new checkpoint: the previous image stays authoritative.
  st = fault::Barrier(db.fault_.get());
  if (!st.ok()) return rollback_install(st);
  db.archive_->ArchiveCheckpointImage(pid, first_page, pages);

  // Steps 6b-7: the descriptor-row commit, catalog-root update, and bin
  // reset form one atomic stable transition. Without it, a crash between
  // the commit (new image durable) and the bin reset would make restart
  // replay the bin's full chain onto the already-updated image — and
  // REDO replay is not idempotent.
  {
    fault::AtomicSection atomic(db.fault_.get());
    MMDB_RETURN_IF_ERROR(db.Commit(txn));
    if (is_catalog) {
      MMDB_RETURN_IF_ERROR(db.WriteCatalogRootBlock());
    }
    req->state = CheckpointState::kFinished;
    for (Database::LogStream& ls : db.streams_) {
      MMDB_RETURN_IF_ERROR(
          ls.recovery->OnCheckpointFinished(bin_index, db.clock_.now_ns()));
    }
    db.streams_[stream].slb->ClearFinished(pid);  // `req` dangles after this
    req = nullptr;
  }
  MMDB_RETURN_IF_ERROR(fault::Barrier(db.fault_.get()));

  if (db.opts_.audit_logging) {
    MMDB_RETURN_IF_ERROR(db.audit_->Append(AuditRecord{
        0, db.clock_.now_ns(), AuditKind::kCheckpoint, pid.ToString()}));
  }
  db.m_ckpt_completed_->Add(1);
  db.m_ckpt_duration_ns_->Record(
      static_cast<double>(db.clock_.now_ns() - ckpt_start_ns));
  db.tracer_.Span(obs::Track::kCheckpointDisk, "checkpoint",
                  "checkpoint " + pid.ToString(), ckpt_start_ns,
                  db.clock_.now_ns() - ckpt_start_ns);

  // Roll stream 0's retired log extents onto the archive.
  MMDB_RETURN_IF_ERROR(db.archive_->RollLog(
      db.streams_[0].disks.get(), db.streams_[0].writer->window_start()));
  return Status::OK();
}

}  // namespace mmdb
