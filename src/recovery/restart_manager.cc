#include "recovery/restart_manager.h"

#include <unordered_set>

#include "core/database.h"

namespace mmdb {

Status RestartManager::Restart(RestartReport* report) {
  Database& db = *db_;
  uint64_t t_start = db.clock_.now_ns();

  // Any records of transactions that committed before the crash but were
  // not yet sorted are still in the (stable) SLBs: sort them into their
  // bins first, so every bin is complete. In partitioned-log mode the
  // epoch frontier is the discard frontier Crash() latched into the
  // stable restart record; everything stamped past it is already gone on
  // every stream, so draining each stream to its own marker empties the
  // SLBs. No fence here, and no recomputation from the markers: a crash
  // inside a previous attempt's end fence leaves the markers partially
  // advanced, and retries must keep reporting the original frontier.
  // With one stream nothing is latched and the frontier stays UINT32_MAX.
  report->epoch_frontier = db.epoch_discard_frontier_;
  for (Database::LogStream& ls : db.streams_) {
    MMDB_RETURN_IF_ERROR(
        ls.recovery->Drain(db.clock_.now_ns(), db.PumpBound(ls)));
    ls.recovery->RebuildFirstLsnList();
  }

  // Read the catalog root from its well-known stable location; it is
  // stored twice (stream 0's SLB + SLT) for reliability.
  std::vector<uint8_t> root = db.streams_[0].slb->catalog_root();
  const std::vector<uint8_t>& root2 = db.streams_[0].slt->catalog_root();
  db.meter_->ChargeRead(root.size() + root2.size());
  Catalog& catalog = db.v_->catalog;
  if (root.empty() && root2.empty()) {
    // The database never had catalog data: a fresh start.
    catalog.set_catalog_segment(db.v_->pm.AllocateSegment());
    db.crashed_ = false;
    db.recovery_progress_.BeginTracking(0, db.clock_.now_ns());
    return Status::OK();
  }
  // Prefer the SLB copy but fall back to the SLT copy whenever the first
  // fails to load (checksum, magic, truncation, partition size), not only
  // when it is missing; surface Corruption only when both copies are bad.
  const uint32_t partition_size = db.opts_.partition_size_bytes;
  Status ps = root.empty()
                  ? Status::Corruption("missing SLB catalog root copy")
                  : catalog.LoadRoot(root, partition_size);
  if (!ps.ok()) {
    Status ps2 = root2.empty()
                     ? Status::Corruption("missing SLT catalog root copy")
                     : catalog.LoadRoot(root2, partition_size);
    if (!ps2.ok()) {
      return Status::Corruption("catalog root bad in both stable copies: " +
                                ps.ToString() + " / " + ps2.ToString());
    }
  }
  const SegmentId catalog_segment = catalog.catalog_segment();
  db.v_->pm.BumpCounters(catalog_segment + 1,
                         PartitionId{catalog_segment, 0});
  // The root's descriptors, non-resident until phase 1 installs them.
  auto loaded = catalog.PartitionsOf(catalog_segment);
  if (!loaded.ok()) return loaded.status();
  const std::vector<PartitionDescriptor>& catalog_parts = *loaded.value();

  // Phase 1: restore the catalogs right away (paper §2.5), with all
  // recovery lanes working on the catalog partitions concurrently.
  std::vector<Database::RecoveryWorkItem> catalog_work;
  for (const PartitionDescriptor& d : catalog_parts) {
    catalog_work.push_back(Database::RecoveryWorkItem{d.id, d.checkpoint_page});
  }
  MMDB_RETURN_IF_ERROR(db.RecoverPartitionsParallel(
      catalog_work, RecoverySource::kRestart, report));
  for (const PartitionDescriptor& d : catalog_parts) {
    db.v_->pm.BumpCounters(catalog_segment + 1, d.id);
  }
  report->catalog_partitions = catalog_parts.size();

  // Rebuild the in-memory catalog and disk allocation map from the
  // recovered catalog entities.
  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  for (const PartitionDescriptor& d : catalog_parts) {
    auto pr = db.v_->pm.Get(d.id);
    if (!pr.ok()) return pr.status();
    Partition* p = pr.value();
    for (uint32_t s = 0; s < p->slot_count(); ++s) {
      if (!p->SlotUsed(s)) continue;
      auto bytes = p->Read(s);
      if (!bytes.ok()) return bytes.status();
      rows.emplace_back(EntityAddr{d.id, s},
                        std::vector<uint8_t>(bytes.value().begin(),
                                             bytes.value().end()));
    }
  }
  db.v_->disk_map = DiskAllocationMap(
      db.opts_.checkpoint_disk_slots,
      db.opts_.partition_size_bytes / db.opts_.log_page_bytes);
  MMDB_RETURN_IF_ERROR(catalog.Rebuild(rows, &db.v_->disk_map));

  // Reconcile allocation counters so new segments/partitions never
  // collide with recovered ones, and count the data partitions now
  // awaiting recovery (on-demand, background, or the kFullReload sweep
  // below — each path reports back to the progress tracker).
  db.v_->pm.BumpCounters(catalog.max_segment_seen() + 1,
                         PartitionId{catalog_segment, 0});
  std::unordered_set<PartitionId> described;
  for (const PartitionDescriptor& d : catalog_parts) described.insert(d.id);
  uint64_t data_partitions = 0;
  for (const PartitionDescriptor* d : catalog.DataPartitions()) {
    db.v_->pm.BumpCounters(d->id.segment + 1, d->id);
    described.insert(d->id);
    if (!d->resident) ++data_partitions;
  }
  // A bin no catalog row describes belongs to a partition of an index
  // whose CreateIndex never committed; nothing will replay it. Every
  // stream releases the same bins, so their free lists stay aligned.
  for (Database::LogStream& ls : db.streams_) {
    for (uint32_t b = 0; b < ls.slt->bin_count(); ++b) {
      auto bin = ls.slt->bin(b);
      if (bin.ok() && described.count(bin.value()->partition) == 0) {
        ls.recovery->OnPartitionDropped(b);
        MMDB_RETURN_IF_ERROR(ls.slt->ReleaseBin(b));
      }
    }
  }
  uint64_t max_txn = 0;
  for (const Database::LogStream& ls : db.streams_) {
    max_txn = std::max(max_txn, ls.slb->max_txn_id());
  }
  db.v_->txns.SeedNextId(max_txn + 1);

  // Catalogs are usable: fix the ready-fraction denominator.
  db.recovery_progress_.BeginTracking(data_partitions, db.clock_.now_ns());

  report->catalog_ms =
      static_cast<double>(db.clock_.now_ns() - t_start) * 1e-6;
  db.crashed_ = false;

  // Transaction processing could begin here. Under database-level
  // recovery (the §3.4 baseline), everything must be reloaded first: the
  // whole sweep queue goes to the lanes as one run, so no lane waits for
  // a batch's slowest rebuild before taking its next partition.
  if (db.opts_.restart_policy == RestartPolicy::kFullReload) {
    std::vector<Database::RecoveryWorkItem> work;
    Database::RecoveryWorkItem item;
    while (db.NextSweepItem(&item)) work.push_back(item);
    MMDB_RETURN_IF_ERROR(db.RecoverPartitionsParallel(
        work, RecoverySource::kBackground, report));
  }
  // Restart succeeded: advance every stream's marker to the stamp
  // high-water so the survivors' epochs are uniformly acknowledged, then
  // retire the latched discard frontier. (A crash inside this fence
  // retries the whole restart with the frontier still latched, so a
  // partially-advanced marker set cannot inflate the reported frontier.)
  MMDB_RETURN_IF_ERROR(db.FenceEpochs());
  db.epoch_discard_frontier_ = UINT32_MAX;
  report->total_ms = static_cast<double>(db.clock_.now_ns() - t_start) * 1e-6;
  return Status::OK();
}

}  // namespace mmdb
