// Crash and post-crash restart (paper §2.5).
//
// "The recovery manager restores the database system catalogs and then
// signals the transaction manager to begin processing." The catalog
// partition list is read from its well-known stable location (stored
// twice: SLB and SLT); each catalog partition is rebuilt from its
// checkpoint image plus its bin's log chain; the in-memory catalog and
// disk allocation map are then rebuilt from the recovered catalog
// entities. Data partitions are left disk-resident, to be recovered on
// demand / in the background (kOnDemand) or eagerly (kFullReload).

#include <unordered_set>

#include "core/database.h"
#include "util/logging.h"

namespace mmdb {

void Database::Crash() {
  // Harvest access heat before the primary copy disappears: the
  // heat-ordered background sweep uses these counts to restore the
  // hottest partitions first after restart. Accumulates across crashes
  // (partitions recovered mid-epoch restart their in-memory counter).
  for (Partition* p : v_->pm.AllPartitions()) {
    if (p->heat() != 0) partition_heat_[p->id().Pack()] += p->heat();
  }
  // Volatile state is gone: the primary copy, locks, UNDO space,
  // in-flight transactions, in-memory catalogs.
  v_ = std::make_unique<Volatile>(opts_);
  log_->OnCrash();
  resilver_->OnCrash();
  fault_->OnCrashDelivered();
  crashed_ = true;
  ++ddl_epoch_;  // the sweep queue indexed the lost catalog
  // Volatile metrics reset with the state they measured; the new lock
  // table / txn manager get fresh handle hookups.
  metrics_.ResetVolatile();
  AttachVolatileObservers();
  recovery_progress_.OnCrash(clock_.now_ns());
  tracer_.Instant(obs::Track::kSystem, "lifecycle", "crash", clock_.now_ns());
  MMDB_LOG(INFO, "crash at %llu vns: volatile store and metrics dropped",
           static_cast<unsigned long long>(clock_.now_ns()));
}

Status Database::Restart() {
  if (!crashed_) return Status::InvalidArgument("Restart() without a crash");
  last_restart_ = RestartReport{};
  uint64_t start_ns = clock_.now_ns();
  Status st = RestartFromStableStore(&last_restart_);
  if (st.ok()) {
    m_restart_catalog_ns_->Record(last_restart_.catalog_ms * 1e6);
    m_restart_total_ns_->Record(last_restart_.total_ms * 1e6);
    tracer_.Span(obs::Track::kSystem, "lifecycle", "restart: catalogs",
                 start_ns, static_cast<uint64_t>(last_restart_.catalog_ms * 1e6));
    tracer_.Span(obs::Track::kSystem, "lifecycle", "restart", start_ns,
                 clock_.now_ns() - start_ns);
    MMDB_LOG(INFO,
             "restart: catalogs %.2f vms, total %.2f vms, %llu partitions",
             last_restart_.catalog_ms, last_restart_.total_ms,
             static_cast<unsigned long long>(
                 last_restart_.partitions_recovered));
  }
  if (st.ok() && opts_.audit_logging) {
    MMDB_RETURN_IF_ERROR(audit_->Append(
        AuditRecord{0, clock_.now_ns(), AuditKind::kRestart, ""}));
  }
  return st;
}

Status Database::RestartFromStableStore(RestartReport* report) {
  uint64_t t_start = clock_.now_ns();

  // Any records of transactions that committed before the crash but were
  // not yet sorted are still in the (stable) SLBs: sort them into their
  // bins first, so every bin is complete. With several streams the epoch
  // frontier is the discard frontier the crash latched; everything
  // stamped past it is already gone on every stream, so draining each
  // stream to its own marker empties the SLBs. With one stream nothing
  // is latched and the frontier stays UINT32_MAX.
  report->epoch_frontier = log_->discard_frontier();
  MMDB_RETURN_IF_ERROR(log_->DrainForRestart(clock_.now_ns()));

  // Read the catalog root from its well-known stable location; it is
  // stored twice for reliability.
  auto [root, root2] = log_->CatalogRoots();
  Catalog& catalog = v_->catalog;
  if (root.empty() && root2.empty()) {
    // The database never had catalog data: a fresh start.
    catalog.set_catalog_segment(v_->pm.AllocateSegment());
    crashed_ = false;
    recovery_progress_.BeginTracking(0, clock_.now_ns());
    return Status::OK();
  }
  // Prefer the SLB copy but fall back to the SLT copy whenever the first
  // fails to load (checksum, magic, truncation, partition size), not only
  // when it is missing; surface Corruption only when both copies are bad.
  Status ps = root.empty()
                  ? Status::Corruption("missing SLB catalog root copy")
                  : catalog.LoadRoot(root, opts_.partition_size_bytes);
  if (!ps.ok()) {
    Status ps2 = root2.empty()
                     ? Status::Corruption("missing SLT catalog root copy")
                     : catalog.LoadRoot(root2, opts_.partition_size_bytes);
    if (!ps2.ok()) {
      return Status::Corruption("catalog root bad in both stable copies: " +
                                ps.ToString() + " / " + ps2.ToString());
    }
  }
  const SegmentId catalog_segment = catalog.catalog_segment();
  v_->pm.BumpCounters(catalog_segment + 1, PartitionId{catalog_segment, 0});
  // The root's descriptors, non-resident until phase 1 installs them.
  auto loaded = catalog.PartitionsOf(catalog_segment);
  if (!loaded.ok()) return loaded.status();
  const std::vector<PartitionDescriptor>& catalog_parts = *loaded.value();

  // Phase 1: restore the catalogs right away (paper §2.5), with all
  // recovery lanes working on the catalog partitions concurrently.
  std::vector<PartitionId> catalog_work;
  for (const PartitionDescriptor& d : catalog_parts) {
    catalog_work.push_back(d.id);
  }
  MMDB_RETURN_IF_ERROR(RecoverPartitionsParallel(
      catalog_work, RecoverySource::kRestart, report));
  for (const PartitionDescriptor& d : catalog_parts) {
    v_->pm.BumpCounters(catalog_segment + 1, d.id);
  }
  report->catalog_partitions = catalog_parts.size();

  // Rebuild the in-memory catalog and disk allocation map from the
  // recovered catalog entities.
  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  for (const PartitionDescriptor& d : catalog_parts) {
    auto pr = v_->pm.Get(d.id);
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
  v_->disk_map =
      DiskAllocationMap(opts_.checkpoint_disk_slots,
                        opts_.partition_size_bytes / opts_.log_page_bytes);
  MMDB_RETURN_IF_ERROR(catalog.Rebuild(rows, &v_->disk_map));

  // Reconcile allocation counters so new segments/partitions never
  // collide with recovered ones, and count the data partitions now
  // awaiting recovery (on-demand, background, or the kFullReload sweep
  // below — each path reports back to the progress tracker).
  v_->pm.BumpCounters(catalog.max_segment_seen() + 1,
                      PartitionId{catalog_segment, 0});
  std::unordered_set<PartitionId> described;
  for (const PartitionDescriptor& d : catalog_parts) described.insert(d.id);
  uint64_t data_partitions = 0;
  for (const PartitionDescriptor* d : catalog.DataPartitions()) {
    v_->pm.BumpCounters(d->id.segment + 1, d->id);
    described.insert(d->id);
    if (!d->resident) ++data_partitions;
  }
  // A bin no catalog row describes belongs to a partition of an index
  // whose CreateIndex never committed; nothing will replay it.
  MMDB_RETURN_IF_ERROR(log_->ReleaseUndescribed(described));
  v_->txns.SeedNextId(log_->max_txn_id() + 1);

  // Catalogs are usable: fix the ready-fraction denominator.
  recovery_progress_.BeginTracking(data_partitions, clock_.now_ns());

  report->catalog_ms = static_cast<double>(clock_.now_ns() - t_start) * 1e-6;
  crashed_ = false;

  // Transaction processing could begin here. Under database-level
  // recovery (the §3.4 baseline), everything must be reloaded first: the
  // whole sweep queue goes to the lanes as one run, so no lane waits for
  // a batch's slowest rebuild before taking its next partition.
  if (opts_.restart_policy == RestartPolicy::kFullReload) {
    std::vector<PartitionId> work;
    PartitionId pid;
    while (NextSweepItem(&pid)) work.push_back(pid);
    MMDB_RETURN_IF_ERROR(
        RecoverPartitionsParallel(work, RecoverySource::kBackground, report));
  }
  // Restart succeeded: acknowledge the survivors' epochs on every stream
  // and retire the latched frontier. A crash inside the fence retries the
  // whole restart with the frontier still latched.
  MMDB_RETURN_IF_ERROR(log_->RetireFrontier());
  report->total_ms = static_cast<double>(clock_.now_ns() - t_start) * 1e-6;
  return Status::OK();
}

}  // namespace mmdb
