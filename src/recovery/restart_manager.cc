#include "recovery/restart_manager.h"

#include <unordered_set>

#include "core/database.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb {

namespace {
constexpr uint32_t kRootMagic = 0x4D52424B;  // "MRBK"

struct RootEntry {
  PartitionId pid;
  uint64_t ckpt_page;
  uint64_t ckpt_slot;
};

Status ParseRoot(std::span<const uint8_t> root, SegmentId* catalog_segment,
                 uint32_t* partition_size, std::vector<RootEntry>* entries) {
  // The block ends with a CRC over everything before it; a stable-memory
  // bit flip anywhere in the copy is caught here, and the caller falls
  // back to the other stable copy.
  if (root.size() < 4) {
    return Status::Corruption("truncated catalog root block");
  }
  size_t body = root.size() - 4;
  uint32_t stored_crc;
  {
    wire::Reader tail(root.subspan(body));
    MMDB_CHECK(tail.GetU32(&stored_crc));
  }
  if (Crc32(root.data(), body) != stored_crc) {
    return Status::Corruption("catalog root block checksum mismatch");
  }
  wire::Reader r(root.subspan(0, body));
  uint32_t magic, count;
  if (!r.GetU32(&magic) || !r.GetU32(catalog_segment) ||
      !r.GetU32(partition_size) || !r.GetU32(&count)) {
    return Status::Corruption("truncated catalog root block");
  }
  if (magic != kRootMagic) {
    return Status::Corruption("catalog root block has bad magic");
  }
  entries->clear();
  for (uint32_t i = 0; i < count; ++i) {
    RootEntry e;
    if (!r.GetU32(&e.pid.segment) || !r.GetU32(&e.pid.number) ||
        !r.GetU64(&e.ckpt_page) || !r.GetU64(&e.ckpt_slot)) {
      return Status::Corruption("truncated catalog root entry");
    }
    entries->push_back(e);
  }
  return Status::OK();
}

}  // namespace

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
  if (root.empty() && root2.empty()) {
    // The database never had catalog data: a fresh start.
    db.v_->catalog_segment = db.v_->pm.AllocateSegment();
    db.crashed_ = false;
    db.recovery_progress_.BeginTracking(0, db.clock_.now_ns());
    return Status::OK();
  }
  SegmentId catalog_segment = 0;
  uint32_t partition_size = 0;
  std::vector<RootEntry> entries;
  // The root is stored twice (SLB + SLT). Prefer the SLB copy but fall
  // back to the SLT copy whenever the first fails to *parse* (checksum,
  // magic, truncation), not only when it is missing; surface Corruption
  // only when both copies are bad.
  Status ps = root.empty()
                  ? Status::Corruption("missing SLB catalog root copy")
                  : ParseRoot(root, &catalog_segment, &partition_size,
                              &entries);
  if (!ps.ok()) {
    Status ps2 = root2.empty()
                     ? Status::Corruption("missing SLT catalog root copy")
                     : ParseRoot(root2, &catalog_segment, &partition_size,
                                 &entries);
    if (!ps2.ok()) {
      return Status::Corruption("catalog root bad in both stable copies: " +
                                ps.ToString() + " / " + ps2.ToString());
    }
  }
  if (partition_size != db.opts_.partition_size_bytes) {
    return Status::Corruption("partition size changed across restart");
  }
  db.v_->catalog_segment = catalog_segment;
  db.v_->pm.BumpCounters(catalog_segment + 1,
                         PartitionId{catalog_segment, 0});

  // Phase 1: restore the catalogs right away (paper §2.5), with all
  // recovery lanes working on the catalog partitions concurrently.
  std::vector<Database::RecoveryWorkItem> catalog_work;
  for (const RootEntry& e : entries) {
    catalog_work.push_back(Database::RecoveryWorkItem{e.pid, e.ckpt_page});
  }
  MMDB_RETURN_IF_ERROR(db.RecoverPartitionsParallel(
      catalog_work, RecoverySource::kRestart, report));
  for (const RootEntry& e : entries) {
    PartitionDescriptor d;
    d.id = e.pid;
    d.checkpoint_page = e.ckpt_page;
    d.checkpoint_slot = e.ckpt_slot;
    d.resident = true;
    db.v_->catalog_partitions.push_back(d);
    db.v_->pm.BumpCounters(catalog_segment + 1, e.pid);
  }
  report->catalog_partitions = entries.size();

  // Rebuild the in-memory catalog and disk allocation map from the
  // recovered catalog entities.
  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  for (const PartitionDescriptor& cd : db.v_->catalog_partitions) {
    auto pr = db.v_->pm.Get(cd.id);
    if (!pr.ok()) return pr.status();
    Partition* p = pr.value();
    for (uint32_t s = 0; s < p->slot_count(); ++s) {
      if (!p->SlotUsed(s)) continue;
      auto bytes = p->Read(s);
      if (!bytes.ok()) return bytes.status();
      rows.emplace_back(EntityAddr{cd.id, s},
                        std::vector<uint8_t>(bytes.value().begin(),
                                             bytes.value().end()));
    }
  }
  db.v_->disk_map = DiskAllocationMap(
      db.opts_.checkpoint_disk_slots,
      db.opts_.partition_size_bytes / db.opts_.log_page_bytes);
  MMDB_RETURN_IF_ERROR(db.v_->catalog.Rebuild(rows, &db.v_->disk_map));

  // Reconcile allocation counters so new segments/partitions never
  // collide with recovered ones.
  db.v_->pm.BumpCounters(db.v_->catalog.max_segment_seen() + 1,
                         PartitionId{catalog_segment, 0});
  std::unordered_set<PartitionId> described;
  for (const PartitionDescriptor& cd : db.v_->catalog_partitions) {
    described.insert(cd.id);
  }
  for (const RelationInfo* rc : db.v_->catalog.AllRelations()) {
    for (const PartitionDescriptor& d : rc->partitions) {
      db.v_->pm.BumpCounters(d.id.segment + 1, d.id);
      described.insert(d.id);
    }
    for (const std::string& iname : rc->index_names) {
      auto idx = db.v_->catalog.GetIndex(iname);
      if (!idx.ok()) return idx.status();
      for (const PartitionDescriptor& d : idx.value()->partitions) {
        db.v_->pm.BumpCounters(d.id.segment + 1, d.id);
        described.insert(d.id);
      }
    }
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

  // Catalogs are usable: fix the ready-fraction denominator at the data
  // partitions now awaiting recovery (on-demand, background, or the
  // kFullReload sweep below — each path reports back to the tracker).
  uint64_t data_partitions = 0;
  for (const RelationInfo* rc : db.v_->catalog.AllRelations()) {
    for (const PartitionDescriptor& d : rc->partitions) {
      if (!d.resident) ++data_partitions;
    }
    for (const std::string& iname : rc->index_names) {
      auto idx = db.v_->catalog.GetIndex(iname);
      if (!idx.ok()) return idx.status();
      for (const PartitionDescriptor& d : idx.value()->partitions) {
        if (!d.resident) ++data_partitions;
      }
    }
  }
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
