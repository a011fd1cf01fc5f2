#ifndef MMDB_CORE_VERSION_STORE_H_
#define MMDB_CORE_VERSION_STORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "storage/addr.h"

namespace mmdb {

/// Multi-version store for lock-free snapshot reads.
///
/// The partitions always hold the *current* (possibly uncommitted) image
/// of every entity — 2PL writers mutate in place exactly as before. The
/// VersionStore keeps, per entity address, a chain of *committed* prior
/// images so that a read-only transaction can resolve any address to the
/// newest version with csn <= its snapshot without touching the lock
/// manager. Commit order is the version order: in multi-stream mode the
/// group-commit (epoch, csn) stamps from PR 6 are reused verbatim; in
/// single-stream mode the Database feeds a monotone commit counter
/// through the same csn slot.
///
/// Chain lifecycle:
///   - Every write captures the committed pre-image as a csn-0 "base"
///     entry the first time it touches an address (NoteWrite). This is
///     unconditional — a snapshot may begin *after* the write but before
///     the commit, and by then the pre-image is gone from the partition.
///   - Commit either appends the post-image stamped with the commit
///     (epoch, csn) (when snapshots are live) or drops the chain (when
///     none are — the partition alone is then the truth).
///   - Abort / statement rollback restores the partition via the UNDO
///     space; here we just drop chains that hold nothing but the base
///     (OnUndone), since the partition again equals the committed state.
///
/// Invariant: if a chain exists, its entries cover every snapshot csn
/// (the base sorts below all real csns, which start at 1); if no chain
/// exists, the partition image at that address is committed.
///
/// The store lives inside Database::Volatile: a crash destroys it, which
/// is exactly right — recovery rebuilds only committed latest versions
/// from the REDO log (Sauer & Härder's REDO-only rule), and restarted
/// snapshot readers begin from fresh, post-recovery snapshots.
class VersionStore {
 public:
  struct Version {
    uint64_t csn = 0;     // 0 = base (pre-image); committed csns start at 1
    uint32_t epoch = 0;   // group-commit epoch (0 in single-stream mode)
    bool deleted = false; // entity absent at this version
    std::vector<uint8_t> data;
  };

  struct Chain {
    std::vector<Version> versions;  // ascending csn
    // An active transaction has written this address: the partition slot
    // holds uncommitted bytes, so the chain must survive pruning even
    // when no snapshot is live (a future snapshot needs the pre-image).
    bool dirty = false;
  };

  void AttachMetrics(obs::MetricsRegistry* reg) {
    m_live_ = reg->gauge("mvcc.versions_live", obs::Scope::kVolatile);
    m_pruned_ = reg->counter("mvcc.pruned_total", obs::Scope::kVolatile);
    m_snapshot_reads_ =
        reg->counter("txn.snapshot_reads", obs::Scope::kVolatile);
    m_live_->Set(static_cast<double>(live_));
  }

  // ---- Snapshot registry -------------------------------------------------

  void BeginSnapshot(uint64_t csn) { snapshots_.insert(csn); }
  void EndSnapshot(uint64_t csn) {
    auto it = snapshots_.find(csn);
    if (it != snapshots_.end()) snapshots_.erase(it);
  }
  bool tracking() const { return !snapshots_.empty(); }
  uint64_t oldest_snapshot() const { return *snapshots_.begin(); }

  // ---- Write-side hooks --------------------------------------------------

  /// First-write capture: if no chain exists for `addr`, record the
  /// committed pre-image (`deleted` = true for an insert into a free
  /// slot) as the csn-0 base and mark the chain dirty. If a chain
  /// already exists its newest entry *is* the committed pre-image, so
  /// only the dirty mark is needed.
  void NoteWrite(const EntityAddr& addr, bool deleted,
                 std::span<const uint8_t> pre);

  /// Commit with live snapshots: append the committed post-image.
  void Install(const EntityAddr& addr, uint32_t epoch, uint64_t csn,
               bool deleted, std::span<const uint8_t> data);

  /// Commit with no live snapshots: the partition is the only truth.
  void Drop(const EntityAddr& addr);

  /// Abort or statement rollback undid the writes to these addresses:
  /// the partition again holds the committed image. Chains that carry
  /// only the base are redundant and dropped; chains with committed
  /// history stay but are no longer dirty.
  void OnUndone(const EntityAddr& addr);

  // ---- Read-side ---------------------------------------------------------

  /// Newest version with csn <= snapshot, or nullptr if this address has
  /// no chain (read the partition: it is committed). The pointer is
  /// valid until the next mutating call.
  const Version* Resolve(const EntityAddr& addr, uint64_t snapshot) const;

  /// All chains in one partition resolved at `snapshot`, keyed by slot.
  /// Slots whose chain has no entry <= snapshot are omitted.
  std::map<uint32_t, const Version*> ResolvePartition(
      const PartitionId& pid, uint64_t snapshot) const;

  void NoteSnapshotRead(uint64_t n = 1) {
    if (m_snapshot_reads_ != nullptr) m_snapshot_reads_->Add(n);
  }

  // ---- Reclamation -------------------------------------------------------

  /// Epoch-based reclaim: drop every version superseded by a later one
  /// whose csn is still <= the oldest live snapshot, and drop clean
  /// chains entirely once their single remaining version is visible to
  /// every snapshot (the partition image is identical then). Idempotent;
  /// returns the number of versions reclaimed.
  uint64_t Prune();

  size_t versions_live() const { return live_; }
  size_t chains() const { return chains_.size(); }

 private:
  using Key = std::pair<uint64_t, uint32_t>;  // (PartitionId::Pack, slot)
  static Key MakeKey(const EntityAddr& a) {
    return {a.partition.Pack(), a.slot};
  }

  void BumpLive(int64_t delta) {
    live_ = static_cast<size_t>(static_cast<int64_t>(live_) + delta);
    if (m_live_ != nullptr) m_live_->Set(static_cast<double>(live_));
  }

  std::map<Key, Chain> chains_;
  std::multiset<uint64_t> snapshots_;
  size_t live_ = 0;  // total versions across all chains

  obs::Gauge* m_live_ = nullptr;
  obs::Counter* m_pruned_ = nullptr;
  obs::Counter* m_snapshot_reads_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_CORE_VERSION_STORE_H_
