#ifndef MMDB_FAULT_CRASH_EXPLORER_H_
#define MMDB_FAULT_CRASH_EXPLORER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "fault/fault.h"

namespace mmdb::fault {

/// Crash-schedule exploration options. The explorer runs one scripted
/// workload per crash point; a point is (site, nth visit). A probe run
/// with an empty armed plan counts how often each site is visited, then
/// the sweep subsamples up to `max_points_per_site` visits per site with
/// an even stride, so high-frequency sites (stable-memory accesses) stay
/// bounded while every rare site (checkpoint track writes, restart
/// applies) is covered exhaustively. The seed picks which visits a
/// subsampled site keeps: the first is visit 1 + (seed - 1) mod stride.
struct ExplorerOptions {
  uint64_t seed = 1;
  std::vector<Site> sites = {
      Site::kDiskWrite,       Site::kDiskRead,
      Site::kStableMemAccess, Site::kSlbFlush,
      Site::kCheckpointTrackWrite, Site::kRestartApply,
  };
  uint32_t max_points_per_site = 48;
  /// Record Perfetto spans for each crash-recover cycle in the trial
  /// databases.
  bool trace = false;
  /// 0 or 1: the serial scripted workload. >= 2: a concurrent workload —
  /// that many executor workers interleave contending transactions
  /// (shared hot rows under the wait-queue lock policy), and the
  /// expected-state ledger is derived from the executor's commit order.
  uint32_t txn_workers = 0;
  /// >= 2: partitioned parallel logging with epoch group commit. The
  /// durability invariant weakens per the group-commit contract: a
  /// Commit acknowledged OK is durable only once its epoch is fenced on
  /// every stream, so the expected state folds the per-commit epoch
  /// ledger against the restart's reported epoch frontier.
  uint32_t log_streams = 1;
  /// With txn_workers >= 2: interleave read-only snapshot transactions
  /// (full scans plus point reads on the MVCC read path) into every
  /// executor wave, so crashes land while snapshots are live and version
  /// installs are in flight. Adds the MVCC invariants to every point: no
  /// version survives the restart, a snapshot reader served right after
  /// recovery sees exactly the recovered committed state, and version
  /// pruning is idempotent when the reclaimer resumes.
  bool mvcc_readers = false;
  /// The trial databases' restart policy and recovery lanes. Under
  /// kOnDemand a restart brings back the catalogs only: the invariant
  /// checks fault the relation and its T-tree in (one whole-index fault),
  /// and BackgroundRecoveryStep brings back the rest before the
  /// partition images are compared.
  RestartPolicy restart_policy = RestartPolicy::kFullReload;
  uint32_t recovery_parallelism = 2;
};

struct ExplorerReport {
  uint64_t points_explored = 0;
  uint64_t crashes_delivered = 0;
  uint64_t violations = 0;
  /// One line per violated invariant: "site=<name> visit=<n> seed=<s>:
  /// <what failed>" — everything needed to reproduce via RunPoint.
  std::vector<std::string> failures;
  /// Per-site visit counts observed by the probe run.
  uint64_t probe_visits[kSiteCount] = {};
  /// Every crash point run, in sweep order.
  std::vector<std::pair<Site, uint64_t>> explored;
};

/// Enumerates crash points across a scripted workload (transactions with
/// inserts/updates/deletes, forced checkpoints, a clean crash/restart)
/// and, for each point, re-runs the workload with an injected crash,
/// recovers, and asserts the recovery invariants:
///
///  * durability  — every transaction whose Commit returned OK is fully
///    present after recovery (with log_streams >= 2: every OK commit
///    whose epoch the restart frontier covers — an epoch unacknowledged
///    on any stream at the crash is discarded on every stream, always as
///    a suffix of the commit order);
///  * atomicity   — the at-most-one transaction whose Commit returned the
///    injected-crash fault is either fully present or fully absent, and
///    transactions that never committed are absent;
///  * consistency — indexes agree with the base relation;
///  * determinism — when the whole workload committed before the crash,
///    recovered partitions are byte-identical to a no-crash oracle run;
///  * usability   — the recovered database accepts new transactions.
///
/// Everything is deterministic from `ExplorerOptions::seed`: a failing
/// point is reproduced by RunPoint(site, visit) under the same seed.
class CrashExplorer {
 public:
  explicit CrashExplorer(ExplorerOptions opts) : opts_(opts) {}

  /// Probe + full sweep. Returns non-OK only on infrastructure errors
  /// (the probe itself failing); invariant violations are reported via
  /// `report->violations` / `report->failures`.
  Status Run(ExplorerReport* report);

  /// Re-runs a single crash point. `*failure` is empty when every
  /// invariant held, else the violation description.
  Status RunPoint(Site site, uint64_t visit, std::string* failure);

 private:
  /// Expected-state ledger maintained while the script runs.
  struct Ledger {
    enum class Ddl { kAbsent, kCommitted, kInDoubt };
    Ddl relation = Ddl::kAbsent;
    Ddl index = Ddl::kAbsent;
    /// Rows of every transaction whose Commit returned OK.
    std::map<int64_t, int64_t> committed;
    std::map<int64_t, EntityAddr> addrs;
    /// Partitioned-log mode: one entry per OK'd row commit, in commit
    /// order (epochs nondecreasing), so the expected set can be refolded
    /// against the restart's epoch frontier — the group-commit discard
    /// is always a suffix of this sequence.
    struct EpochEntry {
      uint32_t epoch = 0;
      std::map<int64_t, int64_t> ups;
      std::vector<int64_t> dels;
    };
    std::vector<EpochEntry> epoch_seq;
    /// Delta of the at-most-one transaction whose Commit returned the
    /// injected fault (durable iff the SLB commit preceded the crash —
    /// and, in partitioned-log mode, its epoch is inside the frontier).
    bool has_indoubt = false;
    std::map<int64_t, int64_t> indoubt_upserts;
    std::vector<int64_t> indoubt_deletes;
    uint32_t indoubt_epoch = 0;
    /// Every phase-B transaction committed (crash landed at or after the
    /// scripted checkpoint/crash phase).
    bool workload_complete = false;
  };

  Status RunPointImpl(Site site, uint64_t visit, std::string* failure,
                      uint64_t* crashes_delivered);
  DatabaseOptions TrialOptions() const;
  /// Dispatches to the serial script or the concurrent workload.
  Status RunWorkload(Database* db, Ledger* led) const;
  /// The scripted workload. Returns the first fault status (or OK).
  static Status RunScript(Database* db, Ledger* led);
  /// The concurrent variant: contending transaction scripts run on
  /// txn_workers executor lanes; the ledger is rebuilt from the commit
  /// order (each script's effect is state-independent, so commit order
  /// alone determines the expected rows).
  Status RunConcurrentScript(Database* db, Ledger* led) const;
  /// Delivers a pending injected crash and restarts: to full residency
  /// under kFullReload, to the catalogs under kOnDemand.
  static Status RecoverFully(Database* db, uint64_t* crashes);
  /// Byte images of every partition of "r" and its index.
  static Status CollectImages(Database* db,
                              std::map<uint64_t, std::vector<uint8_t>>* out);
  Status CheckInvariants(Database* db, const Ledger& led,
                         std::string* failure) const;

  ExplorerOptions opts_;
  /// No-crash oracle, captured by the probe.
  std::map<int64_t, int64_t> oracle_rows_;
  std::map<uint64_t, std::vector<uint8_t>> oracle_images_;
  bool have_oracle_ = false;
};

}  // namespace mmdb::fault

#endif  // MMDB_FAULT_CRASH_EXPLORER_H_
