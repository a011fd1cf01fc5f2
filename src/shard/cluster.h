#ifndef MMDB_SHARD_CLUSTER_H_
#define MMDB_SHARD_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "util/status.h"

namespace mmdb::shard {

/// Cluster tuning knobs. Every shard is a full Database (own virtual
/// clock, log, checkpoint disk, recovery machinery); the cluster layers
/// hash routing, two-phase commit, and crash orchestration on top,
/// driving all shards' work as events on one shared EventScheduler.
struct ClusterOptions {
  uint32_t shards = 4;
  /// Per-shard admission width: how many coordinated transactions may be
  /// in flight at one shard simultaneously. The shard's CPU is still the
  /// paper's single main processor — workers overlap *waiting* (network
  /// round-trips of 2PC), not instructions, exactly like the executor's
  /// cooperative workers overlap I/O.
  uint32_t workers_per_shard = 8;
  /// Global key space, preloaded as {key, 0} rows round-robined over the
  /// shards by ShardOf at Init().
  uint64_t keys = 1 << 14;
  uint64_t seed = 1;
  net::LinkParams link;
  /// Base per-shard DatabaseOptions. txn_workers is forced to 1 (the
  /// cluster serializes each shard's local work itself) and
  /// telemetry_bucket_ns is overridden from the cluster's value.
  DatabaseOptions db;
  /// Coordinator-side vote-collection timeout: votes still missing when
  /// it fires count as NO (a crashed participant cannot vote).
  uint64_t vote_timeout_ns = 1'000'000;
  /// Participant-side in-doubt poll interval: a prepared transaction
  /// whose decision has not arrived asks its coordinator for the
  /// outcome, and keeps asking until one side answers.
  uint64_t inquiry_timeout_ns = 2'000'000;
  /// Poll budget per prepared entry, so a coordinator that never comes
  /// back cannot keep the event loop alive forever. The entry (and its
  /// blocked keys) survives exhaustion — conservative, never wrong.
  uint32_t max_inquiries = 4096;
  uint64_t telemetry_bucket_ns = 1'000'000;
};

/// One participant-side prepare journal row ("p2c" relation): enough to
/// either finalize (delete the row) or compensate (restore old_value)
/// after any crash. epoch/csn are the shard's group-commit frontier
/// when the prepare was applied (zeros with a single log stream).
struct JournalRow {
  uint64_t gid = 0;
  uint32_t coord = 0;
  int64_t key = 0;
  int64_t old_value = 0;
  uint32_t epoch = 0;
  uint64_t csn = 0;
};

/// A fleet of N Database shards behind a deterministic simulated
/// network, with cross-shard transactions under two-phase commit with
/// presumed abort:
///
///   * routing — ShardOf(key) hashes the key to its owning shard; a
///     transaction's coordinator is the owner of its first key.
///   * 1PC fast path — a transaction whose keys all live on one shard
///     commits in a single local transaction (instant SLB commit).
///   * prepare — each participant applies its updates and inserts one
///     "p2c" journal row per key {gid, coord, key, old_value, epoch,
///     csn} in a single local transaction; its keys stay blocked for
///     other writers until the outcome is known (the journal commit IS
///     the prepared-state durability: instant, in stable memory).
///   * commit point — the coordinator logs one "p2c_out" row {gid}
///     in a local transaction. Presumed abort: aborts log nothing.
///   * phase 2 — participants finalize (delete journal rows) on commit
///     or compensate (restore old values, delete journal rows) on
///     abort. Outcome rows are retained; they are the durable answer to
///     later in-doubt inquiries.
///   * recovery — a restarted shard rebuilds its prepared set by
///     scanning "p2c" (on-demand partition recovery pulls exactly those
///     partitions in), re-blocks the keys before any traffic touches
///     them, and polls each coordinator: outcome row present => commit,
///     absent and not actively deciding => presumed abort.
///
/// Per-shard crash and restart are fully independent: KillShard crashes
/// one Database and drops its in-flight messages; the rest of the fleet
/// keeps serving (transactions touching the dead shard abort fast), and
/// the restarted shard catches up via its own on-demand + background-
/// sweep machinery while traffic flows.
class Cluster {
 public:
  /// Client completion: (gid, committed, virtual completion time).
  using TxnDone = std::function<void(uint64_t gid, bool committed,
                                     uint64_t now_ns)>;
  /// Protocol-step hook, fired at named points ("2pc.prepare.applied",
  /// "2pc.outcome.logged", ...) with the shard the step executed on.
  /// Hooks fire only between local transactions, so a hook may call
  /// KillShardNow(shard) — the cluster-mode crash explorer does exactly
  /// that at every step.
  using StepHook = std::function<void(const std::string& step,
                                      uint32_t shard, uint64_t gid)>;

  explicit Cluster(ClusterOptions opts);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates the per-shard relations (kv, p2c, p2c_out + hash index on
  /// p2c_out.gid), preloads the key space, checkpoints everything, and
  /// aligns the shard clocks.
  Status Init();

  const ClusterOptions& options() const { return opts_; }
  uint32_t ShardOf(int64_t key) const;

  /// Schedules a multi-key read-modify-write transaction (each key's
  /// value += delta) arriving at virtual time `at_ns`. The coordinator
  /// is the owner of keys[0]. Returns the transaction's gid.
  uint64_t Submit(std::vector<int64_t> keys, int64_t delta, uint64_t at_ns,
                  TxnDone done = nullptr);

  /// Drains the event loop (arrivals, network, timers, sweeps).
  Status Run();

  /// Schedules a restart of one shard at `at_ns`.
  void ScheduleRestart(uint32_t s, uint64_t at_ns);

  /// Immediate forms, callable from a step hook or between Run()s.
  /// KillShardNow crashes the Database, drops the shard's in-flight
  /// messages (new incarnation), fails its queued admissions, and
  /// forgets machines it coordinated (their gids land in lost_gids —
  /// ground truth for them is the durable p2c_out).
  void KillShardNow(uint32_t s, uint64_t now_ns);
  /// Restart + prepared-set rebuild + in-doubt resolution + background
  /// sweep events. The shard accepts traffic again when this returns.
  Status RestartShardNow(uint32_t s, uint64_t now_ns);

  void SetStepHook(StepHook h) { step_hook_ = std::move(h); }

  // --- introspection ----------------------------------------------------------
  Database* shard_db(uint32_t s) { return shards_[s]->db.get(); }
  net::NetworkModel& network() { return *net_; }
  sim::EventScheduler& scheduler() { return sched_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  bool shard_up(uint32_t s) const { return shards_[s]->up; }
  uint64_t committed_total() const { return committed_; }
  uint64_t aborted_total() const { return aborted_; }
  /// Gids whose coordinator crashed mid-protocol: their client callback
  /// never fired and their true outcome is decided by the coordinator's
  /// durable outcome log (OutcomeLogged) — or, for the 1PC fast path,
  /// by which side of the local commit the crash landed on.
  const std::vector<uint64_t>& lost_gids() const { return lost_gids_; }
  /// Latest virtual time across all shard clocks.
  uint64_t max_now_ns() const;

  /// Reads a key's current value through its owning shard (the shard
  /// must be up). Runs a local read transaction.
  Result<int64_t> ReadKey(int64_t key);
  /// True if shard s's outcome log contains gid (committed under
  /// presumed abort).
  Result<bool> OutcomeLogged(uint32_t s, uint64_t gid);
  /// Scans shard s's prepare journal.
  Status ScanJournal(uint32_t s, std::vector<JournalRow>* out);
  size_t prepared_count(uint32_t s) const {
    return shards_[s]->prepared.size();
  }
  size_t blocked_keys(uint32_t s) const {
    return shards_[s]->blocked.size();
  }
  size_t machines_in_flight() const { return machines_.size(); }

 private:
  struct JournalEntry {
    int64_t key;
    int64_t old_value;
    EntityAddr addr;  // journal row's address, for finalize/compensate
  };
  /// Participant-side prepared transaction (volatile; rebuilt from the
  /// "p2c" journal at restart).
  struct Prepared {
    uint32_t coord = 0;
    uint64_t inquiry_gen = 0;
    uint32_t inquiries = 0;
    std::vector<JournalEntry> rows;
  };
  struct Shard {
    std::unique_ptr<Database> db;
    bool up = true;
    /// key -> row address; addresses are stable across crash/restart.
    std::unordered_map<int64_t, EntityAddr> kv_addr;
    uint32_t active = 0;               // admitted coordinated txns
    std::deque<uint64_t> admit_queue;  // gids waiting for a worker slot
    std::map<uint64_t, Prepared> prepared;
    std::set<int64_t> blocked;
    uint64_t next_inquiry_gen = 1;
  };
  enum class MachineState : uint8_t { kPending, kQueued, kActive };
  /// Coordinator-side transaction machine (volatile: dies with its
  /// coordinator; participants then resolve via the durable logs).
  struct Machine {
    uint64_t gid = 0;
    uint32_t coord = 0;
    int64_t delta = 0;
    uint64_t submit_ns = 0;
    bool cross = false;
    MachineState state = MachineState::kPending;
    std::vector<int64_t> keys;
    std::map<uint32_t, std::vector<int64_t>> groups;  // shard -> its keys
    uint32_t votes_pending = 0;
    bool vote_no = false;
    bool decided = false;
    std::vector<uint32_t> yes_voters;
    TxnDone done;
  };

  // Protocol events. Every handler re-resolves machines/prepared state
  // by gid: a step hook may have crashed a shard (erasing machines and
  // prepared entries) between any two steps.
  void ArriveEvent(uint64_t gid, uint64_t now_ns);
  void PumpAdmissions(uint32_t s, uint64_t now_ns);
  void StartMachine(uint64_t gid, uint64_t now_ns);
  void Run1Pc(uint64_t gid);
  void Run2Pc(uint64_t gid);
  void PrepareRecvEvent(uint32_t p, uint64_t gid, uint32_t coord,
                        std::vector<int64_t> keys, int64_t delta,
                        uint64_t now_ns);
  void VoteRecvEvent(uint64_t gid, uint32_t from, bool yes, uint64_t now_ns);
  void VoteTimeoutEvent(uint64_t gid, uint64_t now_ns);
  void Decide(uint64_t gid);
  void DecisionRecvEvent(uint32_t p, uint64_t gid, bool commit,
                         uint64_t now_ns);
  void InquiryTimerEvent(uint32_t p, uint64_t gid, uint64_t gen,
                         uint64_t now_ns);
  void ResolveRecvEvent(uint32_t coord, uint64_t gid, uint32_t from,
                        uint64_t now_ns);
  void OutcomeRecvEvent(uint32_t p, uint64_t gid, bool commit,
                        uint64_t now_ns);
  void SweepEvent(uint32_t s, uint64_t now_ns);

  /// Applies one participant's prepare in a local transaction; returns
  /// the YES/NO vote. YES registers the prepared entry, blocks the keys
  /// and arms the inquiry timer.
  bool PrepareLocal(uint32_t p, uint64_t gid, uint32_t coord,
                    const std::vector<int64_t>& keys, int64_t delta,
                    uint64_t now_ns);
  void FinalizeLocal(uint32_t p, uint64_t gid);
  void CompensateLocal(uint32_t p, uint64_t gid);
  void ResolvePrepared(uint32_t p, uint64_t gid, bool commit);
  void FinishMachine(uint64_t gid, bool committed, uint64_t now_ns);
  void ScheduleInquiry(uint32_t p, uint64_t gid, uint64_t at_ns);

  /// Fires the step hook, then reports whether the shard survived it.
  bool StepAlive(const char* step, uint32_t s, uint64_t gid);
  /// Begin/ops/Commit helper on shard s (aborts on op failure).
  Status LocalTxn(uint32_t s,
                  const std::function<Status(Database*, Transaction*)>& fn);

  ClusterOptions opts_;
  sim::EventScheduler sched_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<net::NetworkModel> net_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, Machine> machines_;
  uint64_t next_gid_ = 1;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  std::vector<uint64_t> lost_gids_;
  StepHook step_hook_;
  bool initialized_ = false;

  obs::Counter* m_committed_ = nullptr;
  obs::Counter* m_aborted_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Counter* m_prepares_ = nullptr;
  obs::Counter* m_votes_no_ = nullptr;
  obs::Counter* m_outcomes_ = nullptr;
  obs::Counter* m_finalizes_ = nullptr;
  obs::Counter* m_compensations_ = nullptr;
  obs::Counter* m_inquiries_ = nullptr;
  obs::CounterSeries* m_commit_rate_ = nullptr;
  obs::LogSketch* m_latency_single_ = nullptr;
  obs::LogSketch* m_latency_cross_ = nullptr;
};

}  // namespace mmdb::shard

#endif  // MMDB_SHARD_CLUSTER_H_
