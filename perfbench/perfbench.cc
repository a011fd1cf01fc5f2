// The repository benchmark: four workloads of the modelled 1987 machine,
// each run end to end in one single-threaded process, reporting both
// clocks. See README.md in this directory for the workloads, sizes and
// metric definitions.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// A run repeats one round until --seconds of wall-clock time have passed
// (at least kMinRounds rounds). A round builds a fresh database, runs a
// measured window of closed-loop traffic, a lead-in, a crash, a restart
// and post-crash traffic until every partition is resident again, and
// checks the TP1 invariant after the window and after the restart.
// Every round of a run uses the same seed, so its virtual-time results
// must be identical: the run checks that, and reports them once. Host
// results are medians over the rounds after round 0, which is a warm-up.
//
// The benchmark only calls public functions and reads public counters;
// with --trace 1 it also records host-time spans around those calls and
// writes them as a Chrome trace.

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "obs/timeseries.h"
#include "txn/executor.h"
#include "workload.h"

namespace perfbench {
namespace {

using mmdb::ConcurrentExecutor;
using mmdb::Database;
using mmdb::DatabaseOptions;
using mmdb::DatabaseStats;
using mmdb::EntityAddr;
using mmdb::IndexType;
using mmdb::Result;
using mmdb::RestartPolicy;
using mmdb::ScriptOutcome;
using mmdb::Status;
using mmdb::Transaction;
using mmdb::Tuple;
using mmdb::TxnOp;
using mmdb::TxnScript;
using mmdb::bench::ReadMostlyPlan;

constexpr int kMinRounds = 3;
constexpr int64_t kInitialBalance = 1000;  // mmdb::bench::Populate's value
constexpr double kUserBytesPerRow = 24;    // three int64 columns

const std::string kAccount = "account";
const std::string kTeller = "teller";
const std::string kBranch = "branch";
const std::string kHistory = "history";
const std::string kAccountIndex = "account_id";

SpanRecorder g_spans;

/// One workload. Every workload runs the same round; the fields say
/// which layers it loads.
struct Spec {
  const char* name = "";
  int64_t accounts = 0;
  int64_t tellers = 0;
  int64_t branches = 0;
  int cold_relations = 0;  // relations no transaction touches
  int64_t cold_rows = 0;
  uint32_t workers = 1;
  uint32_t log_streams = 1;
  uint32_t recovery_lanes = 1;
  IndexType account_index = IndexType::kLinearHash;
  int64_t hot_accounts = 0;  // keys drawn from the first n accounts; 0 = all
  double read_fraction = 0;
  size_t scan_every = 0;  // every n-th reader also scans; 0 = never
  size_t window_txns = 0;
  size_t leadin_txns = 0;
  size_t post_txns = 0;
  uint64_t n_update = 0;          // update-count checkpoint threshold
  uint64_t log_window_pages = 0;  // log window; small windows force age ckpts
  RestartPolicy restart_policy = RestartPolicy::kOnDemand;
  bool sweep = false;  // background sweep on the unified loop after restart
  bool measure_post = false;  // measured window is the post-crash traffic
  // Checkpoint every partition before the lead-in, so the crash finds
  // every log chain as long as the lead-in made it rather than wherever
  // its checkpoint cycle happened to be.
  bool checkpoint_before_leadin = false;
};

constexpr uint64_t kNoCheckpoints = 1ull << 30;

const Spec kSpecs[] = {
    {.name = "tp1_steady",
     .accounts = 100'000, .tellers = 1'000, .branches = 1'000,
     .workers = 32, .log_streams = 1, .recovery_lanes = 1,
     .account_index = IndexType::kLinearHash,
     .read_fraction = 0.05,
     .window_txns = 24'000, .leadin_txns = 2'000, .post_txns = 4'000,
     .n_update = 1'000, .log_window_pages = 256,
     .restart_policy = RestartPolicy::kOnDemand, .sweep = true,
     .checkpoint_before_leadin = true},
    {.name = "ondemand_restart",
     .accounts = 50'000, .tellers = 500, .branches = 50,
     .cold_relations = 12, .cold_rows = 5'000,
     .workers = 32, .log_streams = 1, .recovery_lanes = 4,
     .account_index = IndexType::kLinearHash, .hot_accounts = 5'000,
     .read_fraction = 0.4,
     .window_txns = 6'000, .leadin_txns = 1'000, .post_txns = 3'000,
     .n_update = kNoCheckpoints, .log_window_pages = kNoCheckpoints,
     .restart_policy = RestartPolicy::kOnDemand, .sweep = true,
     .measure_post = true},
    {.name = "reload_4stream",
     .accounts = 50'000, .tellers = 500, .branches = 50,
     .workers = 32, .log_streams = 4, .recovery_lanes = 4,
     .account_index = IndexType::kLinearHash,
     .read_fraction = 0.2,
     .window_txns = 8'000, .leadin_txns = 1'000, .post_txns = 6'000,
     .n_update = 1'000, .log_window_pages = kNoCheckpoints,
     .restart_policy = RestartPolicy::kFullReload,
     .measure_post = true},
    {.name = "read_mostly",
     .accounts = 8'192, .tellers = 10, .branches = 1,
     .workers = 8, .log_streams = 1, .recovery_lanes = 1,
     .account_index = IndexType::kTTree,
     .read_fraction = 0.95, .scan_every = 8,
     .window_txns = 24'000, .leadin_txns = 2'000, .post_txns = 2'000,
     .n_update = 1'000, .log_window_pages = kNoCheckpoints,
     .restart_policy = RestartPolicy::kFullReload},
};

/// The seed also picks the database size: each row count grows by up to
/// 1/16, so index shapes, partition counts and scan lengths differ from
/// seed to seed as they would between real databases.
Spec SizedBySeed(Spec spec, uint64_t seed) {
  mmdb::Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (int64_t* rows : {&spec.accounts, &spec.tellers, &spec.branches,
                        &spec.cold_rows}) {
    if (*rows > 0) *rows += static_cast<int64_t>(rng.Uniform(*rows / 16 + 1));
  }
  return spec;
}

/// Every field of the hardware and cost model the results depend on, set
/// here rather than taken from library defaults, so a virtual-time change
/// can only come from the algorithms.
DatabaseOptions ModelOptions(const Spec& spec) {
  DatabaseOptions o;
  o.partition_size_bytes = 48 * 1024;
  o.log_page_bytes = 8 * 1024;
  o.slb_block_bytes = 2048;
  o.slb_capacity_bytes = 2 * 1024 * 1024;
  o.stable_memory_bytes = 16ull * 1024 * 1024;
  o.directory_entries = 8;
  o.log_window_pages = spec.log_window_pages;
  o.grace_pages = 64;
  o.n_update = spec.n_update;
  o.checkpoint_disk_slots = 8192;
  mmdb::sim::DiskParams disk;
  disk.page_size_bytes = 8 * 1024;
  disk.pages_per_track = 6;
  disk.avg_seek_ms = 8.0;
  disk.near_seek_ms = 2.0;
  disk.settle_ms = 0.5;
  disk.page_transfer_ms = 0.4;
  disk.track_rate_multiplier = 2.0;
  o.log_disk_params = disk;
  o.checkpoint_disk_params = disk;
  o.main_cpu_mips = 6.0;
  o.recovery_cpu_mips = 1.0;
  mmdb::analysis::Table2& c = o.costs;
  c.i_record_lookup = 20;
  c.i_copy_fixed = 3;
  c.i_copy_add = 0.125;
  c.i_write_init = 500;
  c.i_page_alloc = 100;
  c.i_page_update = 10;
  c.i_page_check = 10;
  c.i_process_lsn = 40;
  c.i_checkpoint = 40;
  c.s_log_record = 24;
  c.s_log_page = 8 * 1024;
  c.s_partition = 48 * 1024;
  c.n_update = static_cast<double>(spec.n_update);
  c.p_recovery_mips = 1.0;
  o.dml_instructions = 300;
  o.lock_instructions = 25;
  o.apply_instructions_per_record = 50;
  o.recovery_parallelism = spec.recovery_lanes;
  o.pipelined_recovery = true;
  o.restart_policy = spec.restart_policy;
  o.commit_mode = mmdb::CommitMode::kStableMemory;
  o.group_commit_txns = 8;
  o.audit_logging = true;
  o.audit_buffer_bytes = 64 * 1024;
  o.auto_pump_recovery = true;
  o.auto_run_checkpoints = true;
  o.txn_workers = spec.workers;
  o.enable_tracing = false;
  o.telemetry_bucket_ns = 1'000'000;
  o.ttree_node_capacity = 10;
  o.hash_initial_buckets = 8;
  o.hash_node_capacity = 8;
  o.log_streams = spec.log_streams;
  o.epoch_interval_ns = 100'000;
  return o;
}

void PrintConfig(const Spec& spec, const DatabaseOptions& o, uint64_t seed) {
  const auto& c = o.costs;
  const auto& d = o.log_disk_params;
  std::printf(
      "# config workload=%s seed=%llu accounts=%lld tellers=%lld "
      "branches=%lld cold=%dx%lld workers=%u streams=%u lanes=%u index=%s "
      "hot_accounts=%lld read_fraction=%.2f scan_every=%zu window=%zu leadin=%zu "
      "post=%zu restart=%s sweep=%d\n",
      spec.name, static_cast<unsigned long long>(seed),
      static_cast<long long>(spec.accounts),
      static_cast<long long>(spec.tellers),
      static_cast<long long>(spec.branches), spec.cold_relations,
      static_cast<long long>(spec.cold_rows), spec.workers, spec.log_streams,
      spec.recovery_lanes,
      spec.account_index == IndexType::kTTree ? "ttree" : "linear_hash",
      static_cast<long long>(spec.hot_accounts), spec.read_fraction, spec.scan_every, spec.window_txns,
      spec.leadin_txns, spec.post_txns,
      spec.restart_policy == RestartPolicy::kOnDemand ? "on_demand"
                                                      : "full_reload",
      spec.sweep ? 1 : 0);
  std::printf(
      "# model main_mips=%.1f recovery_mips=%.1f partition=%u log_page=%u "
      "slb_block=%u slb_capacity=%llu stable_memory=%llu directory=%u "
      "n_update=%llu log_window_pages=%llu grace=%llu ckpt_slots=%llu "
      "dml=%.0f lock=%.0f apply=%.0f epoch_ns=%llu bucket_ns=%llu\n",
      o.main_cpu_mips, o.recovery_cpu_mips, o.partition_size_bytes,
      o.log_page_bytes, o.slb_block_bytes,
      static_cast<unsigned long long>(o.slb_capacity_bytes),
      static_cast<unsigned long long>(o.stable_memory_bytes),
      o.directory_entries, static_cast<unsigned long long>(o.n_update),
      static_cast<unsigned long long>(o.log_window_pages),
      static_cast<unsigned long long>(o.grace_pages),
      static_cast<unsigned long long>(o.checkpoint_disk_slots),
      o.dml_instructions, o.lock_instructions,
      o.apply_instructions_per_record,
      static_cast<unsigned long long>(o.epoch_interval_ns),
      static_cast<unsigned long long>(o.telemetry_bucket_ns));
  std::printf(
      "# disk page=%u per_track=%u avg_seek_ms=%.1f near_seek_ms=%.1f "
      "settle_ms=%.1f page_transfer_ms=%.1f track_rate_x=%.1f (log and "
      "checkpoint disks)\n",
      d.page_size_bytes, d.pages_per_track, d.avg_seek_ms, d.near_seek_ms,
      d.settle_ms, d.page_transfer_ms, d.track_rate_multiplier);
  std::printf(
      "# table2 record_lookup=%.0f copy_fixed=%.0f copy_add=%.3f "
      "write_init=%.0f page_alloc=%.0f page_update=%.0f page_check=%.0f "
      "process_lsn=%.0f checkpoint=%.0f s_log_record=%.0f IRecordSort=%.3f\n",
      c.i_record_lookup, c.i_copy_fixed, c.i_copy_add, c.i_write_init,
      c.i_page_alloc, c.i_page_update, c.i_page_check, c.i_process_lsn,
      c.i_checkpoint, c.s_log_record, c.IRecordSort());
}

/// Host cost is the CPU time of this single-threaded process, so time it
/// spends descheduled on a shared machine does not count as the
/// simulator's cost.
double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Wall-clock time, for the run's --seconds budget only.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- database set-up -----------------------------------------------------------

struct Rig {
  std::unique_ptr<Database> db;
  std::vector<EntityAddr> tellers;
  std::vector<EntityAddr> branches;
  int64_t rows = 0;  // populated rows over all relations
};

Status Populate(Database* db, const std::string& rel, int64_t rows) {
  ScopedSpan span(&g_spans, "storage.populate");
  return mmdb::bench::Populate(db, rel, rows);
}

/// Populates `account` with keys 0..rows-1. With `shuffle` the keys are
/// inserted in a seeded random order, so the T-tree built over them has a
/// different shape for every seed. Hash-indexed workloads keep key order:
/// building a linear hash over about 50k keys inserted in random order
/// fails in the library today (`Full: partition cannot fit entity`, or
/// `Full: Stable Log Tail page budget exhausted`).
Status PopulateAccounts(Database* db, int64_t rows, uint64_t seed,
                        bool shuffle) {
  ScopedSpan span(&g_spans, "storage.populate");
  MMDB_RETURN_IF_ERROR(
      db->CreateRelation(kAccount, mmdb::bench::AccountSchema()));
  std::vector<int64_t> ids(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) ids[static_cast<size_t>(i)] = i;
  if (shuffle) {
    mmdb::Random rng(seed ^ 0xacc0ULL);
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.Uniform(i)]);
    }
  }
  // 100 rows per transaction, the same rows as mmdb::bench::Populate.
  for (size_t next = 0; next < ids.size();) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    for (int k = 0; k < 100 && next < ids.size(); ++k, ++next) {
      const int64_t id = ids[next];
      auto a = db->Insert(txn.value(), kAccount,
                          Tuple{id, kInitialBalance, id % 97});
      if (!a.ok()) return a.status();
    }
    MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  }
  return Status::OK();
}

Status GrabAddrs(Database* db, const std::string& rel,
                 std::vector<EntityAddr>* out) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  auto rows = db->Scan(txn.value(), rel);
  if (!rows.ok()) return rows.status();
  for (auto& [a, _] : rows.value()) out->push_back(a);
  return db->Commit(txn.value());
}

/// Everything a window needs before it starts: the relations, the index,
/// an initial checkpoint image, an empty sort backlog and no pending
/// checkpoint.
Status Setup(const Spec& spec, uint64_t seed, Rig* rig) {
  rig->db = std::make_unique<Database>(ModelOptions(spec));
  Database* db = rig->db.get();
  MMDB_RETURN_IF_ERROR(PopulateAccounts(
      db, spec.accounts, seed, spec.account_index == IndexType::kTTree));
  MMDB_RETURN_IF_ERROR(Populate(db, kTeller, spec.tellers));
  MMDB_RETURN_IF_ERROR(Populate(db, kBranch, spec.branches));
  MMDB_RETURN_IF_ERROR(
      db->CreateRelation(kHistory, mmdb::bench::AccountSchema()));
  for (int r = 0; r < spec.cold_relations; ++r) {
    MMDB_RETURN_IF_ERROR(Populate(db, "cold" + std::to_string(r), spec.cold_rows));
  }
  rig->rows = spec.accounts + spec.tellers + spec.branches +
              int64_t{spec.cold_relations} * spec.cold_rows;
  {
    ScopedSpan span(&g_spans, "index.build");
    MMDB_RETURN_IF_ERROR(
        db->CreateIndex(kAccountIndex, kAccount, "id", spec.account_index));
  }
  MMDB_RETURN_IF_ERROR(GrabAddrs(db, kTeller, &rig->tellers));
  MMDB_RETURN_IF_ERROR(GrabAddrs(db, kBranch, &rig->branches));
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  MMDB_RETURN_IF_ERROR(db->PumpRecovery());
  return db->RunCheckpoints();
}

// --- transactions ---------------------------------------------------------------

/// What the benchmark learns about one script from inside its operations.
struct ScriptSlot {
  bool is_read = false;
  uint64_t first_begin_ns = 0;  // begin of the first attempt
  bool scanned = false;
  Tp1State scan;  // the audit scan's balance deltas (readers that scan)
};

/// Most versions the MVCC store held, sampled by the operations.
size_t g_versions_live_peak = 0;

void NoteVersions(const Database& db) {
  g_versions_live_peak = std::max(g_versions_live_peak, db.mvcc_versions_live());
}

void NoteStart(ScriptSlot* slot, Transaction* t) {
  if (slot->first_begin_ns == 0) slot->first_begin_ns = t->begin_ns();
}

Result<EntityAddr> FindAccount(Database& db, Transaction* t,
                               const char* span_name, int64_t key) {
  ScopedSpan span(&g_spans, span_name);
  auto found = db.IndexLookup(t, kAccountIndex, key);
  if (!found.ok()) return found.status();
  if (found.value().size() != 1) {
    return Status::Corruption("account key " + std::to_string(key) +
                              " does not resolve to exactly one row");
  }
  return found.value()[0];
}

Result<Tuple> ReadRow(Database& db, Transaction* t, const std::string& rel,
                      const EntityAddr& a) {
  ScopedSpan span(&g_spans, "core.read");
  return db.Read(t, rel, a);
}

Status BumpRow(Database& db, Transaction* t, const std::string& rel,
               const EntityAddr& a) {
  auto row = ReadRow(db, t, rel, a);
  if (!row.ok()) return row.status();
  Tuple updated = std::move(row).value();
  updated[1] = std::get<int64_t>(updated[1]) + 1;
  ScopedSpan span(&g_spans, "core.update");
  return db.Update(t, rel, a, updated);
}

/// Σ(balance) − initial over a whole relation, in one transaction.
Result<int64_t> BalanceDelta(Database& db, Transaction* t,
                             const std::string& rel, const char* span_name,
                             int64_t* rows_seen) {
  ScopedSpan span(&g_spans, span_name);
  auto rows = db.Scan(t, rel);
  if (!rows.ok()) return rows.status();
  int64_t sum = 0;
  for (const auto& [_, tuple] : rows.value()) {
    sum += std::get<int64_t>(tuple[1]) - kInitialBalance;
  }
  if (rows_seen != nullptr) *rows_seen = static_cast<int64_t>(rows.value().size());
  return sum;
}

Status ReadTp1State(Database& db, Transaction* t, const char* scan_span,
                    const char* aux_span, Tp1State* s) {
  auto a = BalanceDelta(db, t, kAccount, scan_span, nullptr);
  if (!a.ok()) return a.status();
  auto te = BalanceDelta(db, t, kTeller, aux_span, nullptr);
  if (!te.ok()) return te.status();
  auto b = BalanceDelta(db, t, kBranch, aux_span, nullptr);
  if (!b.ok()) return b.status();
  s->account_delta = a.value();
  s->teller_delta = te.value();
  s->branch_delta = b.value();
  return Status::OK();
}

/// The TP1 oracle, run outside any window: balance deltas and history
/// rows must all equal the committed TP1 count.
Status CheckTp1Invariant(Database* db, uint64_t committed_writers) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Tp1State s;
  MMDB_RETURN_IF_ERROR(
      ReadTp1State(*db, txn.value(), "oracle.scan", "oracle.scan", &s));
  auto h = BalanceDelta(*db, txn.value(), kHistory, "oracle.scan",
                        &s.history_rows);
  if (!h.ok()) return h.status();
  MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  std::string err = CheckTp1(s, committed_writers);
  return err.empty() ? Status::OK() : Status::Corruption(err);
}

TxnScript MakeScript(const Spec& spec, const Rig& rig,
                     const ReadMostlyPlan& p, ScriptSlot* slot) {
  const char* lookup = spec.account_index == IndexType::kTTree
                           ? "index.ttree_lookup"
                           : "index.hash_lookup";
  TxnScript s;
  slot->is_read = p.is_read;
  if (p.is_read) {
    s.label = "read";
    s.options.read_only = true;
    if (p.long_scan) {
      s.ops.push_back([slot](Database& db, Transaction* t) {
        NoteStart(slot, t);
        MMDB_RETURN_IF_ERROR(
            ReadTp1State(db, t, "core.scan", "core.scan_aux", &slot->scan));
        slot->scanned = true;
        return Status::OK();
      });
    }
    for (size_t key : p.reads) {
      s.ops.push_back([slot, lookup, key](Database& db, Transaction* t) {
        NoteStart(slot, t);
        auto a = FindAccount(db, t, lookup, static_cast<int64_t>(key));
        if (!a.ok()) return a.status();
        NoteVersions(db);
        return ReadRow(db, t, kAccount, a.value()).status();
      });
    }
    return s;
  }
  s.label = "tp1";
  const EntityAddr teller = rig.tellers[p.write.teller];
  const EntityAddr branch = rig.branches[p.write.branch];
  const int64_t key = static_cast<int64_t>(p.write.account);
  const int64_t hist_id = p.write.hist_id;
  s.ops.push_back([slot, lookup, key](Database& db, Transaction* t) {
    NoteStart(slot, t);
    auto a = FindAccount(db, t, lookup, key);
    if (!a.ok()) return a.status();
    return BumpRow(db, t, kAccount, a.value());
  });
  s.ops.push_back([slot, teller](Database& db, Transaction* t) {
    NoteStart(slot, t);
    return BumpRow(db, t, kTeller, teller);
  });
  s.ops.push_back([slot, branch](Database& db, Transaction* t) {
    NoteStart(slot, t);
    return BumpRow(db, t, kBranch, branch);
  });
  s.ops.push_back([slot, hist_id](Database& db, Transaction* t) {
    NoteStart(slot, t);
    NoteVersions(db);
    ScopedSpan span(&g_spans, "core.insert");
    return db.Insert(t, kHistory, Tuple{hist_id, int64_t{1}, int64_t{1}})
        .status();
  });
  return s;
}

// --- phases ---------------------------------------------------------------------

/// Public counters sampled at a phase boundary.
struct Snap {
  DatabaseStats stats;
  double recovery_instr = 0;
  double main_instr = 0;
  double log_busy_ns = 0;   // busier member of stream 0's duplexed pair
  double ckpt_busy_ns = 0;
  double disk_bytes = 0;    // stream-0 log pair + checkpoint disk
  double log_pages_read = 0;
  double lane_busy_ns = 0;
  double pruned = 0;
  double partitions_recovered = 0;
  double records_replayed = 0;
};

Snap TakeSnap(Database& db) {
  Snap s;
  s.stats = db.GetStats();
  s.recovery_instr = db.recovery_cpu().total_instructions();
  s.main_instr = db.main_cpu().total_instructions();
  const auto& a = db.log_disks().primary();
  const auto& b = db.log_disks().mirror();
  s.log_busy_ns = std::max(a.busy_ms_total(), b.busy_ms_total()) * 1e6;
  s.ckpt_busy_ns = db.checkpoint_disk().busy_ms_total() * 1e6;
  s.disk_bytes = double(a.bytes_written() + a.bytes_read() + b.bytes_written() +
                        b.bytes_read() + db.checkpoint_disk().bytes_written() +
                        db.checkpoint_disk().bytes_read());
  s.log_pages_read = double(a.pages_read() + b.pages_read());
  if (const auto* h = db.metrics().find_histogram("recovery.lane_busy_ns")) {
    s.lane_busy_ns = h->sum();
  }
  s.pruned = double(db.metrics().counter_value("mvcc.pruned_total"));
  for (const char* src : {"restart", "ondemand", "background"}) {
    s.partitions_recovered += double(db.metrics().counter_value(
        std::string("recovery.partitions_recovered.") + src));
    s.records_replayed += double(db.metrics().counter_value(
        std::string("recovery.records_replayed.") + src));
  }
  return s;
}

struct Phase {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t first_commit_ns = 0;
  double host_s = 0;
  double run_self_host_s = 0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t committed_writers = 0;
  uint64_t failed = 0;
  uint64_t waits = 0;
  uint64_t reader_waits = 0;
  uint64_t deadlock_retries = 0;
  uint64_t sched_events = 0;
  uint64_t sweep_recovered = 0;
  double worker_instr = 0;
  double lock_wait_p99_ns = 0;
  double execute_p50_ns = 0;
  double commit_fence_p50_ns = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::string error;  // first failed script or snapshot-prefix violation
};

double SketchAt(Database& db, const char* name, double p) {
  const auto* s = db.metrics().find_sketch(name);
  return s != nullptr ? s->Percentile(p) : 0.0;
}

/// Runs plans [begin, end) through one closed-loop executor: each worker
/// takes its next script when the previous one finishes.
Status RunPhase(const Spec& spec, Rig* rig,
                const std::vector<ReadMostlyPlan>& plans, size_t begin,
                size_t end, bool sweep, uint64_t writers_before, Phase* out) {
  Database* db = rig->db.get();
  ConcurrentExecutor::Options eo;
  eo.background_sweep = sweep;
  eo.sweep_lanes = spec.recovery_lanes;
  ConcurrentExecutor ex(db, eo);
  std::vector<ScriptSlot> slots(end - begin);
  for (size_t i = begin; i < end; ++i) {
    ex.Submit(MakeScript(spec, *rig, plans[i], &slots[i - begin]));
  }
  out->start_ns = db->now_ns();
  const double h0 = HostSeconds();
  ScopedSpan span(&g_spans, "txn.run");
  Status st = ex.Run();
  const int32_t run_span = span.Close();
  out->host_s = HostSeconds() - h0;
  MMDB_RETURN_IF_ERROR(st);
  out->end_ns = ex.completion_ns();
  db->AdvanceClockTo(out->end_ns);

  out->attempted = end - begin;
  out->waits = ex.waits();
  out->deadlock_retries = ex.deadlocks();
  out->sched_events = ex.scheduler_events_run();
  out->sweep_recovered = ex.sweep_recovered();
  for (uint32_t w = 0; w < ex.workers(); ++w) {
    out->worker_instr += ex.worker_cpu(w).total_instructions();
  }
  out->lock_wait_p99_ns = SketchAt(*db, "txn.sketch.lock_wait_ns", 0.99);
  out->execute_p50_ns = SketchAt(*db, "txn.sketch.execute_ns", 0.5);
  out->commit_fence_p50_ns = SketchAt(*db, "txn.sketch.commit_fence_ns", 0.5);
  for (size_t i = 0; i < slots.size(); ++i) {
    const mmdb::ScriptResult& r = ex.results()[i];
    const ScriptSlot& slot = slots[i];
    if (slot.is_read) out->reader_waits += r.waits;
    if (r.outcome != ScriptOutcome::kCommitted) {
      ++out->failed;
      if (out->error.empty()) out->error = "script failed: " + r.error.ToString();
      continue;
    }
    ++out->committed;
    if (!slot.is_read) ++out->committed_writers;
    if (out->first_commit_ns == 0 || r.commit_ns < out->first_commit_ns) {
      out->first_commit_ns = r.commit_ns;
    }
    const double us = double(r.commit_ns - slot.first_begin_ns) / 1e3;
    (slot.is_read ? out->read_us : out->write_us).push_back(us);
  }
  // Every audit scan must see a commit-order prefix of what has committed
  // by the end of this phase.
  for (const ScriptSlot& slot : slots) {
    if (!slot.scanned || !out->error.empty()) continue;
    out->error = CheckSnapshotPrefix(slot.scan,
                                     writers_before + out->committed_writers);
  }
  // Self time of Run: the executor's own work (scheduling, and the
  // interleaved sweep) once the operations' spans are taken out.
  if (run_span >= 0) out->run_self_host_s = g_spans.SelfNs(run_span) / 1e9;
  return Status::OK();
}

// --- one round ------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

struct Round {
  Metrics virt;  // virtual-time results: identical in every round
  Metrics host;  // host-time results: vary from round to round
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // correctness violation; empty when the round passed
  std::string restart;  // what Restart() reported, for the log
};

double PerK(double n, double d) { return d > 0 ? 1000.0 * n / d : 0.0; }
double Ratio(double n, double d) { return d > 0 ? n / d : 0.0; }

/// Virtual ns from the crash until the ready fraction first read 1, to
/// the end of that telemetry window.
double FullResidencyNs(Database& db, uint64_t crash_ns) {
  const auto* s = db.metrics().find_gauge_series("recovery.ready_fraction");
  if (s == nullptr) return 0;
  for (const auto& [b, w] : s->buckets()) {
    if (s->BucketStartNs(b + 1) <= crash_ns) continue;
    if (w.max >= 1.0) return double(s->BucketStartNs(b + 1) - crash_ns);
  }
  return 0;
}

Status RunRoundBody(const Spec& spec, uint64_t seed, Round* out) {
  Metrics& v = out->virt;
  Metrics& h = out->host;
  Rig rig;
  const double setup_h0 = HostSeconds();
  MMDB_RETURN_IF_ERROR(Setup(spec, seed, &rig));
  h["setup_s"] = HostSeconds() - setup_h0;
  Database& db = *rig.db;

  const size_t total = spec.window_txns + spec.leadin_txns + spec.post_txns;
  std::vector<ReadMostlyPlan> plans = mmdb::bench::MakeReadMostlyPlans(
      seed, total, static_cast<size_t>(spec.accounts),
      static_cast<size_t>(spec.tellers), static_cast<size_t>(spec.branches),
      spec.read_fraction, spec.scan_every);
  if (spec.hot_accounts > 0) {
    // Hot/cold traffic: every account key comes from the hot leading
    // accounts (the hot picks of bench/workload.h's hot/cold stream).
    const std::vector<mmdb::bench::HotColdPlan> hot =
        mmdb::bench::MakeHotColdPlans(seed ^ 0x5eedULL, total * 4,
                                      static_cast<size_t>(spec.accounts),
                                      static_cast<size_t>(spec.hot_accounts));
    size_t next = 0;
    for (ReadMostlyPlan& p : plans) {
      if (p.is_read) {
        for (size_t& k : p.reads) k = hot[next++].row_hot;
      } else {
        p.write.account = hot[next++].row_hot;
      }
    }
  }
  const size_t window_end = spec.window_txns;
  const size_t leadin_end = window_end + spec.leadin_txns;

  // Measured steady window, then the oracle.
  g_versions_live_peak = 0;
  const Snap w0 = TakeSnap(db);
  Phase window;
  MMDB_RETURN_IF_ERROR(
      RunPhase(spec, &rig, plans, 0, window_end, false, 0, &window));
  MMDB_RETURN_IF_ERROR(db.PumpRecovery());
  MMDB_RETURN_IF_ERROR(db.RunCheckpoints());
  const Snap w1 = TakeSnap(db);
  const double window_versions_peak = double(g_versions_live_peak);
  const double resident_after_window = double(w1.stats.partitions_resident);
  uint64_t writers = window.committed_writers;
  MMDB_RETURN_IF_ERROR(CheckTp1Invariant(&db, writers));

  if (spec.checkpoint_before_leadin) {
    MMDB_RETURN_IF_ERROR(db.CheckpointEverything());
    MMDB_RETURN_IF_ERROR(db.PumpRecovery());
    MMDB_RETURN_IF_ERROR(db.RunCheckpoints());
  }
  // Lead-in: the steady commit rate the recovery curve is judged against.
  Phase leadin;
  MMDB_RETURN_IF_ERROR(RunPhase(spec, &rig, plans, window_end, leadin_end,
                                false, writers, &leadin));
  writers += leadin.committed_writers;

  // Crash, restart, post-crash traffic until fully resident.
  const uint64_t crash_ns = db.now_ns();
  const Snap c0 = TakeSnap(db);
  const double crash_h0 = HostSeconds();
  db.Crash();
  const double restart_h0 = HostSeconds();
  {
    ScopedSpan span(&g_spans, "recovery.restart");
    MMDB_RETURN_IF_ERROR(db.Restart());
  }
  h["recovery.restart_host_s"] = HostSeconds() - restart_h0;
  const uint64_t restart_ns = db.now_ns() - crash_ns;
  const mmdb::RestartReport report = db.last_restart();
  char info[200];
  std::snprintf(info, sizeof info,
                "catalog %.3f vms, total %.3f vms, %llu partitions, %llu log "
                "pages, %llu records",
                report.catalog_ms, report.total_ms,
                static_cast<unsigned long long>(report.partitions_recovered),
                static_cast<unsigned long long>(report.log_pages_read),
                static_cast<unsigned long long>(report.records_applied));
  out->restart = info;
  g_versions_live_peak = 0;
  const Snap p0 = TakeSnap(db);
  Phase post;
  MMDB_RETURN_IF_ERROR(RunPhase(spec, &rig, plans, leadin_end, total,
                                spec.sweep, writers, &post));
  writers += post.committed_writers;
  while (!db.FullyResident()) {
    ScopedSpan span(&g_spans, "recovery.sweep");
    bool done = false;
    MMDB_RETURN_IF_ERROR(db.BackgroundRecoveryStep(&done));
    if (done) break;
  }
  h["recovery_host_s"] = HostSeconds() - crash_h0;
  const double ready = db.recovery_progress().ready_fraction();
  const double residency_ns = FullResidencyNs(db, crash_ns);
  MMDB_RETURN_IF_ERROR(db.PumpRecovery());
  MMDB_RETURN_IF_ERROR(db.RunCheckpoints());
  const Snap p1 = TakeSnap(db);
  MMDB_RETURN_IF_ERROR(CheckTp1Invariant(&db, writers));
  if (ready != 1.0 || !db.FullyResident()) {
    return Status::Corruption("ready_fraction " + std::to_string(ready) +
                              " after the restart, not 1");
  }

  out->attempted = window.attempted + leadin.attempted + post.attempted;
  out->failed = window.failed + leadin.failed + post.failed;
  for (const Phase* p : {&window, &leadin, &post}) {
    if (!p->error.empty()) return Status::Corruption(p->error);
    if (p->reader_waits != 0) {
      return Status::Corruption("snapshot readers waited on locks");
    }
  }

  // The measured window: steady traffic, or the post-crash traffic.
  const Phase& m = spec.measure_post ? post : window;
  const Snap& m0 = spec.measure_post ? p0 : w0;
  const Snap& m1 = spec.measure_post ? p1 : w1;
  WindowCost cost;
  cost.main_ns = double(m.end_ns - m.start_ns);
  cost.recovery_instructions = m1.recovery_instr - m0.recovery_instr;
  cost.recovery_mips = db.options().recovery_cpu_mips;
  cost.log_disk_busy_ns = m1.log_busy_ns - m0.log_busy_ns;
  const double committed = double(m.committed);
  const double writers_m = double(m.committed_writers);

  h["sim_txn_per_host_s"] = Ratio(committed, m.host_s);
  h["window_host_s"] = m.host_s;
  h["txn.run_self_host_s"] = m.run_self_host_s;
  if (spec.sweep) h["recovery.sweep_host_s"] = post.run_self_host_s;

  v["txn_per_vs"] = TxnPerVirtualSecond(m.committed, cost);
  struct Pct {
    const char* name;
    const std::vector<double>* samples;
    double p;
  };
  for (const Pct& q : {Pct{"write_p50_vus", &m.write_us, 0.5},
                       Pct{"write_p99_vus", &m.write_us, 0.99},
                       Pct{"read_p50_vus", &m.read_us, 0.5},
                       Pct{"read_p99_vus", &m.read_us, 0.99}}) {
    auto val = Percentile(*q.samples, q.p);
    if (!val) {
      return Status::InvalidArgument(
          std::string(q.name) + ": too few samples (" +
          std::to_string(q.samples->size()) + ") for this percentile");
    }
    v[q.name] = *val;
  }
  v["e2e.write_samples"] = double(m.write_us.size());
  v["e2e.read_samples"] = double(m.read_us.size());

  const auto* curve = db.metrics().find_counter_series("txn.commit_rate");
  if (curve == nullptr) return Status::Corruption("txn.commit_rate missing");
  const mmdb::obs::RecoveryCurveStats rc =
      mmdb::obs::AnalyzeRecoveryCurve(*curve, leadin.start_ns, crash_ns);
  v["restart_blocked_vms"] = double(restart_ns) / 1e6;
  v["first_commit_vms"] = double(post.first_commit_ns - crash_ns) / 1e6;
  v["perceived_downtime_vms"] = double(rc.perceived_downtime_ns) / 1e6;
  v["full_residency_vms"] = residency_ns / 1e6;

  // core / txn
  v["core.main_instr_per_txn"] =
      Ratio(m.worker_instr + (m1.main_instr - m0.main_instr), committed);
  v["txn.sched_events_per_txn"] = Ratio(double(m.sched_events), committed);
  v["txn.lock_waits_per_txn"] = Ratio(double(m.waits), committed);
  v["txn.deadlock_retries_per_1k"] = PerK(double(m.deadlock_retries), committed);
  v["txn.lock_wait_p99_vus"] = m.lock_wait_p99_ns / 1e3;
  v["txn.execute_p50_vus"] = m.execute_p50_ns / 1e3;
  v["txn.commit_fence_p50_vus"] = m.commit_fence_p50_ns / 1e3;
  v["txn.reader_lock_waits"] = double(window.reader_waits + leadin.reader_waits +
                                      post.reader_waits);
  v["txn.failed_share"] = Ratio(double(out->failed), double(out->attempted));
  // log
  const double records = double(m1.stats.records_logged - m0.stats.records_logged);
  const double sorted = double(m1.stats.records_sorted - m0.stats.records_sorted);
  v["log.recovery_cpu_util"] = Ratio(RecoveryCpuNs(cost), cost.main_ns);
  v["log.sort_instr_per_record"] = Ratio(cost.recovery_instructions, sorted);
  v["log.records_per_txn"] = Ratio(records, writers_m);
  v["log.bytes_per_user_byte"] =
      Ratio(double(m1.stats.bytes_logged - m0.stats.bytes_logged),
            writers_m * 4 * kUserBytesPerRow);
  v["log.pages_flushed_per_1k_txn"] = PerK(
      double(m1.stats.log_pages_flushed - m0.stats.log_pages_flushed), committed);
  v["log.disk_busy_frac"] = Ratio(cost.log_disk_busy_ns, cost.main_ns);
  v["log.stable_mem_peak_frac"] =
      Ratio(double(p1.stats.stable_memory_high_water),
            double(db.options().stable_memory_bytes));
  // recovery
  v["recovery.ckpts_update_per_1k_txn"] =
      PerK(double(m1.stats.checkpoints_update_count -
                  m0.stats.checkpoints_update_count),
           committed);
  v["recovery.ckpts_age_per_1k_txn"] = PerK(
      double(m1.stats.checkpoints_age - m0.stats.checkpoints_age), committed);
  v["recovery.ckpt_disk_busy_frac"] =
      Ratio(m1.ckpt_busy_ns - m0.ckpt_busy_ns, cost.main_ns);
  const double recovered = p1.partitions_recovered - c0.partitions_recovered;
  v["recovery.catalog_partitions"] = double(report.catalog_partitions);
  v["recovery.ondemand_partitions"] =
      double(p1.stats.on_demand_recoveries - c0.stats.on_demand_recoveries);
  v["recovery.log_pages_per_partition"] =
      Ratio(p1.log_pages_read - c0.log_pages_read, recovered);
  v["recovery.sweep_partitions"] =
      double(post.sweep_recovered) +
      double(p1.stats.background_recoveries - c0.stats.background_recoveries);
  v["recovery.lane_busy_frac"] =
      Ratio(p1.lane_busy_ns - c0.lane_busy_ns,
            double(spec.recovery_lanes) * residency_ns);
  v["recovery.records_applied"] = p1.records_replayed - c0.records_replayed;
  // storage / sim / mvcc
  v["storage.partitions_resident"] = resident_after_window;
  v["storage.bytes_per_user_byte"] =
      Ratio(resident_after_window * db.options().partition_size_bytes,
            double(rig.rows + int64_t(window.committed_writers)) *
                kUserBytesPerRow);
  v["sim.disk_bytes_per_txn"] = Ratio(m1.disk_bytes - m0.disk_bytes, committed);
  v["mvcc.versions_live_peak"] =
      spec.measure_post ? double(g_versions_live_peak) : window_versions_peak;
  v["mvcc.pruned_per_txn"] = Ratio(m1.pruned - m0.pruned, committed);
  return Status::OK();
}

/// Host per-layer numbers from the spans of one traced round.
void SpanMetrics(const Spec& spec, Metrics* h) {
  auto median_of = [](const std::vector<double>& d) {
    return d.empty() ? 0.0 : Median(d);
  };
  (*h)["core.read_host_ns"] = median_of(g_spans.Durations("core.read"));
  (*h)["core.update_host_ns"] = median_of(g_spans.Durations("core.update"));
  (*h)["core.insert_host_ns"] = median_of(g_spans.Durations("core.insert"));
  (*h)["core.scan_host_ns"] = median_of(g_spans.Durations("core.scan"));
  (*h)["index.hash_lookup_host_ns"] =
      median_of(g_spans.Durations("index.hash_lookup"));
  (*h)["index.ttree_lookup_host_ns"] =
      median_of(g_spans.Durations("index.ttree_lookup"));
  auto total_s = [](const std::vector<double>& d) {
    double ns = 0;
    for (double x : d) ns += x;
    return ns / 1e9;
  };
  (*h)["index.build_host_s"] = total_s(g_spans.Durations("index.build"));
  // Background steps after the post-crash traffic, on top of the sweep
  // interleaved with it.
  (*h)["recovery.sweep_host_s"] += total_s(g_spans.Durations("recovery.sweep"));
  const double rows = double(spec.accounts + spec.tellers + spec.branches +
                             int64_t{spec.cold_relations} * spec.cold_rows);
  (*h)["storage.populate_host_ns_per_row"] =
      total_s(g_spans.Durations("storage.populate")) * 1e9 / rows;
}

Round RunRound(const Spec& spec, uint64_t seed, bool traced) {
  g_spans.Clear();
  g_spans.Enable(traced);
  Round r;
  Status st = RunRoundBody(spec, seed, &r);
  if (!st.ok()) r.error = st.ToString();
  if (traced) SpanMetrics(spec, &r.host);
  g_spans.Enable(false);
  return r;
}

// --- reporting ------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool virt;  // deterministic virtual-time/count result
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"txn_per_vs", "txn/vs", true},
    {"write_p50_vus", "vus", true},
    {"write_p99_vus", "vus", true},
    {"read_p50_vus", "vus", true},
    {"read_p99_vus", "vus", true},
    {"restart_blocked_vms", "vms", true},
    {"first_commit_vms", "vms", true},
    {"perceived_downtime_vms", "vms", true},
    {"full_residency_vms", "vms", true},
};

// sim_txn_per_host_s and recovery_host_s are whole-system host metrics,
// but on a shared machine they vary by more than the largest bound an
// end-to-end metric may have, so they are reported here, without one.
const MetricDef kPerLayer[] = {
    {"sim_txn_per_host_s", "txn/s", false},
    {"recovery_host_s", "s", false},
    {"core.read_host_ns", "ns", false},
    {"core.update_host_ns", "ns", false},
    {"core.insert_host_ns", "ns", false},
    {"core.scan_host_ns", "ns", false},
    {"core.main_instr_per_txn", "instr", true},
    {"index.hash_lookup_host_ns", "ns", false},
    {"index.ttree_lookup_host_ns", "ns", false},
    {"index.build_host_s", "s", false},
    {"txn.run_self_host_s", "s", false},
    {"txn.sched_events_per_txn", "count", true},
    {"txn.lock_waits_per_txn", "count", true},
    {"txn.deadlock_retries_per_1k", "count", true},
    {"txn.lock_wait_p99_vus", "vus", true},
    {"txn.execute_p50_vus", "vus", true},
    {"txn.commit_fence_p50_vus", "vus", true},
    {"txn.reader_lock_waits", "count", true},
    {"txn.failed_share", "ratio", true},
    {"log.recovery_cpu_util", "ratio", true},
    {"log.sort_instr_per_record", "instr", true},
    {"log.records_per_txn", "count", true},
    {"log.bytes_per_user_byte", "ratio", true},
    {"log.pages_flushed_per_1k_txn", "count", true},
    {"log.disk_busy_frac", "ratio", true},
    {"log.stable_mem_peak_frac", "ratio", true},
    {"recovery.ckpts_update_per_1k_txn", "count", true},
    {"recovery.ckpts_age_per_1k_txn", "count", true},
    {"recovery.ckpt_disk_busy_frac", "ratio", true},
    {"recovery.catalog_partitions", "count", true},
    {"recovery.ondemand_partitions", "count", true},
    {"recovery.log_pages_per_partition", "count", true},
    {"recovery.sweep_partitions", "count", true},
    {"recovery.sweep_host_s", "s", false},
    {"recovery.lane_busy_frac", "ratio", true},
    {"recovery.records_applied", "count", true},
    {"recovery.restart_host_s", "s", false},
    {"storage.populate_host_ns_per_row", "ns", false},
    {"storage.partitions_resident", "count", true},
    {"storage.bytes_per_user_byte", "ratio", true},
    {"sim.disk_bytes_per_txn", "B", true},
    {"mvcc.versions_live_peak", "count", true},
    {"mvcc.pruned_per_txn", "count", true},
    {"e2e.write_samples", "count", true},
    {"e2e.read_samples", "count", true},
    {"trace.overhead_frac", "ratio", false},
};

double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* val = argv[i + 1];
    if (k == "--workload") {
      a->workload = val;
    } else if (k == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(val, "1") == 0;
    } else if (k == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Spec* base = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) base = &s;
  }
  if (base == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Spec sized = SizedBySeed(*base, args.seed);
  const Spec* spec = &sized;
  PrintConfig(*spec, ModelOptions(*spec), args.seed);

  // The traced run alternates untraced and traced rounds, so the tracing
  // overhead is measured on the same process and inputs.
  std::vector<Round> rounds;
  std::vector<bool> traced;
  const double t0 = WallSeconds();
  bool trace_written = false;
  while (rounds.size() < kMinRounds || WallSeconds() - t0 < args.seconds) {
    const bool tr = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(RunRound(*spec, args.seed, tr));
    traced.push_back(tr);
    const Round& r = rounds.back();
    auto host = [&r](const char* name) {
      return r.host.count(name) ? r.host.at(name) : 0.0;
    };
    std::printf("# round %zu%s: %.2f wall s, host s: setup %.3f, window "
                "%.3f, recovery %.3f; %llu attempted, %llu failed%s%s\n",
                rounds.size() - 1, tr ? " (traced)" : "", WallSeconds() - t0,
                host("setup_s"), host("window_host_s"),
                host("recovery_host_s"),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.error.empty() ? "" : ", ERROR: ", r.error.c_str());
    if (rounds.size() == 1) std::printf("# restart: %s\n", r.restart.c_str());
    if (tr && !trace_written) {
      for (const auto& [name, ns] : g_spans.SelfTimes()) {
        std::printf("# self time %-22s %10.6f host s\n", name.c_str(), ns / 1e9);
      }
    }
    if (tr && !trace_written && !args.trace_out.empty()) {
      trace_written = g_spans.WriteChromeTrace(args.trace_out, 200'000);
      if (!trace_written) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
    if (!r.error.empty()) break;
  }

  // Correctness: every round passed its checks, and every round reproduced
  // round 0's virtual-time results exactly.
  std::string error;
  for (size_t i = 0; i < rounds.size() && error.empty(); ++i) {
    if (!rounds[i].error.empty()) {
      error = "round " + std::to_string(i) + ": " + rounds[i].error;
    } else if (rounds[i].virt != rounds[0].virt) {
      error = "round " + std::to_string(i) +
              " virtual-time results differ from round 0";
    }
  }
  const Round& first = rounds[0];

  Metrics host;
  // Round 0 warms the allocator and caches; host medians leave it out.
  auto host_median = [&](const std::string& name, bool want_traced) {
    std::vector<double> vals;
    for (size_t i = 1; i < rounds.size(); ++i) {
      auto it = rounds[i].host.find(name);
      if (traced[i] == want_traced && it != rounds[i].host.end()) {
        vals.push_back(it->second);
      }
    }
    return vals.empty() ? 0.0 : Median(vals);
  };
  for (const MetricDef& m : kPerLayer) {
    if (!m.virt) host[m.name] = host_median(m.name, args.trace);
  }
  for (const MetricDef& m : kEndToEnd) {
    if (!m.virt) host[m.name] = host_median(m.name, args.trace);
  }
  host["peak_rss_mb"] = PeakRssMb();
  if (args.trace) {
    // Whole-system host metrics come from the untraced rounds.
    const double untraced = host_median("sim_txn_per_host_s", false);
    const double with = host_median("sim_txn_per_host_s", true);
    host["trace.overhead_frac"] = with > 0 ? untraced / with - 1.0 : 0.0;
    host["sim_txn_per_host_s"] = untraced;
    host["recovery_host_s"] = host_median("recovery_host_s", false);
  }

  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  const double sort_model = ModelOptions(*spec).costs.IRecordSort();
  if (error.empty()) {
    std::printf("# log.sort_instr_per_record %.3f measured vs Table 2 "
                "IRecordSort() %.3f\n",
                first.virt.at("log.sort_instr_per_record"), sort_model);
    std::printf("# samples: write %.0f, read %.0f (percentiles need >= %zu "
                "beyond)\n",
                first.virt.at("e2e.write_samples"),
                first.virt.at("e2e.read_samples"), kMinSamplesBeyond);
  } else {
    std::printf("# ERROR: %s\n", error.c_str());
  }

  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < ndefs; ++i) {
    const MetricDef& m = defs[i];
    const Metrics& src = m.virt ? first.virt : host;
    auto it = src.find(m.name);
    const double val = it != src.end() ? it->second : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name, val, m.unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
