// Concurrent-executor scaling: committed-transaction throughput vs the
// number of simulated main-CPU transaction workers.
//
// Sweeps DatabaseOptions::txn_workers over {1, 2, 4, 8, 16, 32} on a
// fixed, pre-generated debit/credit-style workload (same seed, same
// account/teller/branch picks for every worker count) and reports
// virtual-time throughput. The expected shape is the paper's
// transaction-rate curve: per-worker CPU timelines overlap, so
// throughput rises with workers and then flattens as the shared
// stable-memory allocation gate and lock conflicts start to bite —
// the single-log-stream ceiling that bench_log_streams breaks.
//
// Two built-in checks (the process exits non-zero if either fails):
//   * workers=1 parity — the executor with one worker must land within
//     0.5% of the legacy direct driver running the identical transactions
//     (the concurrency machinery may not tax single-stream execution);
//   * monotonic throughput 1 -> 8 on this contention-light configuration,
//     with flattening (but no collapse: >= 0.95x) tolerated at 16 and 32
//     where the shared allocation gate saturates.

#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "txn/executor.h"
#include "workload.h"

namespace mmdb::bench {
namespace {

// Contention-light TP1 geometry: wide branch/teller fan-out so worker
// scaling, not lock queueing, dominates. (SetupDebitCredit's default
// derives only a handful of branches — at 8 workers they would serialize
// every transaction on branch X locks.)
constexpr int64_t kAccounts = 4096;
constexpr int64_t kTellers = 256;
constexpr int64_t kBranches = 128;
constexpr size_t kTxns = 512;

// The shared deterministic TP1 stream (bench/workload.h) with this
// bench's historical seed and geometry.
std::vector<Tp1Plan> MakePlans(uint64_t seed) {
  return MakeTp1Plans(seed, kTxns, kAccounts, kTellers, kBranches);
}

DatabaseOptions MakeOptions(uint32_t workers) {
  DatabaseOptions o;
  o.txn_workers = workers;
  // No mid-run checkpoints: the sweep measures executor scaling, not
  // checkpoint interference.
  o.n_update = 1ull << 30;
  return o;
}

struct BenchRig {
  std::unique_ptr<Database> db;
  std::vector<EntityAddr> accounts;
  std::vector<EntityAddr> tellers;
  std::vector<EntityAddr> branches;
};

Status SetupRig(uint32_t workers, BenchRig* rig) {
  rig->db = std::make_unique<Database>(MakeOptions(workers));
  Database* db = rig->db.get();
  MMDB_RETURN_IF_ERROR(Populate(db, "account", kAccounts));
  MMDB_RETURN_IF_ERROR(Populate(db, "teller", kTellers));
  MMDB_RETURN_IF_ERROR(Populate(db, "branch", kBranches));
  MMDB_RETURN_IF_ERROR(db->CreateRelation("history", AccountSchema()));
  auto grab = [&](const std::string& rel, std::vector<EntityAddr>* out) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    auto rows = db->Scan(txn.value(), rel);
    if (!rows.ok()) return rows.status();
    for (auto& [a, _] : rows.value()) out->push_back(a);
    return db->Commit(txn.value());
  };
  MMDB_RETURN_IF_ERROR(grab("account", &rig->accounts));
  MMDB_RETURN_IF_ERROR(grab("teller", &rig->tellers));
  return grab("branch", &rig->branches);
}

TxnScript MakeScript(const BenchRig& rig, const Tp1Plan& p) {
  TxnScript s;
  s.label = "tp1-" + std::to_string(p.hist_id);
  s.ops.push_back(BumpOp("account", rig.accounts[p.account]));
  s.ops.push_back(BumpOp("teller", rig.tellers[p.teller]));
  s.ops.push_back(BumpOp("branch", rig.branches[p.branch]));
  s.ops.push_back(HistoryOp(p.hist_id));
  return s;
}

struct RunResult {
  uint64_t elapsed_ns = 0;
  uint64_t committed = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  bool ok = false;
  double txn_per_sec() const {
    return elapsed_ns > 0 ? double(committed) * 1e9 / double(elapsed_ns) : 0.0;
  }
};

/// The pre-executor single-stream driver: Begin / ops / Commit directly
/// against the database, one transaction at a time on the global clock.
RunResult RunLegacy(const std::vector<Tp1Plan>& plans) {
  RunResult r;
  BenchRig rig;
  Status st = SetupRig(1, &rig);
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    return r;
  }
  Database* db = rig.db.get();
  uint64_t t0 = db->now_ns();
  for (const Tp1Plan& p : plans) {
    auto txn = db->Begin();
    if (!txn.ok()) st = txn.status();
    TxnScript s = MakeScript(rig, p);
    for (size_t i = 0; st.ok() && i < s.ops.size(); ++i) {
      st = s.ops[i](*db, txn.value());
    }
    if (st.ok()) st = db->Commit(txn.value());
    if (!st.ok()) {
      std::printf("ERROR: legacy txn: %s\n", st.ToString().c_str());
      return r;
    }
    r.committed++;
  }
  r.elapsed_ns = db->now_ns() - t0;
  r.ok = true;
  return r;
}

RunResult RunWithWorkers(uint32_t workers, const std::vector<Tp1Plan>& plans) {
  RunResult r;
  BenchRig rig;
  Status st = SetupRig(workers, &rig);
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    return r;
  }
  uint64_t t0 = rig.db->now_ns();
  ConcurrentExecutor ex(rig.db.get());
  for (const Tp1Plan& p : plans) ex.Submit(MakeScript(rig, p));
  st = ex.Run();
  if (!st.ok()) {
    std::printf("ERROR: executor: %s\n", st.ToString().c_str());
    return r;
  }
  for (const ScriptResult& sr : ex.results()) {
    if (sr.outcome == ScriptOutcome::kCommitted) r.committed++;
  }
  r.elapsed_ns = ex.completion_ns() - t0;
  r.waits = ex.waits();
  r.deadlocks = ex.deadlocks();
  r.ok = true;
  return r;
}

bool PrintScaling() {
  PrintHeader("Concurrent executor scaling — committed txn/s vs workers");
  obs::BenchReport report("concurrency_scaling");
  obs::JsonValue series;
  bool ok = true;

  const std::vector<Tp1Plan> plans = MakePlans(42);

  // Parity gate: the executor at one worker vs the direct driver on the
  // identical transaction stream.
  RunResult legacy = RunLegacy(plans);
  RunResult single = RunWithWorkers(1, plans);
  double parity_pct = 0.0;
  if (legacy.ok && single.ok && legacy.elapsed_ns > 0) {
    parity_pct = 100.0 *
                 std::abs(double(single.elapsed_ns) - double(legacy.elapsed_ns)) /
                 double(legacy.elapsed_ns);
    std::printf("legacy direct driver: %8.3f vms, %7.0f txn/s\n",
                double(legacy.elapsed_ns) / 1e6, legacy.txn_per_sec());
    std::printf("executor, 1 worker:   %8.3f vms, %7.0f txn/s "
                "(parity %.4f%%)\n\n",
                double(single.elapsed_ns) / 1e6, single.txn_per_sec(),
                parity_pct);
    report.Headline("workers1_parity_pct", parity_pct);
    if (parity_pct > 0.5) {
      std::printf("ERROR: workers=1 parity %.4f%% exceeds 0.5%%\n", parity_pct);
      ok = false;
    }
  } else {
    ok = false;
  }

  const uint32_t worker_counts[] = {1, 2, 4, 8, 16, 32};
  std::printf("%8s | %12s %12s %8s %8s %10s\n", "workers", "elapsed vms",
              "txn/s", "waits", "dlocks", "vs 1");
  double thr1 = 0, thr8 = 0, thr32 = 0, prev = 0;
  for (uint32_t w : worker_counts) {
    RunResult r = w == 1 ? single : RunWithWorkers(w, plans);
    if (!r.ok || r.committed != kTxns) {
      std::printf("ERROR: workers=%u run failed (%llu/%zu committed)\n", w,
                  static_cast<unsigned long long>(r.committed), kTxns);
      ok = false;
      continue;
    }
    double thr = r.txn_per_sec();
    if (w == 1) thr1 = thr;
    if (w == 8) thr8 = thr;
    if (w == 32) thr32 = thr;
    std::printf("%8u | %12.3f %12.0f %8llu %8llu %9.2fx\n", w,
                double(r.elapsed_ns) / 1e6, thr,
                static_cast<unsigned long long>(r.waits),
                static_cast<unsigned long long>(r.deadlocks),
                thr1 > 0 ? thr / thr1 : 0.0);
    obs::JsonValue point;
    point["workers"] = int64_t(w);
    point["elapsed_vms"] = double(r.elapsed_ns) / 1e6;
    point["txn_per_sec"] = thr;
    point["waits"] = int64_t(r.waits);
    point["deadlocks"] = int64_t(r.deadlocks);
    series.push_back(std::move(point));
    report.Headline("elapsed_vms_workers" + std::to_string(w),
                    double(r.elapsed_ns) / 1e6);
    report.Headline("txn_per_sec_workers" + std::to_string(w), thr);
    // Strictly rising through 8 workers; past that the shared allocation
    // gate is allowed to flatten the curve but not collapse it.
    double floor = w <= 8 ? prev : prev * 0.95;
    if (prev > 0 && thr < floor) {
      std::printf("ERROR: throughput fell from %.0f to %.0f txn/s going to "
                  "%u workers\n", prev, thr, w);
      ok = false;
    }
    prev = thr;
  }
  if (thr1 > 0 && thr8 > 0) {
    report.Headline("workers8_speedup", thr8 / thr1);
    std::printf("\nworkers 1 -> 8 speedup: %.2fx\n", thr8 / thr1);
  }
  if (thr1 > 0 && thr32 > 0) {
    report.Headline("workers32_speedup", thr32 / thr1);
    std::printf("workers 1 -> 32 speedup: %.2fx\n", thr32 / thr1);
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintScaling();
  return ok ? 0 : 1;
}
