// Read-mostly mix: MVCC snapshot readers vs the S-lock read path.
//
// Runs one deterministic 95/5 read/write workload (bench/workload.h's
// MakeReadMostlyPlans: long analytic scans of the account table plus
// point reads, concurrent with TP1-style debit/credit writers) twice at
// 8 workers:
//
//   * S-lock path — read transactions are ordinary locking transactions:
//     each analytic scan holds a relation S lock for its whole duration,
//     so every writer's IX request queues behind it and, FIFO, every
//     later scan queues behind the writer. The classic reader/writer
//     convoy.
//   * MVCC path — the same scripts with ExecOptions::read_only set: the
//     readers take a begin-time snapshot, skip the lock manager
//     entirely, and resolve tuples against the version store.
//
// Built-in gates (the process exits non-zero if any fails):
//   * lock-freedom — the read stream in the MVCC run accumulates zero
//     waits (and, to prove the comparison is not vacuous, the S-lock run
//     must show the convoy: its read stream waits at least once);
//   * speedup — aggregate committed-transaction throughput of the MVCC
//     run is >= 2x the S-lock run, and so is the read-transaction
//     throughput on its own.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "txn/executor.h"
#include "workload.h"

namespace mmdb::bench {
namespace {

// Same contention-light TP1 write geometry as bench_concurrency_scaling;
// the contention this bench measures comes from the scans, not from
// writer/writer lock queueing.
constexpr int64_t kAccounts = 2048;
constexpr int64_t kTellers = 256;
constexpr int64_t kBranches = 128;
constexpr size_t kTxns = 400;
constexpr double kReadFraction = 0.95;
constexpr size_t kScanEvery = 8;  // every 8th read txn is a full scan
constexpr uint32_t kWorkers = 8;

std::vector<ReadMostlyPlan> MakePlans(uint64_t seed) {
  return MakeReadMostlyPlans(seed, kTxns, kAccounts, kTellers, kBranches,
                             kReadFraction, kScanEvery);
}

DatabaseOptions MakeOptions(uint32_t workers) {
  DatabaseOptions o;
  o.txn_workers = workers;
  // No mid-run checkpoints: the A/B measures the read path, not
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

/// Builds the script for one plan. `mvcc` selects the read path for the
/// read transactions; write transactions are identical either way.
TxnScript MakeScript(const BenchRig& rig, const ReadMostlyPlan& p, size_t idx,
                     bool mvcc) {
  TxnScript s;
  if (p.is_read) {
    s.label = "read-" + std::to_string(idx);
    s.options.read_only = mvcc;
    if (p.long_scan) s.ops.push_back(ScanOp("account"));
    for (size_t j = 0; j < 4; ++j) {
      s.ops.push_back(ReadOp("account", rig.accounts[p.reads[j]]));
    }
  } else {
    s.label = "tp1-" + std::to_string(p.write.hist_id);
    s.ops.push_back(BumpOp("account", rig.accounts[p.write.account]));
    s.ops.push_back(BumpOp("teller", rig.tellers[p.write.teller]));
    s.ops.push_back(BumpOp("branch", rig.branches[p.write.branch]));
    s.ops.push_back(HistoryOp(p.write.hist_id));
  }
  return s;
}

struct RunResult {
  uint64_t elapsed_ns = 0;
  uint64_t committed = 0;
  uint64_t reads_committed = 0;
  uint64_t waits = 0;
  uint64_t ro_waits = 0;  // waits accumulated by the read stream
  bool ok = false;
  double txn_per_sec() const {
    return elapsed_ns > 0 ? double(committed) * 1e9 / double(elapsed_ns) : 0.0;
  }
  double read_txn_per_sec() const {
    return elapsed_ns > 0 ? double(reads_committed) * 1e9 / double(elapsed_ns)
                          : 0.0;
  }
};

RunResult Run(const std::vector<ReadMostlyPlan>& plans, bool mvcc) {
  RunResult r;
  BenchRig rig;
  Status st = SetupRig(kWorkers, &rig);
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    return r;
  }
  uint64_t t0 = rig.db->now_ns();
  ConcurrentExecutor ex(rig.db.get());
  for (size_t i = 0; i < plans.size(); ++i) {
    ex.Submit(MakeScript(rig, plans[i], i, mvcc));
  }
  st = ex.Run();
  if (!st.ok()) {
    std::printf("ERROR: executor: %s\n", st.ToString().c_str());
    return r;
  }
  for (size_t i = 0; i < ex.results().size(); ++i) {
    const ScriptResult& sr = ex.results()[i];
    if (sr.outcome == ScriptOutcome::kCommitted) {
      r.committed++;
      if (plans[i].is_read) r.reads_committed++;
    }
    if (plans[i].is_read) r.ro_waits += sr.waits;
  }
  r.elapsed_ns = ex.completion_ns() - t0;
  r.waits = ex.waits();
  r.ok = true;
  return r;
}

bool PrintReadMostly() {
  PrintHeader("Read-mostly mix — MVCC snapshot readers vs S-lock reads");
  obs::BenchReport report("read_mostly");
  bool ok = true;

  const std::vector<ReadMostlyPlan> plans = MakePlans(42);
  size_t n_reads = 0, n_scans = 0;
  for (const ReadMostlyPlan& p : plans) {
    if (p.is_read) {
      ++n_reads;
      if (p.long_scan) ++n_scans;
    }
  }
  std::printf("%zu txns: %zu read (%zu with full scans), %zu write, "
              "%u workers\n\n",
              plans.size(), n_reads, n_scans, plans.size() - n_reads,
              kWorkers);

  RunResult slock = Run(plans, /*mvcc=*/false);
  RunResult mvcc = Run(plans, /*mvcc=*/true);
  for (const auto& [name, r] :
       {std::pair<const char*, const RunResult*>{"s-lock", &slock},
        std::pair<const char*, const RunResult*>{"mvcc", &mvcc}}) {
    if (!r->ok || r->committed != plans.size()) {
      std::printf("ERROR: %s run failed (%llu/%zu committed)\n", name,
                  static_cast<unsigned long long>(r->committed), plans.size());
      return false;
    }
    std::printf("%-7s: %9.3f vms, %8.0f txn/s, %8.0f read txn/s, "
                "%5llu waits (%llu on the read stream)\n",
                name, double(r->elapsed_ns) / 1e6, r->txn_per_sec(),
                r->read_txn_per_sec(),
                static_cast<unsigned long long>(r->waits),
                static_cast<unsigned long long>(r->ro_waits));
  }

  const double speedup = mvcc.txn_per_sec() / slock.txn_per_sec();
  const double read_speedup =
      mvcc.read_txn_per_sec() / slock.read_txn_per_sec();
  std::printf("\naggregate speedup: %.2fx, read-stream speedup: %.2fx\n",
              speedup, read_speedup);

  report.Headline("read_mostly_speedup", speedup);
  report.Headline("read_txn_speedup", read_speedup);
  report.Headline("elapsed_vms_mvcc", double(mvcc.elapsed_ns) / 1e6);
  report.Headline("elapsed_vms_slock", double(slock.elapsed_ns) / 1e6);
  report.Headline("txn_per_sec_mvcc", mvcc.txn_per_sec());
  report.Headline("txn_per_sec_slock", slock.txn_per_sec());
  report.Headline("ro_waits_mvcc", double(mvcc.ro_waits));
  report.Headline("ro_waits_slock", double(slock.ro_waits));

  if (mvcc.ro_waits != 0) {
    std::printf("ERROR: MVCC read stream waited %llu times (must be 0 — "
                "snapshot readers may not touch the lock manager)\n",
                static_cast<unsigned long long>(mvcc.ro_waits));
    ok = false;
  }
  if (slock.ro_waits == 0) {
    std::printf("ERROR: S-lock read stream never waited — the workload "
                "exhibits no reader/writer contention, comparison vacuous\n");
    ok = false;
  }
  if (speedup < 2.0) {
    std::printf("ERROR: aggregate speedup %.2fx below the 2x gate\n", speedup);
    ok = false;
  }
  if (read_speedup < 2.0) {
    std::printf("ERROR: read-stream speedup %.2fx below the 2x gate\n",
                read_speedup);
    ok = false;
  }
  (void)report.Write();
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintReadMostly();
  return ok ? 0 : 1;
}
