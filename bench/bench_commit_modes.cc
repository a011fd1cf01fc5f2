// Ablation for §1.2 / §2.3.1: why the stable log buffer matters at
// commit time.
//
// Three commit strategies over the same debit/credit workload:
//   stable-memory : the paper's design — REDO records are already in
//                   stable RAM, "transactions can commit instantly".
//   group-commit  : IMS FASTPATH — precommit releases locks; the official
//                   commit waits for the group's log flush.
//   disk-force    : classic WAL — every commit forces its log to disk.
//
// Reported: workload elapsed virtual time, average commit wait, and log
// forces. Expected shape: stable < group << force.

#include "bench_common.h"

namespace mmdb::bench {
namespace {

struct ModeRow {
  CommitMode mode;
  const char* name;
  uint32_t group;
};

bool PrintModes() {
  PrintHeader("ABLATION (§1.2/§2.3.1) — commit durability strategies");
  std::printf("%16s %14s %16s %12s %14s\n", "mode", "elapsed vms",
              "avg wait ms", "log forces", "txn/vsec");
  obs::BenchReport report("commit_modes");
  obs::JsonValue series;
  bool ok = true;
  const ModeRow rows[] = {
      {CommitMode::kStableMemory, "stable-memory", 0},
      {CommitMode::kGroupCommit, "group-commit x4", 4},
      {CommitMode::kGroupCommit, "group-commit x16", 16},
      {CommitMode::kDiskForce, "disk-force", 0},
  };
  for (const ModeRow& row : rows) {
    DatabaseOptions o;
    o.commit_mode = row.mode;
    if (row.group != 0) o.group_commit_txns = row.group;
    Database db(o);
    DebitCreditRig rig;
    Status st = SetupDebitCredit(&db, 1000, &rig);
    Random rng(3);
    uint64_t t0 = db.now_ns();
    const int kTxns = 2000;
    for (int i = 0; i < kTxns && st.ok(); ++i) {
      st = DebitCredit(&db, &rig, &rng);
    }
    if (!st.ok()) {
      std::printf("%16s  ERROR: %s\n", row.name, st.ToString().c_str());
      ok = false;
      continue;
    }
    auto s = db.GetStats();
    double elapsed_ms = static_cast<double>(db.now_ns() - t0) * 1e-6;
    double avg_wait =
        s.commits_waited > 0 ? s.commit_wait_ms_total / s.commits_waited : 0;
    std::printf("%16s %14.1f %16.3f %12llu %14.0f\n", row.name, elapsed_ms,
                avg_wait, static_cast<unsigned long long>(s.log_forces),
                kTxns / (elapsed_ms * 1e-3));
    obs::JsonValue point;
    point["mode"] = row.name;
    point["elapsed_vms"] = elapsed_ms;
    point["avg_commit_wait_vms"] = avg_wait;
    point["log_forces"] = s.log_forces;
    point["txn_per_vsec"] = kTxns / (elapsed_ms * 1e-3);
    series.push_back(std::move(point));
    report.Headline(std::string("txn_per_vsec_") + row.name,
                    kTxns / (elapsed_ms * 1e-3));
    if (row.mode == CommitMode::kDiskForce) report.AddRegistry(db.metrics());
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  std::printf(
      "\n(Stable-memory commit removes all log-I/O waits; group commit\n"
      " amortizes but still pays per-group latency; per-commit forcing\n"
      " bounds throughput by the log disk.)\n");
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintModes();
  return ok ? 0 : 1;
}
