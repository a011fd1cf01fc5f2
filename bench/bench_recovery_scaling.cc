// Parallel recovery scaling: full database reload with N recovery lanes.
//
// Sweeps recovery_parallelism over {1, 2, 4, 8} on a fixed workload and
// prints measured full-recovery virtual time against the analytic
// ParallelRecoveryMs model. Also runs the lanes=1 no-overlap ablation
// (pipelined_recovery=false: the same rebuild pipeline with the anchor
// walk waiting for the image and the apply for the last log read), on
// this workload and on bench_recovery_comparison's 12 x 2000 one.
//
// The expected shape: this workload is device-bound (the checkpoint-image
// track read dominates a partition's three log pages), so extra lanes
// only hide the apply tail behind other partitions' image reads, and
// virtual time falls to the checkpoint-disk floor and stays there.

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

struct Setup {
  int64_t rows_per_relation;
  int relations;
  /// Post-checkpoint update transactions per relation, and updates per
  /// transaction. {1, 20} is bench_recovery_comparison's update mix; the
  /// lane sweep uses a log-heavier mix so the record-apply (CPU) term is
  /// visible next to the device terms.
  int update_txns;
  int updates_per_txn;
};

/// Builds, checkpoints everything, adds post-checkpoint updates so
/// recovery must apply log, crashes.
Status BuildAndCrash(Database* db, const Setup& s) {
  Status st = Status::OK();
  for (int r = 0; r < s.relations && st.ok(); ++r) {
    st = Populate(db, "rel" + std::to_string(r), s.rows_per_relation);
  }
  if (!st.ok()) return st;
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  Random rng(5);
  for (int r = 0; r < s.relations && st.ok(); ++r) {
    for (int u = 0; u < s.update_txns && st.ok(); ++u) {
      auto txn = db->Begin();
      if (!txn.ok()) return txn.status();
      auto rows = db->Scan(txn.value(), "rel" + std::to_string(r));
      if (!rows.ok()) return rows.status();
      for (int k = 0; k < s.updates_per_txn && st.ok(); ++k) {
        auto& [a, tuple] = rows.value()[rng.Uniform(rows.value().size())];
        Tuple t2 = tuple;
        t2[1] = std::get<int64_t>(t2[1]) + 7;
        st = db->Update(txn.value(), "rel" + std::to_string(r), a, t2);
      }
      if (st.ok()) st = db->Commit(txn.value());
    }
  }
  if (!st.ok()) return st;
  db->Crash();
  return Status::OK();
}

struct RunResult {
  double total_vms = 0;
  uint64_t partitions = 0;
  uint64_t log_pages = 0;
  bool ok = false;
};

/// One full-reload restart with the given lane count / pipelining mode.
RunResult RunFullReload(const Setup& s, uint32_t lanes, bool pipelined) {
  RunResult r;
  DatabaseOptions o;
  o.restart_policy = RestartPolicy::kFullReload;
  o.recovery_parallelism = lanes;
  o.pipelined_recovery = pipelined;
  Database db(o);
  Status st = BuildAndCrash(&db, s);
  if (st.ok()) st = db.Restart();
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    return r;
  }
  r.total_vms = db.last_restart().total_ms;
  r.partitions = db.last_restart().partitions_recovered +
                 db.last_restart().catalog_partitions;
  r.log_pages = db.last_restart().log_pages_read;
  r.ok = true;
  return r;
}

void PrintScaling() {
  PrintHeader("Parallel recovery scaling — full reload vs lane count");
  obs::BenchReport report("recovery_scaling");
  obs::JsonValue series;
  analysis::RecoveryModel m;

  // The no-overlap ablation on bench_recovery_comparison's 12 x 2000
  // workload.
  const Setup comparison{2000, 12, 1, 20};
  RunResult no_overlap = RunFullReload(comparison, 1, false);
  if (no_overlap.ok) {
    std::printf("no-overlap ablation (comparison workload): %.1f ms\n\n",
                no_overlap.total_vms);
    report.Headline("serial_ablation_comparison_vms", no_overlap.total_vms);
  }

  // Lane sweep on a log-heavier workload (device floor + visible apply
  // term).
  const Setup s{2000, 12, 15, 100};
  RunResult ablation = RunFullReload(s, 1, false);
  if (ablation.ok) {
    std::printf("%14s | %12s %12s %14s\n", "lanes", "measured ms",
                "model ms", "vs no overlap");
    std::printf("%14s | %12.1f %12s %14s\n", "1 (no overlap)",
                ablation.total_vms, "-", "1.00x");
    report.Headline("serial_full_reload_vms", ablation.total_vms);
  }

  const uint32_t lane_counts[] = {1, 2, 4, 8};
  double lanes1_vms = 0, lanes4_vms = 0;
  for (uint32_t lanes : lane_counts) {
    RunResult r = RunFullReload(s, lanes, true);
    if (!r.ok) continue;
    double avg_pages =
        r.partitions > 0 ? double(r.log_pages) / double(r.partitions) : 0.0;
    double model_ms =
        m.ParallelRecoveryMs(double(r.partitions), double(lanes), avg_pages);
    if (lanes == 1) lanes1_vms = r.total_vms;
    if (lanes == 4) lanes4_vms = r.total_vms;
    std::printf("%14u | %12.1f %12.1f %13.2fx\n", lanes, r.total_vms,
                model_ms,
                ablation.ok ? ablation.total_vms / r.total_vms : 0.0);
    obs::JsonValue point;
    point["lanes"] = int64_t(lanes);
    point["full_reload_vms"] = r.total_vms;
    point["model_vms"] = model_ms;
    point["partitions"] = int64_t(r.partitions);
    point["log_pages"] = int64_t(r.log_pages);
    series.push_back(std::move(point));
    report.Headline("full_reload_vms_lanes" + std::to_string(lanes),
                    r.total_vms);
  }
  if (lanes1_vms > 0 && lanes4_vms > 0) {
    report.Headline("lanes4_speedup", lanes1_vms / lanes4_vms);
  }
  report.Set("series", std::move(series));
  (void)report.Write();
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  mmdb::bench::PrintScaling();
  return 0;
}
