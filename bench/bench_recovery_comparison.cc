// Regenerates the §3.4 comparison: partition-level post-crash recovery
// vs database-level recovery (complete reloading).
//
// The paper argues partition-level recovery lets transactions begin as
// soon as *their* data is restored: time-to-first-transaction is the
// catalog restore plus a handful of partition recoveries, while
// database-level recovery (one very large partition) must reload
// everything and process the whole log first. Total background recovery
// time is the same order for both.
//
// Both sides run on the same executable system and simulated disks; the
// analytic model's predictions are printed alongside.

#include "analysis/model.h"
#include "bench_common.h"
#include "obs/timeseries.h"

namespace mmdb::bench {
namespace {

struct Setup {
  int64_t rows_per_relation;
  int relations;
};

/// One-row update transactions against `hot` rows of rel0, one commit
/// each — the steady probe stream feeding the txn.commit_rate series on
/// both sides of the crash.
Status SteadyUpdates(Database* db, const std::vector<EntityAddr>& hot, int n) {
  for (int i = 0; i < n; ++i) {
    const EntityAddr& a = hot[i % hot.size()];
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    auto row = db->Read(txn.value(), "rel0", a);
    if (!row.ok()) return row.status();
    Tuple t2 = row.value();
    t2[1] = std::get<int64_t>(t2[1]) + 1;
    MMDB_RETURN_IF_ERROR(db->Update(txn.value(), "rel0", a, t2));
    MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  }
  return Status::OK();
}

constexpr int kProbeTxns = 400;
// Fine telemetry windows (0.1 vms): the single-stream probe commits a
// few dozen transactions per window, enough resolution for the
// perceived-downtime scan.
constexpr uint64_t kProbeBucketNs = 100'000;

/// Builds, checkpoints ~half the data, adds post-checkpoint updates,
/// runs the pre-crash probe stream, crashes. `steady_start_ns`/`crash_ns`
/// bracket the steady window for AnalyzeRecoveryCurve.
Status BuildAndCrash(Database* db, const Setup& s,
                     std::vector<EntityAddr>* hot_addrs,
                     uint64_t* steady_start_ns, uint64_t* crash_ns) {
  Status st = Status::OK();
  for (int r = 0; r < s.relations && st.ok(); ++r) {
    st = Populate(db, "rel" + std::to_string(r), s.rows_per_relation);
  }
  if (!st.ok()) return st;
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  // Post-checkpoint updates so recovery must apply log, not just images.
  Random rng(5);
  for (int r = 0; r < s.relations && st.ok(); ++r) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    auto rows = db->Scan(txn.value(), "rel" + std::to_string(r));
    if (!rows.ok()) return rows.status();
    for (int k = 0; k < 20 && st.ok(); ++k) {
      auto& [a, tuple] = rows.value()[rng.Uniform(rows.value().size())];
      Tuple t2 = tuple;
      t2[1] = std::get<int64_t>(t2[1]) + 7;
      st = db->Update(txn.value(), "rel" + std::to_string(r), a, t2);
      if (r == 0 && hot_addrs->size() < 4) hot_addrs->push_back(a);
    }
    if (st.ok()) st = db->Commit(txn.value());
  }
  if (!st.ok()) return st;
  *steady_start_ns = db->now_ns();
  MMDB_RETURN_IF_ERROR(SteadyUpdates(db, *hot_addrs, kProbeTxns));
  *crash_ns = db->now_ns();
  db->Crash();
  return Status::OK();
}

/// Perceived downtime of the crash in virtual ms, from the database's
/// own commit-rate series (kStable — it spans the crash). Call after the
/// post-crash probe stream has run.
double PerceivedDowntimeVms(const Database& db, uint64_t steady_start_ns,
                            uint64_t crash_ns) {
  const obs::CounterSeries* curve =
      db.metrics().find_counter_series("txn.commit_rate");
  if (curve == nullptr) return 0.0;
  obs::RecoveryCurveStats stats =
      obs::AnalyzeRecoveryCurve(*curve, steady_start_ns, crash_ns);
  return double(stats.perceived_downtime_ns) / 1e6;
}

void PrintComparison() {
  PrintHeader(
      "§3.4 — Partition-level vs database-level post-crash recovery");
  std::printf(
      "%8s %8s | %14s %14s %14s %14s | %14s %14s\n", "rels", "rows/rel",
      "P: catalog ms", "P: first-txn", "P: downtime", "P: full ms",
      "D: first-txn", "D: downtime");
  obs::BenchReport report("recovery_comparison");
  obs::JsonValue series;
  const Setup setups[] = {{500, 4}, {1000, 8}, {2000, 12}, {4000, 16}};
  for (const Setup& s : setups) {
    // --- partition-level (on-demand) ---
    double p_catalog = 0, p_first = 0, p_full = 0, p_downtime = 0;
    {
      DatabaseOptions o;  // default policy: kOnDemand
      o.telemetry_bucket_ns = kProbeBucketNs;
      Database db(o);
      std::vector<EntityAddr> hot;
      uint64_t steady_start_ns = 0, crash_ns = 0;
      Status st = BuildAndCrash(&db, s, &hot, &steady_start_ns, &crash_ns);
      if (st.ok()) st = db.Restart();
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        continue;
      }
      p_catalog = db.last_restart().catalog_ms;
      // First transaction: touch a few rows of rel0 (on-demand recovery
      // of exactly the partitions it needs).
      double t0 = db.now_ms();
      auto txn = db.Begin();
      st = txn.status();
      for (const EntityAddr& a : hot) {
        if (!st.ok()) break;
        st = db.Read(txn.value(), "rel0", a).status();
      }
      if (st.ok()) st = db.Commit(txn.value());
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        continue;
      }
      p_first = p_catalog + (db.now_ms() - t0);
      // Post-crash probe stream: same transactions as before the crash,
      // against partitions the first transaction just faulted in.
      st = SteadyUpdates(&db, hot, kProbeTxns);
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        continue;
      }
      p_downtime = PerceivedDowntimeVms(db, steady_start_ns, crash_ns);
      // Background recovery of the remainder.
      bool done = false;
      double t1 = db.now_ms();
      while (!done && st.ok()) st = db.BackgroundRecoveryStep(&done);
      p_full = p_first + (db.now_ms() - t1);
      // Overwritten each setup: the report carries the largest setup's
      // on-demand + background recovery metrics.
      report.AddRegistry(db.metrics());
    }
    // --- database-level (complete reload) ---
    double d_first = 0, d_downtime = 0;
    {
      DatabaseOptions o;
      o.restart_policy = RestartPolicy::kFullReload;
      o.telemetry_bucket_ns = kProbeBucketNs;
      Database db(o);
      std::vector<EntityAddr> hot;
      uint64_t steady_start_ns = 0, crash_ns = 0;
      Status st = BuildAndCrash(&db, s, &hot, &steady_start_ns, &crash_ns);
      if (st.ok()) st = db.Restart();
      if (st.ok()) st = SteadyUpdates(&db, hot, kProbeTxns);
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        continue;
      }
      d_first = db.last_restart().total_ms;
      d_downtime = PerceivedDowntimeVms(db, steady_start_ns, crash_ns);
    }
    std::printf("%8d %8lld | %14.1f %14.1f %14.1f %14.1f | %14.1f %14.1f\n",
                s.relations, static_cast<long long>(s.rows_per_relation),
                p_catalog, p_first, p_downtime, p_full, d_first, d_downtime);
    obs::JsonValue point;
    point["relations"] = s.relations;
    point["rows_per_relation"] = s.rows_per_relation;
    point["partition_catalog_vms"] = p_catalog;
    point["partition_first_txn_vms"] = p_first;
    point["partition_perceived_downtime_vms"] = p_downtime;
    point["partition_full_vms"] = p_full;
    point["full_reload_first_txn_vms"] = d_first;
    point["full_reload_perceived_downtime_vms"] = d_downtime;
    series.push_back(std::move(point));
    report.Headline("partition_first_txn_vms", p_first);
    report.Headline("full_reload_first_txn_vms", d_first);
    report.Headline("first_txn_speedup",
                    p_first > 0 ? d_first / p_first : 0.0);
    report.Headline("perceived_downtime_vms", p_downtime);
    report.Headline("full_reload_perceived_downtime_vms", d_downtime);
  }
  report.Set("series", std::move(series));
  (void)report.Write();

  // Analytic model for context.
  analysis::RecoveryModel m;
  std::printf("\nAnalytic model (48KB partitions, 3 log pages each):\n");
  std::printf("  partition recovery              : %8.1f ms\n",
              m.PartitionRecoveryMs(3));
  std::printf("  first txn (2 catalog + 4 parts) : %8.1f ms\n",
              m.TimeToFirstTransactionMs(2, 4, 3));
  std::printf("  full reload, 2000 partitions    : %8.1f ms\n",
              m.DatabaseReloadMs(2000, 6000));
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  mmdb::bench::PrintComparison();
  return 0;
}
