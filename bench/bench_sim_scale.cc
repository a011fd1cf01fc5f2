// Simulator scale: host-time throughput of the concurrent executor with
// crash recovery running beside it.
//
// Every other bench reports *virtual* time; this one measures the
// simulator itself. ROADMAP item 4 (and Wu et al.'s multicore recovery
// experiments, PAPERS.md) need 100x-scale configurations — dozens of
// workers over GB-scale storage with crash recovery running concurrently
// — and those are only affordable if the host cost per simulated
// operation stays flat. Every simulated disk page transfer is
// checksummed, and the page volume grows with database size, which is
// exactly the axis a 100x experiment scales along; the slicing-by-16
// Crc32 folds sixteen bytes per step where the byte-serial
// Crc32Reference took one.
//
// The experiment: populate one relation at GB-scale storage geometry
// (1 GiB stable memory, 32768 checkpoint-disk slots), checkpoint, crash,
// restart on-demand, then run the scripts at 32 workers with the
// heat-ordered background sweep interleaved (background_sweep=true)
// until the database is fully resident again.
//
// Headline metric: simulated-txns-per-host-second. Virtual-time results
// (completion, committed counts, sweep installs, scheduler events) are
// deterministic and identical across hosts; host rates and the process's
// peak resident set (peak_rss_mb) live in a separate "host" report
// section that tools/bench_diff.py treats as machine-local (only the
// crc32_speedup ratio is gated, loosely).
//
// Built-in gates (process exits non-zero on failure):
//   * every script commits;
//   * the sweep genuinely interleaves: partitions install after the
//     first commit, not in a trailing drain;
//   * the run ends fully resident (ready_fraction == 1);
//   * no background event callback falls back to a heap allocation;
//   * throughput clears a conservative absolute floor
//     (MMDB_SIM_SCALE_FLOOR, default 2k sim-txns/host-s) — a backstop
//     against accidental-complexity regressions in the simulator core;
//   * Crc32 runs >= 2x faster than Crc32Reference over 8 KB pages
//     (crc32_speedup, a ratio measured within the run).
//
// Scale knobs (environment): MMDB_SIM_SCALE_ROWS (default 12,000,000 —
// 275 MB of tuples, about 2 GB of simulated disk traffic; set 40,000,000
// for a true 1 GB image, see EXPERIMENTS.md), MMDB_SIM_SCALE_TXNS
// (default 6,000).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/disk.h"
#include "txn/executor.h"
#include "util/crc32.h"

namespace mmdb::bench {
namespace {

constexpr uint32_t kWorkers = 32;
constexpr uint32_t kRecoveryLanes = 4;
constexpr size_t kOpsPerTxn = 16;  // 15 point reads + 1 update
constexpr uint64_t kSeed = 1987;

uint64_t EnvScale(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0) ? parsed : def;
}

uint64_t Rows() { return EnvScale("MMDB_SIM_SCALE_ROWS", 12'000'000); }
uint64_t Txns() { return EnvScale("MMDB_SIM_SCALE_TXNS", 6'000); }
double Floor() {
  return static_cast<double>(EnvScale("MMDB_SIM_SCALE_FLOOR", 2'000));
}

struct Rig {
  std::unique_ptr<Database> db;
  std::vector<EntityAddr> addrs;
};

DatabaseOptions MakeOptions() {
  DatabaseOptions o;
  o.txn_workers = kWorkers;
  o.recovery_parallelism = kRecoveryLanes;
  o.restart_policy = RestartPolicy::kOnDemand;
  // GB-scale storage geometry: enough checkpoint-disk slots for a 1.5 GB
  // image at the default 48 KB partition size, and stable memory sized
  // like a machine that hosts such a database.
  o.checkpoint_disk_slots = 32768;
  o.stable_memory_bytes = 1ull << 30;
  o.slb_capacity_bytes = 64ull << 20;
  // No mid-run checkpoints: the restart recovers every partition from
  // the populate-time image set.
  o.n_update = 1ull << 30;
  return o;
}

Status SetupRig(Rig* rig) {
  rig->db = std::make_unique<Database>(MakeOptions());
  Database* db = rig->db.get();
  rig->addrs.reserve(Rows());
  MMDB_RETURN_IF_ERROR(
      Populate(db, "account", static_cast<int64_t>(Rows()), &rig->addrs));
  return db->CheckpointEverything();
}

// The working set is the first quarter of the relation: transactions
// fault those partitions back on-demand while the sweep restores the
// cold three quarters concurrently. (With a whole-relation working set
// the transactions would fault everything themselves and there would be
// nothing left to prove about interleaving.)
TxnScript MakeScript(const Rig& rig, Random* rng, size_t id) {
  const uint64_t hot_rows = std::max<uint64_t>(1, Rows() / 4);
  TxnScript s;
  s.label = "scale-" + std::to_string(id);
  for (size_t k = 0; k + 1 < kOpsPerTxn; ++k) {
    EntityAddr addr = rig.addrs[rng->Uniform(hot_rows)];
    s.ops.push_back([addr](Database& db, Transaction* t) {
      return db.Read(t, "account", addr).status();
    });
  }
  EntityAddr up = rig.addrs[rng->Uniform(hot_rows)];
  s.ops.push_back([up](Database& db, Transaction* t) {
    auto row = db.Read(t, "account", up);
    if (!row.ok()) return row.status();
    Tuple updated = row.value();
    updated[1] = std::get<int64_t>(updated[1]) + 1;
    return db.Update(t, "account", up, updated);
  });
  return s;
}

struct RunStats {
  bool ok = false;
  uint64_t committed = 0;
  double host_sec = 0;
  uint64_t run_vns = 0;  // restart -> completion, virtual
  uint64_t first_commit_ns = 0;
  uint64_t sweep_installs = 0;
  uint64_t last_install_ns = 0;
  uint64_t events_run = 0;
  uint64_t heap_fallbacks = 0;
};

/// Crash + on-demand restart + the full workload with the sweep
/// interleaved. Host-times the executor run, from the first dispatched
/// operation to full residency.
RunStats RunScale(Rig* rig) {
  RunStats out;
  Database* db = rig->db.get();
  db->Crash();
  Status st = db->Restart();
  if (!st.ok()) {
    std::printf("ERROR: restart: %s\n", st.ToString().c_str());
    return out;
  }
  const uint64_t v0 = db->now_ns();

  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  ConcurrentExecutor ex(db, eo);
  Random rng(kSeed);
  const uint64_t n = Txns();
  for (uint64_t i = 0; i < n; ++i) ex.Submit(MakeScript(*rig, &rng, i));

  const auto host_t0 = std::chrono::steady_clock::now();
  st = ex.Run();
  const auto host_t1 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::printf("ERROR: executor: %s\n", st.ToString().c_str());
    return out;
  }

  db->AdvanceClockTo(ex.completion_ns());
  if (db->recovery_progress().ready_fraction() != 1.0) {
    std::printf("ERROR: run ended at ready=%.3f\n",
                db->recovery_progress().ready_fraction());
    return out;
  }
  out.host_sec = std::chrono::duration<double>(host_t1 - host_t0).count();
  out.run_vns = ex.completion_ns() - v0;
  for (const ScriptResult& r : ex.results()) {
    if (r.outcome != ScriptOutcome::kCommitted) continue;
    ++out.committed;
    if (out.first_commit_ns == 0 || r.commit_ns < out.first_commit_ns) {
      out.first_commit_ns = r.commit_ns;
    }
  }
  out.sweep_installs = ex.sweep_recovered();
  out.last_install_ns = ex.last_sweep_install_ns();
  out.events_run = ex.scheduler_events_run();
  out.heap_fallbacks = ex.scheduler_heap_fallbacks();
  out.ok = true;
  return out;
}

double Rate(const RunStats& r) {
  return r.host_sec > 0 ? static_cast<double>(r.committed) / r.host_sec : 0;
}

/// Host ns per 8 KB page for `crc`, the fastest of a few passes over a
/// 2 MB buffer; `sum` accumulates every checksum so the two
/// implementations can be compared and no pass is optimized away.
double Crc32NsPerPage(const std::vector<uint8_t>& buf,
                      uint32_t (*crc)(const void*, size_t, uint32_t),
                      uint32_t* sum) {
  constexpr size_t kPage = 8192;
  const size_t pages = buf.size() / kPage;
  double best = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t p = 0; p < pages; ++p) {
      *sum += crc(buf.data() + p * kPage, kPage, 0);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (pass == 0 || ns < best) best = ns;
  }
  return best / static_cast<double>(pages);
}

/// Peak resident set of this process so far, in MB.
double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Total simulated bytes moved through the checkpoint disk and the
/// duplexed log pair over the whole run (populate + crash run) — every
/// one of these bytes was checksummed on the host, so this is the volume
/// the "GB-scale" configuration claim rests on. Deterministic.
double SimDiskGb(Database* db) {
  uint64_t bytes = db->checkpoint_disk().bytes_read() +
                   db->checkpoint_disk().bytes_written();
  for (int m = 0; m < 2; ++m) {
    bytes += db->log_disks().member(m).bytes_read();
    bytes += db->log_disks().member(m).bytes_written();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
}

bool PrintSimScale() {
  PrintHeader(
      "Simulator scale — sim-txns per host-second, 32 workers, crash + "
      "interleaved sweep");
  obs::BenchReport report("sim_scale");

  const double data_mb =
      static_cast<double>(Rows()) * 24.0 / (1024.0 * 1024.0);
  std::printf("config: %llu rows (%.0f MB of tuples), %llu txns x %zu ops, "
              "%u workers, %u recovery lanes\n",
              static_cast<unsigned long long>(Rows()), data_mb,
              static_cast<unsigned long long>(Txns()), kOpsPerTxn, kWorkers,
              kRecoveryLanes);

  Rig rig;
  Status st = SetupRig(&rig);
  if (!st.ok()) {
    std::printf("ERROR: setup: %s\n", st.ToString().c_str());
    return false;
  }

  RunStats run = RunScale(&rig);
  if (!run.ok) return false;

  const double rate = Rate(run);
  std::printf("run | %8llu txns | %7.2f host-s | %9.0f sim-txn/host-s"
              " | %6.1f vms | %llu sweep installs, %llu events\n",
              static_cast<unsigned long long>(run.committed), run.host_sec,
              rate, double(run.run_vns) / 1e6,
              static_cast<unsigned long long>(run.sweep_installs),
              static_cast<unsigned long long>(run.events_run));

  bool ok = true;
  if (run.committed != Txns()) {
    std::printf("ERROR: lost scripts: %llu committed of %llu\n",
                static_cast<unsigned long long>(run.committed),
                static_cast<unsigned long long>(Txns()));
    ok = false;
  }
  if (run.sweep_installs == 0 || run.last_install_ns <= run.first_commit_ns) {
    std::printf("ERROR: sweep did not interleave (installs=%llu, last "
                "install %llu vs first commit %llu)\n",
                static_cast<unsigned long long>(run.sweep_installs),
                static_cast<unsigned long long>(run.last_install_ns),
                static_cast<unsigned long long>(run.first_commit_ns));
    ok = false;
  } else {
    std::printf("sweep interleaved: %llu installs, last at %.1f vms, first "
                "commit at %.1f vms\n",
                static_cast<unsigned long long>(run.sweep_installs),
                double(run.last_install_ns) / 1e6,
                double(run.first_commit_ns) / 1e6);
  }
  if (run.heap_fallbacks != 0) {
    std::printf("ERROR: %llu scheduler events fell back to heap-allocated "
                "callbacks\n",
                static_cast<unsigned long long>(run.heap_fallbacks));
    ok = false;
  }
  if (rate < Floor()) {
    std::printf("ERROR: %.0f sim-txn/host-s below floor %.0f\n", rate,
                Floor());
    ok = false;
  }
  const double sim_gb = SimDiskGb(rig.db.get());
  std::printf("simulated disk traffic: %.2f GB (checkpoint + duplexed "
              "log, whole run)\n", sim_gb);

  // The checksum's host-time headroom, within this run: byte-serial
  // reference vs slicing-by-16 over 8 KB pages of random bytes.
  std::vector<uint8_t> pages(2u << 20);
  Random fill(kSeed);
  for (uint8_t& b : pages) b = static_cast<uint8_t>(fill.Uniform(256));
  uint32_t ref_sum = 0;
  uint32_t fast_sum = 0;
  const double ref_ns = Crc32NsPerPage(pages, Crc32Reference, &ref_sum);
  const double fast_ns = Crc32NsPerPage(pages, Crc32, &fast_sum);
  const double crc_speedup = fast_ns > 0 ? ref_ns / fast_ns : 0;
  if (ref_sum != fast_sum) {
    std::printf("ERROR: Crc32 and Crc32Reference disagree\n");
    ok = false;
  }
  if (crc_speedup < 2.0) {
    std::printf("ERROR: crc32 %.0f vs reference %.0f host-ns per 8 KB page "
                "(%.2fx < 2x)\n", fast_ns, ref_ns, crc_speedup);
    ok = false;
  } else {
    std::printf("checksum: crc32 %.0f vs reference %.0f host-ns per 8 KB "
                "page (%.2fx)\n", fast_ns, ref_ns, crc_speedup);
  }

  // Deterministic virtual-time results: safe to diff across machines.
  report.Headline("txns_committed", static_cast<int64_t>(run.committed));
  report.Headline("sim_disk_gb", sim_gb);
  report.Headline("completion_vms", double(run.run_vns) / 1e6);
  report.Headline("sweep_installs", static_cast<int64_t>(run.sweep_installs));
  report.Headline("scheduler_events", static_cast<int64_t>(run.events_run));
  // Host-local measurements: machine-dependent, reported under "host"
  // where bench_diff gates only the within-run crc32_speedup ratio.
  obs::JsonValue host;
  host["sim_txns_per_host_sec"] = rate;
  host["host_seconds"] = run.host_sec;
  host["crc32_speedup"] = crc_speedup;
  host["floor_sim_txns_per_host_sec"] = Floor();
  host["peak_rss_mb"] = PeakRssMb();
  report.Set("host", std::move(host));
  (void)report.Write();
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintSimScale();
  return ok ? 0 : 1;
}
