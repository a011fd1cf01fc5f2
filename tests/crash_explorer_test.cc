// Crash-schedule exploration: enumerate crash points across every fault
// site of a scripted workload, re-run recovery after each, and assert the
// recovery invariants (durability, atomicity, index consistency,
// byte-identical partitions vs a no-crash oracle, post-recovery
// usability). Everything is reproducible from a single seed; the chaos CI
// job overrides it via MMDB_CHAOS_SEED. With MMDB_CHAOS_SUMMARY naming a
// file, the main sweep appends its seed, points explored and a digest of
// the explored (site, visit) list to it, so runs under different seeds
// can be told apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fault/crash_explorer.h"
#include "test_util.h"

namespace mmdb::fault {
namespace {

uint64_t SeedFromEnv() {
  const char* e = std::getenv("MMDB_CHAOS_SEED");
  if (e == nullptr || *e == '\0') return 1;
  return std::strtoull(e, nullptr, 10);
}

/// FNV-1a over the explored (site, visit) list, in sweep order.
uint64_t ExploredDigest(const ExplorerReport& report) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [site, visit] : report.explored) {
    const std::string point =
        std::string(SiteName(site)) + ":" + std::to_string(visit) + ";";
    for (unsigned char c : point) h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

/// Appends the sweep's summary line to the file MMDB_CHAOS_SUMMARY names.
void AppendSummary(uint64_t seed, const ExplorerReport& report) {
  const char* path = std::getenv("MMDB_CHAOS_SUMMARY");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  ASSERT_NE(f, nullptr) << path;
  std::fprintf(f,
               "crash explorer: seed %llu, points_explored %llu, "
               "explored-visit digest %016llx\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(report.points_explored),
               static_cast<unsigned long long>(ExploredDigest(report)));
  std::fclose(f);
}

TEST(CrashExplorerTest, AllCrashPointsRecoverWithInvariantsIntact) {
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));
  AppendSummary(opts.seed, report);

  // The sweep must cover a substantial schedule: >= 100 distinct crash
  // points, with every site visited by the probe.
  EXPECT_GE(report.points_explored, 100u);
  EXPECT_GT(report.crashes_delivered, 0u);
  for (size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_GT(report.probe_visits[s], 0u)
        << "site " << SiteName(static_cast<Site>(s))
        << " never visited by the probe workload";
  }

  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " violations:" << all;
}

TEST(CrashExplorerTest, ReportIsDeterministicForASeed) {
  ExplorerOptions opts;
  opts.seed = 7;
  opts.max_points_per_site = 3;  // trimmed sweep: determinism, not coverage
  ExplorerReport a, b;
  {
    CrashExplorer explorer(opts);
    ASSERT_OK(explorer.Run(&a));
  }
  {
    CrashExplorer explorer(opts);
    ASSERT_OK(explorer.Run(&b));
  }
  EXPECT_EQ(a.points_explored, b.points_explored);
  EXPECT_EQ(a.crashes_delivered, b.crashes_delivered);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.explored, b.explored);
  for (size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_EQ(a.probe_visits[s], b.probe_visits[s]) << "site " << s;
  }
}

TEST(CrashExplorerTest, SeedSteersTheSubsample) {
  // Stable-memory accesses are visited far more often than 4 times, so
  // the site is subsampled: each seed starts at its own offset into the
  // stride, and two seeds crash at disjoint visits.
  std::vector<std::pair<Site, uint64_t>> explored[2];
  for (uint64_t seed : {1u, 2u}) {
    ExplorerOptions opts;
    opts.seed = seed;
    opts.sites = {Site::kStableMemAccess};
    opts.max_points_per_site = 4;
    CrashExplorer explorer(opts);
    ExplorerReport report;
    ASSERT_OK(explorer.Run(&report));
    EXPECT_EQ(report.violations, 0u);
    ASSERT_GT(report.probe_visits[static_cast<size_t>(Site::kStableMemAccess)],
              4u);
    EXPECT_EQ(report.points_explored, report.explored.size());
    EXPECT_EQ(report.explored.front().second, seed);
    explored[seed - 1] = report.explored;
  }
  ASSERT_FALSE(explored[0].empty());
  for (const auto& point : explored[0]) {
    EXPECT_EQ(std::count(explored[1].begin(), explored[1].end(), point), 0)
        << "visit " << point.second;
  }
}

TEST(CrashExplorerTest, OnDemandRestartSurvivesEveryCrashPoint) {
  // The serial sweep restarting under kOnDemand: every crash point comes
  // back through faults, the T-tree's a whole-index fault, on one lane
  // and on four; the sweep then brings back the rest before the images
  // are compared.
  for (uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ExplorerOptions opts;
    opts.seed = SeedFromEnv();
    opts.restart_policy = RestartPolicy::kOnDemand;
    opts.recovery_parallelism = lanes;
    opts.max_points_per_site = 24;  // trimmed per-site: still every site
    CrashExplorer explorer(opts);
    ExplorerReport report;
    ASSERT_OK(explorer.Run(&report));

    EXPECT_GT(report.points_explored, 0u);
    EXPECT_GT(report.crashes_delivered, 0u);
    std::string all;
    for (const std::string& f : report.failures) all += "\n  " + f;
    EXPECT_EQ(report.violations, 0u)
        << "seed " << opts.seed << " on-demand lanes=" << lanes
        << " violations:" << all;
  }
}

TEST(CrashExplorerTest, ConcurrentWorkloadSurvivesEveryCrashPoint) {
  // The same sweep over the concurrent workload: four executor workers
  // interleaving contending transactions (hot-row updates through the
  // wait queues) while the crash lands at every site. The expected state
  // is rebuilt from the executor's commit order, so durability and
  // atomicity are checked against what actually committed concurrently.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  opts.txn_workers = 4;
  opts.max_points_per_site = 12;  // trimmed per-site: still every site
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));

  EXPECT_GT(report.points_explored, 0u);
  EXPECT_GT(report.crashes_delivered, 0u);
  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " workers=4 violations:" << all;
}

TEST(CrashExplorerTest, MvccReadersSurviveEveryCrashPoint) {
  // The concurrent sweep with read-only snapshot transactions riding in
  // every executor wave: crashes land while snapshots are live, version
  // chains are populated, and installs are in flight. On top of the
  // usual invariants, every point checks that no version survives the
  // restart, that a snapshot reader served right after recovery sees
  // exactly the recovered committed state, and that version pruning is
  // idempotent when the reclaimer resumes. Run across both log layouts
  // so version installs under epoch group commit are covered too.
  for (uint32_t streams : {1u, 4u}) {
    SCOPED_TRACE("streams=" + std::to_string(streams));
    ExplorerOptions opts;
    opts.seed = SeedFromEnv();
    opts.txn_workers = 4;
    opts.log_streams = streams;
    opts.mvcc_readers = true;
    opts.max_points_per_site = 12;  // trimmed per-site: still every site
    CrashExplorer explorer(opts);
    ExplorerReport report;
    ASSERT_OK(explorer.Run(&report));

    EXPECT_GT(report.points_explored, 0u);
    EXPECT_GT(report.crashes_delivered, 0u);
    std::string all;
    for (const std::string& f : report.failures) all += "\n  " + f;
    EXPECT_EQ(report.violations, 0u)
        << "seed " << opts.seed << " workers=4 streams=" << streams
        << " mvcc violations:" << all;
  }
}

TEST(CrashExplorerTest, PartitionedLogSurvivesEveryCrashPoint) {
  // Partitioned parallel logging under the concurrent workload: four
  // workers routed across four log streams with epoch group commit. The
  // sweep lands crashes at every site — including between the per-stream
  // epoch-fence writes, the group-commit window where an epoch is
  // acknowledged on a prefix of the streams only. The durability check
  // folds the epoch ledger against the restart's reported frontier, so
  // any stream keeping a discarded epoch (or dropping a fenced one)
  // shows up as a violation.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  opts.txn_workers = 4;
  opts.log_streams = 4;
  opts.max_points_per_site = 12;  // trimmed per-site: still every site
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));

  EXPECT_GT(report.points_explored, 0u);
  EXPECT_GT(report.crashes_delivered, 0u);
  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " workers=4 streams=4 violations:" << all;
}

TEST(CrashExplorerTest, SinglePointIsReproducible) {
  // The repro path printed in a failure line: re-run one (site, visit)
  // pair under the same seed.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  CrashExplorer explorer(opts);
  std::string f1, f2;
  ASSERT_OK(explorer.RunPoint(Site::kSlbFlush, 1, &f1));
  ASSERT_OK(explorer.RunPoint(Site::kSlbFlush, 1, &f2));
  EXPECT_EQ(f1, f2);
  EXPECT_TRUE(f1.empty()) << f1;
}

}  // namespace
}  // namespace mmdb::fault
