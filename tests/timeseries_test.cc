#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "recovery/progress.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using obs::AnalyzeRecoveryCurve;
using obs::CounterSeries;
using obs::GaugeSeries;
using obs::LogSketch;

// ---------------------------------------------------------------------------
// Windowed collectors
// ---------------------------------------------------------------------------

TEST(CounterSeriesTest, BucketRolloverAtWindowBoundaries) {
  CounterSeries s(1000);
  // The last instant of bucket 0, the first of bucket 1: boundary is
  // half-open [0,1000), [1000,2000).
  s.Add(999);
  s.Add(1000);
  s.Add(1999);
  s.Add(2000, 5);
  EXPECT_EQ(s.ValueAt(0), 1u);
  EXPECT_EQ(s.ValueAt(1), 2u);
  EXPECT_EQ(s.ValueAt(2), 5u);
  EXPECT_EQ(s.total(), 8u);
  EXPECT_EQ(s.nonempty_buckets(), 3u);
  EXPECT_EQ(s.BucketOf(999), 0u);
  EXPECT_EQ(s.BucketOf(1000), 1u);
  EXPECT_EQ(s.BucketStartNs(2), 2000u);
}

TEST(CounterSeriesTest, EmptyWindowsReadZeroAndOccupyNothing) {
  CounterSeries s(100);
  s.Add(50);
  s.Add(1050);  // buckets 1..9 never touched
  EXPECT_EQ(s.nonempty_buckets(), 2u);
  for (uint64_t b = 1; b < 10; ++b) EXPECT_EQ(s.ValueAt(b), 0u);
  EXPECT_EQ(s.ValueAt(0), 1u);
  EXPECT_EQ(s.ValueAt(10), 1u);
  s.Reset();
  EXPECT_EQ(s.nonempty_buckets(), 0u);
  EXPECT_EQ(s.total(), 0u);
}

TEST(GaugeSeriesTest, WindowTracksLastMinMax) {
  GaugeSeries s(1000);
  s.Sample(10, 5.0);
  s.Sample(20, 1.0);
  s.Sample(30, 3.0);
  s.Sample(2500, 7.0);
  ASSERT_EQ(s.nonempty_buckets(), 2u);
  const auto& w0 = s.buckets().at(0);
  EXPECT_DOUBLE_EQ(w0.last, 3.0);
  EXPECT_DOUBLE_EQ(w0.min, 1.0);
  EXPECT_DOUBLE_EQ(w0.max, 5.0);
  EXPECT_EQ(w0.samples, 3u);
  const auto& w2 = s.buckets().at(2);
  EXPECT_DOUBLE_EQ(w2.last, 7.0);
  EXPECT_DOUBLE_EQ(w2.min, 7.0);
  EXPECT_DOUBLE_EQ(w2.max, 7.0);
}

// ---------------------------------------------------------------------------
// LogSketch accuracy
// ---------------------------------------------------------------------------

double ExactPercentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(std::ceil(p * xs.size()));
  if (rank == 0) rank = 1;
  return xs[rank - 1];
}

TEST(LogSketchTest, RelativeErrorUnderFivePercent) {
  // A mixed distribution spanning five decades: uniform bulk plus a
  // long multiplicative tail, the shape of commit latencies.
  Random rng(42);
  std::vector<double> xs;
  LogSketch sk;
  for (int i = 0; i < 20000; ++i) {
    double v;
    if (i % 10 == 0) {
      v = 1e6 * (1.0 + static_cast<double>(rng.Uniform(1000)) / 100.0);
    } else {
      v = 1000.0 + static_cast<double>(rng.Uniform(100000));
    }
    xs.push_back(v);
    sk.Record(v);
  }
  for (double p : {0.5, 0.95, 0.99, 0.999}) {
    double exact = ExactPercentile(xs, p);
    double approx = sk.Percentile(p);
    EXPECT_LT(std::abs(approx - exact) / exact, 0.05)
        << "p=" << p << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_EQ(sk.count(), 20000u);
}

TEST(LogSketchTest, EmptyAndSingleValue) {
  LogSketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_DOUBLE_EQ(sk.Percentile(0.5), 0.0);
  sk.Record(12345.0);
  // One value: every percentile clamps to it exactly.
  EXPECT_DOUBLE_EQ(sk.Percentile(0.0), 12345.0);
  EXPECT_DOUBLE_EQ(sk.Percentile(0.5), 12345.0);
  EXPECT_DOUBLE_EQ(sk.Percentile(1.0), 12345.0);
  sk.Reset();
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_DOUBLE_EQ(sk.max(), 0.0);
}

// ---------------------------------------------------------------------------
// Recovery-curve analysis
// ---------------------------------------------------------------------------

TEST(RecoveryCurveTest, SyntheticCrashCurve) {
  // Steady 10/bucket for buckets 5..19; crash at bucket 20; dead for
  // 20..25; ramp 26..29 (2,4,6,8); recovered 10/bucket for 30..35.
  CounterSeries s(1000);
  for (uint64_t b = 5; b < 20; ++b) s.Add(b * 1000, 10);
  for (uint64_t b = 26; b < 30; ++b) s.Add(b * 1000, (b - 25) * 2);
  for (uint64_t b = 30; b <= 35; ++b) s.Add(b * 1000, 10);
  auto stats = AnalyzeRecoveryCurve(s, 5000, 20000);
  EXPECT_DOUBLE_EQ(stats.steady_per_bucket, 10.0);
  // Below 50% of steady (5): buckets 20..27 (empty, then 2, then 4) =
  // 8 windows.
  EXPECT_EQ(stats.perceived_downtime_ns, 8000u);
  // First window at >= 90% (9) is bucket 30; measured from the crash to
  // that window's end: 31*1000 - 20000.
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.time_to_recover_ns, 11000u);
  EXPECT_EQ(stats.nonempty_pre_crash, 15u);
  EXPECT_EQ(stats.nonempty_post_crash, 10u);
}

TEST(RecoveryCurveTest, NeverRecoversReportsFullSpan) {
  CounterSeries s(1000);
  for (uint64_t b = 0; b < 10; ++b) s.Add(b * 1000, 10);
  s.Add(15000, 1);  // post-crash trickle, never near steady
  auto stats = AnalyzeRecoveryCurve(s, 0, 10000);
  EXPECT_FALSE(stats.recovered);
  EXPECT_EQ(stats.time_to_recover_ns, 6000u);  // through bucket 15's end
  EXPECT_EQ(stats.perceived_downtime_ns, 6000u);
}

TEST(RecoveryCurveTest, DegenerateInputs) {
  CounterSeries empty(1000);
  auto stats = AnalyzeRecoveryCurve(empty, 0, 5000);
  EXPECT_DOUBLE_EQ(stats.steady_per_bucket, 0.0);
  EXPECT_EQ(stats.perceived_downtime_ns, 0u);

  CounterSeries s(1000);
  s.Add(500, 10);
  // Crash bucket not after steady start: nothing to analyze.
  auto stats2 = AnalyzeRecoveryCurve(s, 2000, 1000);
  EXPECT_DOUBLE_EQ(stats2.steady_per_bucket, 0.0);
}

// ---------------------------------------------------------------------------
// RecoveryProgressTracker
// ---------------------------------------------------------------------------

TEST(RecoveryProgressTrackerTest, ProgressionZeroToOne) {
  obs::MetricsRegistry reg;
  RecoveryProgressTracker t;
  t.AttachMetrics(&reg, 1000);
  EXPECT_DOUBLE_EQ(t.ready_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("recovery.ready_fraction"), 1.0);

  t.OnCrash(10000);
  EXPECT_DOUBLE_EQ(t.ready_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("recovery.ready_fraction"), 0.0);

  t.BeginTracking(4, 11000);
  EXPECT_TRUE(t.tracking());
  EXPECT_EQ(t.pending(), 4u);

  t.OnPartitionsRecovered(RecoverySource::kOnDemand, 1, 7, 12000);
  EXPECT_DOUBLE_EQ(t.ready_fraction(), 0.25);
  t.OnPartitionCreated(12500);  // born resident: 2/5
  EXPECT_DOUBLE_EQ(t.ready_fraction(), 0.4);
  t.OnPartitionsRecovered(RecoverySource::kBackground, 3, 11, 13000);
  EXPECT_DOUBLE_EQ(t.ready_fraction(), 1.0);
  EXPECT_FALSE(t.tracking());
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("recovery.ready_fraction"), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("recovery.partitions_pending"), 0.0);

  // Source attribution counters.
  EXPECT_EQ(reg.counter_value("recovery.partitions_recovered.ondemand"), 1u);
  EXPECT_EQ(reg.counter_value("recovery.records_replayed.ondemand"), 7u);
  EXPECT_EQ(reg.counter_value("recovery.partitions_recovered.background"), 3u);
  EXPECT_EQ(reg.counter_value("recovery.records_replayed.background"), 11u);

  // The ready-fraction curve recorded the whole progression.
  const GaugeSeries* s = reg.find_gauge_series("recovery.ready_fraction");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->buckets().at(10).last, 0.0);
  EXPECT_DOUBLE_EQ(s->buckets().at(13).last, 1.0);
}

// ---------------------------------------------------------------------------
// Registry integration + deterministic export
// ---------------------------------------------------------------------------

TEST(RegistryTimeSeriesTest, ScopesAndExportSections) {
  obs::MetricsRegistry reg;
  auto* stable = reg.counter_series("a.stable", 1000, obs::Scope::kStable);
  auto* vol = reg.counter_series("a.volatile", 1000, obs::Scope::kVolatile);
  auto* sk = reg.sketch("a.sketch", obs::Scope::kVolatile);
  stable->Add(100);
  vol->Add(100);
  sk->Record(5000.0);
  reg.ResetVolatile();
  EXPECT_EQ(stable->total(), 1u);
  EXPECT_EQ(vol->total(), 0u);
  EXPECT_EQ(sk->count(), 0u);
  // Re-requesting returns the same handle; first bucket width wins.
  EXPECT_EQ(reg.counter_series("a.stable", 9999), stable);
  EXPECT_EQ(stable->bucket_ns(), 1000u);

  sk->Record(5000.0);
  auto doc = obs::RegistryToJsonValue(reg);
  const obs::JsonValue* series = doc.Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_NE(series->Find("a.stable"), nullptr);
  EXPECT_EQ(series->Find("a.stable")->Find("kind")->as_string(), "counter");
  const obs::JsonValue* sketches = doc.Find("sketches");
  ASSERT_NE(sketches, nullptr);
  EXPECT_EQ(sketches->Find("a.sketch")->Find("count")->as_number(), 1.0);
  ASSERT_NE(sketches->Find("a.sketch")->Find("p999"), nullptr);
}

Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"balance", ColumnType::kInt64}});
}

// One full crash-recovery cycle with user transactions on both sides.
// Returns the registry export JSON.
std::string RunCrashCycle() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 1 << 30;
  Database db(o);
  EXPECT_OK(db.CreateRelation("acct", AccountSchema()));
  std::vector<EntityAddr> addrs;
  {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    for (int64_t i = 0; i < 200; ++i) {
      auto a = db.Insert(t.value(), "acct", Tuple{i, i * 10});
      EXPECT_TRUE(a.ok());
      addrs.push_back(a.value());
    }
    EXPECT_OK(db.Commit(t.value()));
  }
  EXPECT_OK(db.CheckpointEverything());
  for (int64_t i = 0; i < 50; ++i) {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    EXPECT_OK(db.Update(t.value(), "acct", addrs[i % addrs.size()],
                        Tuple{i % 200, i}));
    EXPECT_OK(db.Commit(t.value()));
  }
  db.Crash();
  EXPECT_OK(db.Restart());
  EXPECT_DOUBLE_EQ(db.metrics().gauge_value("recovery.ready_fraction"),
                   db.recovery_progress().ready_fraction());
  for (int64_t i = 0; i < 50; ++i) {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    EXPECT_OK(db.Update(t.value(), "acct", addrs[i % addrs.size()],
                        Tuple{i % 200, i + 1}));
    EXPECT_OK(db.Commit(t.value()));
  }
  bool done = false;
  while (!done) EXPECT_OK(db.BackgroundRecoveryStep(&done));
  EXPECT_DOUBLE_EQ(db.recovery_progress().ready_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(db.metrics().gauge_value("recovery.ready_fraction"), 1.0);

  // The commit curve is stable scope: it spans the crash, with commits
  // recorded on both sides.
  const CounterSeries* commits = db.metrics().find_counter_series(
      "txn.commit_rate");
  EXPECT_NE(commits, nullptr);
  EXPECT_EQ(commits->total(), 100u + 1u);  // 50+50 updates + populate txn
  return obs::RegistryToJsonValue(db.metrics()).Dump();
}

TEST(RegistryTimeSeriesTest, ByteIdenticalExportAcrossIdenticalRuns) {
  std::string a = RunCrashCycle();
  std::string b = RunCrashCycle();
  EXPECT_EQ(a, b);
  // The export carries the series and the recovery attribution.
  EXPECT_NE(a.find("\"txn.commit_rate\""), std::string::npos);
  EXPECT_NE(a.find("\"recovery.ready_fraction\""), std::string::npos);
  EXPECT_NE(a.find("recovery.partitions_recovered.ondemand"),
            std::string::npos);
}

}  // namespace
}  // namespace mmdb
