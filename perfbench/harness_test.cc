// Checks the benchmark's own rules: the percentile rule, the end of the
// sustained-throughput window, the TP1 oracle and span self time.
// Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness.h"

namespace perfbench {
namespace {

int g_failed = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failed;
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(double(i));  // unsorted input
  return v;
}

void PercentileRule() {
  Expect(PercentileSupported(1000, 0.99), "p99 of 1000 samples has 10 beyond");
  Expect(!PercentileSupported(999, 0.99), "p99 of 999 samples has only 9 beyond");
  Expect(PercentileSupported(20, 0.5), "p50 of 20 samples has 10 beyond");
  Expect(!PercentileSupported(19, 0.5), "p50 of 19 samples has only 9 beyond");
  Expect(!PercentileSupported(0, 0.5), "no samples support no percentile");
  Expect(Percentile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(Percentile(OneTo(1000), 0.5) == 500.0, "p50 of 1..1000 is 500");
  Expect(!Percentile(OneTo(999), 0.99).has_value(),
         "p99 of 999 samples is not reported");
  Expect(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.0,
         "median is a measured value");
}

void WindowEnd() {
  WindowCost w;
  w.main_ns = 100e6;  // 100 vms of main-side work
  w.recovery_mips = 1.0;
  w.recovery_instructions = 50e3;  // 50 vms on a 1-MIPS recovery CPU
  w.log_disk_busy_ns = 20e6;
  Expect(SustainedWindowNs(w) == 100e6, "main-bound window ends at main side");
  Expect(TxnPerVirtualSecond(1000, w) == 10000.0, "1000 txn / 100 vms");
  w.recovery_instructions = 400e3;  // 400 vms: the sort process lags
  Expect(SustainedWindowNs(w) == 400e6,
         "recovery-bound window ends when the sort catches up");
  Expect(TxnPerVirtualSecond(1000, w) == 2500.0, "1000 txn / 400 vms");
  w.recovery_mips = 2.0;
  Expect(SustainedWindowNs(w) == 200e6, "recovery time scales with MIPS");
  w.log_disk_busy_ns = 300e6;
  Expect(SustainedWindowNs(w) == 300e6, "disk-bound window ends at disk");
}

/// Runs `n` TP1 transactions against a real database and reads back the
/// state the oracle judges.
Tp1State RunTp1(int n) {
  mmdb::Database db;
  mmdb::bench::DebitCreditRig rig;
  mmdb::Status st = mmdb::bench::SetupDebitCredit(&db, 2000, &rig);
  mmdb::Random rng(7);
  for (int i = 0; st.ok() && i < n; ++i) {
    st = mmdb::bench::DebitCredit(&db, &rig, &rng);
  }
  if (!st.ok()) {
    std::printf("FAIL  TP1 run: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  Tp1State s;
  auto txn = db.Begin();
  auto delta = [&](const std::string& rel, int64_t* rows) {
    auto all = db.Scan(txn.value(), rel);
    int64_t sum = 0;
    for (const auto& [_, t] : all.value()) sum += std::get<int64_t>(t[1]) - 1000;
    if (rows != nullptr) *rows = static_cast<int64_t>(all.value().size());
    return sum;
  };
  s.account_delta = delta("account", nullptr);
  s.teller_delta = delta("teller", nullptr);
  s.branch_delta = delta("branch", nullptr);
  delta("history", &s.history_rows);
  (void)db.Commit(txn.value());
  return s;
}

void Tp1Oracle() {
  const Tp1State s = RunTp1(50);
  Expect(CheckTp1(s, 50).empty(), "oracle accepts 50 committed TP1 txns");
  Expect(!CheckTp1(s, 51).empty(),
         "oracle rejects a run that dropped one acknowledged commit");
  Tp1State lost_history = s;
  lost_history.history_rows -= 1;
  Expect(!CheckTp1(lost_history, 50).empty(),
         "oracle rejects a lost history row");
  Expect(CheckSnapshotPrefix(Tp1State{7, 7, 7, 0}, 50).empty(),
         "a consistent snapshot is a commit-order prefix");
  Expect(!CheckSnapshotPrefix(Tp1State{7, 6, 7, 0}, 50).empty(),
         "a torn snapshot is rejected");
  Expect(!CheckSnapshotPrefix(Tp1State{51, 51, 51, 0}, 50).empty(),
         "a snapshot past the committed count is rejected");
}

void SpanSelfTime() {
  SpanRecorder rec;
  ScopedSpan off(&rec, "ignored");
  Expect(rec.spans().empty(), "a disabled recorder records nothing");
  rec.Enable(true);
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner");
  }
  Expect(rec.spans().size() == 2 && rec.spans()[1].parent == 0,
         "nested span records its parent");
  const auto self = rec.SelfTimes();
  const double outer_ns =
      double(rec.spans()[0].end_ns - rec.spans()[0].start_ns);
  const double inner_ns =
      double(rec.spans()[1].end_ns - rec.spans()[1].start_ns);
  Expect(self.at("outer") == outer_ns - inner_ns,
         "self time excludes the child span");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::WindowEnd();
  perfbench::Tp1Oracle();
  perfbench::SpanSelfTime();
  std::printf("%s\n", perfbench::g_failed == 0 ? "all checks passed"
                                               : "some checks FAILED");
  return perfbench::g_failed == 0 ? 0 : 1;
}
