// Partitioned parallel logging: committed-transaction throughput vs the
// number of log streams, at high worker counts.
//
// The TP1 workload of bench_concurrency_scaling is log-light (four small
// records per transaction, 2 KB SLB blocks), so the shared SLB
// allocation gate serializes only a few microseconds per transaction and
// worker scaling runs free into the dozens. This bench is the opposite
// extreme — the single-log-stream ceiling made visible: wide 24-column
// tuples in 256-byte SLB blocks mean every one of the 12 updates per
// transaction allocates a fresh block inside the gate's critical
// section, so with one stream the gate saturates near 20k txn/s no
// matter how many workers pile on. Partitioning the log into S streams
// gives each worker set its own gate, SLB pool, sort process, and
// duplexed disk pair; epoch group commit keeps cross-stream durability
// coherent.
//
// Sweeps workers {16, 32} x log_streams {1, 2, 4, 8} on a fixed
// pre-generated low-conflict update workload (disjoint row ranges for
// concurrently admitted scripts). Built-in checks (process exits
// non-zero on failure):
//   * throughput is monotonically non-degrading in stream count at each
//     worker count, and strictly improving 1 -> 4;
//   * streams=4 or streams=8 reaches >= 1.5x the single-stream
//     throughput at 32 workers (the headline stream win);
//   * every run commits the full script set.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "txn/executor.h"

namespace mmdb::bench {
namespace {

constexpr int64_t kRows = 4096;
constexpr size_t kTxns = 512;
constexpr int kOpsPerTxn = 12;
constexpr int kCols = 24;

Schema WideSchema() {
  std::vector<Column> cols;
  cols.push_back({"id", ColumnType::kInt64});
  for (int c = 1; c < kCols; ++c) {
    cols.push_back({"c" + std::to_string(c), ColumnType::kInt64});
  }
  return Schema(cols);
}

/// Full-width values: about 2^60, so every value column is a 9-byte
/// varint, a row stays ~210 bytes and an update never outgrows its slot.
Tuple WideTuple(int64_t id, int64_t v) {
  constexpr int64_t kFullWidth = int64_t{1} << 60;
  Tuple t;
  t.reserve(kCols);
  t.push_back(id);
  for (int c = 1; c < kCols; ++c) t.push_back(kFullWidth + v + c);
  return t;
}

DatabaseOptions MakeOptions(uint32_t workers, uint32_t streams) {
  DatabaseOptions o;
  o.txn_workers = workers;
  o.log_streams = streams;
  // Tiny SLB blocks: one ~220-byte wide-tuple record fills a block, so
  // every logged update allocates inside the gate's critical section —
  // the log hot path this bench is about.
  o.slb_block_bytes = 256;
  // No mid-run checkpoints: the sweep measures logging contention.
  o.n_update = 1ull << 30;
  return o;
}

struct BenchRig {
  std::unique_ptr<Database> db;
  std::vector<EntityAddr> rows;
};

Status SetupRig(uint32_t workers, uint32_t streams, BenchRig* rig) {
  rig->db = std::make_unique<Database>(MakeOptions(workers, streams));
  Database* db = rig->db.get();
  MMDB_RETURN_IF_ERROR(db->CreateRelation("wide", WideSchema()));
  int64_t id = 0;
  while (id < kRows) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    for (int k = 0; k < 64 && id < kRows; ++k, ++id) {
      auto a = db->Insert(txn.value(), "wide", WideTuple(id, 0));
      if (!a.ok()) return a.status();
    }
    MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  }
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  auto rows = db->Scan(txn.value(), "wide");
  if (!rows.ok()) return rows.status();
  for (auto& [a, _] : rows.value()) rig->rows.push_back(a);
  return db->Commit(txn.value());
}

// Script i updates rows (i*kOpsPerTxn + j) % kRows. Concurrently
// admitted scripts (at most 32 apart) touch disjoint ranges; only
// scripts ~341 apart wrap onto the same rows, and those never run
// together, so the sweep measures the log path, not lock queueing.
TxnScript MakeScript(const BenchRig& rig, size_t i) {
  TxnScript s;
  s.label = "wide-" + std::to_string(i);
  for (int j = 0; j < kOpsPerTxn; ++j) {
    size_t row = (i * kOpsPerTxn + j) % size_t{kRows};
    EntityAddr addr = rig.rows[row];
    int64_t value = int64_t(i) * 100 + j;
    s.ops.push_back([addr, row, value](Database& db, Transaction* t) {
      return db.Update(t, "wide", addr,
                       WideTuple(static_cast<int64_t>(row), value));
    });
  }
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

RunResult RunOne(uint32_t workers, uint32_t streams) {
  RunResult r;
  BenchRig rig;
  Status st = SetupRig(workers, streams, &rig);
  if (!st.ok()) {
    std::printf("ERROR: setup: %s\n", st.ToString().c_str());
    return r;
  }
  uint64_t t0 = rig.db->now_ns();
  ConcurrentExecutor ex(rig.db.get());
  for (size_t i = 0; i < kTxns; ++i) ex.Submit(MakeScript(rig, i));
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

bool PrintStreamScaling() {
  PrintHeader("Partitioned parallel logging — committed txn/s vs streams");
  obs::BenchReport report("log_streams");
  obs::JsonValue series;
  bool ok = true;

  const uint32_t worker_counts[] = {16, 32};
  const uint32_t stream_counts[] = {1, 2, 4, 8};
  double best_speedup_w32 = 0.0;
  for (uint32_t w : worker_counts) {
    std::printf("workers=%u\n", w);
    std::printf("%8s | %12s %12s %8s %8s %10s\n", "streams", "elapsed vms",
                "txn/s", "waits", "dlocks", "vs s=1");
    double thr_s1 = 0, prev = 0;
    for (uint32_t s : stream_counts) {
      RunResult r = RunOne(w, s);
      if (!r.ok || r.committed != kTxns) {
        std::printf("ERROR: w=%u s=%u run failed (%llu/%zu committed)\n", w, s,
                    static_cast<unsigned long long>(r.committed), kTxns);
        ok = false;
        continue;
      }
      double thr = r.txn_per_sec();
      if (s == 1) thr_s1 = thr;
      std::printf("%8u | %12.3f %12.0f %8llu %8llu %9.2fx\n", s,
                  double(r.elapsed_ns) / 1e6, thr,
                  static_cast<unsigned long long>(r.waits),
                  static_cast<unsigned long long>(r.deadlocks),
                  thr_s1 > 0 ? thr / thr_s1 : 0.0);
      obs::JsonValue point;
      point["workers"] = int64_t(w);
      point["streams"] = int64_t(s);
      point["elapsed_vms"] = double(r.elapsed_ns) / 1e6;
      point["txn_per_sec"] = thr;
      point["waits"] = int64_t(r.waits);
      point["deadlocks"] = int64_t(r.deadlocks);
      series.push_back(std::move(point));
      std::string tag = "_w" + std::to_string(w) + "_s" + std::to_string(s);
      report.Headline("elapsed_vms" + tag, double(r.elapsed_ns) / 1e6);
      report.Headline("txn_per_sec" + tag, thr);
      // Adding streams must never degrade throughput, and the first
      // doublings must genuinely pay (the gate is the bottleneck here).
      if (prev > 0 && thr < prev) {
        std::printf("ERROR: w=%u throughput fell from %.0f to %.0f txn/s at "
                    "%u streams\n", w, prev, thr, s);
        ok = false;
      }
      if (s <= 4 && prev > 0 && thr < prev * 1.01) {
        std::printf("ERROR: w=%u streams=%u no real gain over %u streams "
                    "(%.0f vs %.0f txn/s)\n", w, s, s / 2, thr, prev);
        ok = false;
      }
      if (w == 32 && (s == 4 || s == 8) && thr_s1 > 0) {
        best_speedup_w32 = std::max(best_speedup_w32, thr / thr_s1);
      }
      prev = thr;
    }
    if (thr_s1 <= 0) ok = false;
    std::printf("\n");
  }

  report.Headline("streams_speedup_w32", best_speedup_w32);
  std::printf("best stream speedup at 32 workers: %.2fx\n", best_speedup_w32);
  if (best_speedup_w32 < 1.5) {
    std::printf("ERROR: stream speedup %.2fx at 32 workers below the 1.5x "
                "gate\n", best_speedup_w32);
    ok = false;
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintStreamScaling();
  return ok ? 0 : 1;
}
