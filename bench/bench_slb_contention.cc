// Ablation for §2.3.1: per-transaction log block chains vs a single
// shared log tail.
//
// "Because of these separate lists, transactions do not have to
// synchronize with each other to write to the log... having each
// transaction manage its own log record list greatly ameliorates the
// traditional 'hot spot' problem of the log tail."
//
// The simulation is single-threaded, so we quantify the hot spot the way
// the paper frames it: the number of serialized critical-section entries
// a workload of interleaved transactions would need. With the paper's
// design a transaction enters a critical section only to allocate a
// block (one entry per ~block_size/record_size records); with a shared
// log tail every record append is a critical-section entry.

#include "bench_common.h"

namespace mmdb::bench {
namespace {

bool PrintContention() {
  PrintHeader(
      "ABLATION (§2.3.1) — log-tail critical sections per 10k records");
  std::printf("%12s %18s %22s %10s\n", "rec bytes", "shared-tail CS",
              "per-txn-block CS", "ratio");
  obs::BenchReport report("slb_contention");
  obs::JsonValue series;
  for (size_t rec : {28u, 48u, 96u}) {
    const uint64_t kRecords = 10000;
    sim::StableMemoryMeter meter(64ull << 20);
    StableLogBuffer slb({2048, 32ull << 20}, &meter);
    obs::MetricsRegistry reg;
    slb.AttachMetrics(&reg);
    // Interleave 8 transactions round-robin, as concurrent writers would.
    const int kTxns = 8;
    uint64_t blocks_before = slb.blocks_allocated();
    for (uint64_t i = 0; i < kRecords; ++i) {
      uint64_t txn = 1 + (i % kTxns);
      Status st = slb.Append(
          txn, SyntheticRecord(txn, {1, 0}, 0, static_cast<uint32_t>(i), rec));
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        return false;
      }
    }
    uint64_t block_cs = slb.blocks_allocated() - blocks_before;
    // Shared tail: one critical section per record.
    uint64_t shared_cs = kRecords;
    double ratio =
        static_cast<double>(shared_cs) / static_cast<double>(block_cs);
    std::printf("%12zu %18llu %22llu %9.1fx\n", rec,
                static_cast<unsigned long long>(shared_cs),
                static_cast<unsigned long long>(block_cs), ratio);
    obs::JsonValue point;
    point["record_bytes"] = static_cast<uint64_t>(rec);
    point["shared_tail_critical_sections"] = shared_cs;
    point["per_txn_block_critical_sections"] = block_cs;
    point["reduction"] = ratio;
    series.push_back(std::move(point));
    report.Headline("cs_reduction_" + std::to_string(rec) + "B", ratio);
    report.AddRegistry(reg);
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  std::printf(
      "\n(Per-transaction blocks need a critical section only at block\n"
      " allocation — a 20-70x reduction in log-tail synchronization.)\n");
  return true;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintContention();
  return ok ? 0 : 1;
}
