// Ablation for §2.3.3 / §2.5.1: the Log Page Directory.
//
// "If log pages were chained in order from most recently to least
// recently written... log records could not begin to be applied until
// the last of the pages was read." With the directory (stored in the
// info block and embedded in every Nth page), recovery reads only
// floor((pages-1)/N) anchor pages backward before streaming forward.
//
// This bench flushes a controlled number of log pages for one partition
// and measures (a) the backward reads the directory walk performs and
// (b) the modeled time before the *first* record can be applied, versus
// the pure backward-chain alternative which must read every page first.

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

/// One log stream with 2 KB pages and an N-entry directory.
struct Rig {
  explicit Rig(uint32_t dir_entries)
      : opts(Options(dir_entries)),
        meter(opts.stable_memory_bytes),
        cpu("recovery", opts.recovery_cpu_mips),
        stream(opts, 0, &meter, &cpu) {}

  static DatabaseOptions Options(uint32_t dir_entries) {
    DatabaseOptions o;
    o.log_page_bytes = 2048;
    o.directory_entries = dir_entries;
    o.grace_pages = 16;
    o.stable_memory_bytes = 64ull << 20;
    return o;
  }

  DatabaseOptions opts;
  sim::StableMemoryMeter meter;
  sim::CpuModel cpu;
  LogStream stream;
};

bool PrintAblation() {
  PrintHeader(
      "ABLATION (§2.5.1) — log page directory vs pure backward chain");
  std::printf("%8s %6s | %14s %16s | %16s %8s\n", "pages", "N",
              "backward reads", "time-to-first ms", "chain-walk ms",
              "speedup");
  obs::BenchReport report("directory_ablation");
  obs::JsonValue series;
  analysis::DiskModel dm;
  for (uint32_t dir_n : {4u, 8u, 16u}) {
    for (uint32_t pages : {4u, 16u, 64u, 256u}) {
      Rig rig(dir_n);
      auto bin_r = rig.stream.slt().RegisterPartition({1, 0});
      if (!bin_r.ok()) {
        std::printf("ERROR: %s\n", bin_r.status().ToString().c_str());
        return false;
      }
      uint32_t bin_idx = bin_r.value();
      auto bin = rig.stream.slt().bin(bin_idx).value();
      uint64_t done = 0;
      for (uint32_t p = 0; p < pages; ++p) {
        LogRecord r = SyntheticRecord(1, {1, 0}, bin_idx, p, 40);
        std::vector<uint8_t> bytes;
        r.AppendTo(&bytes);
        bin->active_page = bytes;
        bin->active_records = 1;
        auto lsn = rig.stream.writer().FlushBinPage(bin, dir_n, done, &done);
        if (!lsn.ok()) {
          std::printf("ERROR: %s\n", lsn.status().ToString().c_str());
          return false;
        }
      }
      std::vector<uint64_t> lsns;
      uint64_t backward = 0;
      uint64_t t_done = 0;
      // Start the walk once the log disk is idle (post-crash), not queued
      // behind the setup writes.
      uint64_t t_start = done;
      Status st = rig.stream.CollectPageList(bin_idx, t_start, &lsns,
                                             &backward, &t_done);
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        return false;
      }
      // Time until the first page's records can be applied: the anchor
      // walk plus one forward page read.
      double first_ms =
          static_cast<double>(t_done - t_start) * 1e-6 + dm.NearPageReadMs();
      // Pure backward chain: every page must be read before the first
      // (oldest) page's records can be applied.
      double chain_ms = pages * dm.NearPageReadMs();
      std::printf("%8u %6u | %14llu %16.1f | %16.1f %7.1fx\n", pages, dir_n,
                  static_cast<unsigned long long>(backward), first_ms,
                  chain_ms, chain_ms / first_ms);
      obs::JsonValue point;
      point["pages"] = static_cast<uint64_t>(pages);
      point["directory_entries"] = static_cast<uint64_t>(dir_n);
      point["backward_reads"] = backward;
      point["time_to_first_vms"] = first_ms;
      point["chain_walk_vms"] = chain_ms;
      point["speedup"] = chain_ms / first_ms;
      series.push_back(std::move(point));
      if (pages == 256 && dir_n == 8) {
        report.Headline("speedup_256pages_dir8", chain_ms / first_ms);
        report.Headline("backward_reads_256pages_dir8", backward);
      }
      if (lsns.size() != pages) {
        std::printf("ERROR: collected %zu pages, expected %u\n", lsns.size(),
                    pages);
        return false;
      }
    }
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  std::printf(
      "\n(The directory keeps time-to-first-apply ~flat in the directory\n"
      " size while the backward chain grows linearly with page count.)\n");
  return true;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintAblation();
  return ok ? 0 : 1;
}
