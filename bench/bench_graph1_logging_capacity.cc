// Regenerates Graph 1 (Fig. 5): "Logging Capacity of Recovery Component"
// — log records per second vs log record size, one series per log page
// size. Analytic curves from the §3.2 model, measured points from the
// executable sort process on the simulated recovery CPU.
//
// Paper shape: capacity falls hyperbolically with record size (per-byte
// copy costs dominate) and rises slightly with page size (page-write
// costs amortize over more records).

#include <array>
#include <iterator>

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

const size_t kRecordSizes[] = {16, 20, 24, 28, 32, 40, 48, 64, 96, 128};
const uint32_t kPageSizes[] = {4096, 8192, 16384};

bool PrintGraph1() {
  PrintHeader(
      "GRAPH 1 (Fig. 5) — Logging capacity (records/second) vs record size");
  obs::BenchReport report("graph1_logging_capacity");
  obs::JsonValue series;
  std::printf("%10s", "rec bytes");
  for (uint32_t page : kPageSizes) {
    std::printf("  model@%-6u meas@%-6u", page, page);
  }
  std::printf("\n");
  constexpr size_t kPages = std::size(kPageSizes);
  std::vector<std::array<double, kPages>> measured_at;
  for (size_t rec : kRecordSizes) {
    std::printf("%10zu", rec);
    measured_at.emplace_back();
    for (size_t pi = 0; pi < kPages; ++pi) {
      const uint32_t page = kPageSizes[pi];
      analysis::Table2 t;
      t.s_log_record = static_cast<double>(rec);
      t.s_log_page = static_cast<double>(page);
      LoggingRig rig(page, 1000);
      Status st = rig.Run(30000, rec, 16);
      if (!st.ok()) {
        std::printf("\nERROR: %zu B records, %u B pages: %s\n", rec, page,
                    st.ToString().c_str());
        return false;
      }
      double measured = rig.RecordsPerSecond();
      measured_at.back()[pi] = measured;
      std::printf("  %11.0f %11.0f", t.RRecordsLogged(), measured);
      obs::JsonValue point;
      point["record_bytes"] = static_cast<uint64_t>(rec);
      point["page_bytes"] = static_cast<uint64_t>(page);
      point["model_records_per_vsec"] = t.RRecordsLogged();
      point["measured_records_per_vsec"] = measured;
      series.push_back(std::move(point));
    }
    std::printf("\n");
  }
  std::printf(
      "\n(model = paper's analysis; meas = executable sort process on the\n"
      " simulated 1-MIPS recovery CPU. Shape: capacity falls with record\n"
      " size, rises with page size.)\n");
  for (size_t ri = 0; ri < measured_at.size(); ++ri) {
    for (size_t pi = 0; pi < kPages; ++pi) {
      const double m = measured_at[ri][pi];
      if ((ri > 0 && m >= measured_at[ri - 1][pi]) ||
          (pi > 0 && m <= measured_at[ri][pi - 1])) {
        std::printf("ERROR: shape broken at %zu B records, %u B pages\n",
                    kRecordSizes[ri], kPageSizes[pi]);
        return false;
      }
    }
  }

  // Headline: the paper's environs (24B debit/credit records, 8K pages)
  // via a metrics-attached run, so the registry dump covers one series.
  obs::MetricsRegistry reg;
  LoggingRig rig(8192, 1000, &reg);
  Status st = rig.Run(30000, 24, 16);
  if (!st.ok()) {
    std::printf("ERROR: headline run: %s\n", st.ToString().c_str());
    return false;
  }
  report.Headline("records_per_vsec_24B_8K", rig.RecordsPerSecond());
  report.Headline("bytes_per_vsec_24B_8K", rig.BytesPerSecond(24));
  report.Set("series", std::move(series));
  report.AddRegistry(reg);
  (void)report.Write();
  return true;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintGraph1();
  return ok ? 0 : 1;
}
