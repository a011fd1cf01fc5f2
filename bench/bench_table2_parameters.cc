// Regenerates Table 2 of the paper: every logging / checkpointing
// parameter with its value and units, including the "(Calculated)" rows
// (I_record_sort, I_page_write, N_log_pages, R_bytes_logged,
// R_records_logged), plus a measured cross-check of the calculated rates
// from the executable sort process.

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

bool PrintTable2() {
  PrintHeader("TABLE 2 — Parameter values (analytic model)");
  for (const std::string& row : analysis::FormatTable2(analysis::Table2{})) {
    std::printf("  %s\n", row.c_str());
  }

  // Cross-check: drive the real sort process at Table 2's environs and
  // compare the measured record rate against the calculated row.
  analysis::Table2 t;
  obs::MetricsRegistry reg;
  LoggingRig rig(/*page_bytes=*/8192, /*n_update=*/1000, &reg);
  Status st = rig.Run(/*n=*/60000, /*record_bytes=*/24, /*partitions=*/16);
  std::printf("\n  measured cross-check (60k records, 24 B, 16 partitions)\n");
  if (!st.ok()) {
    std::printf("  ERROR: %s\n", st.ToString().c_str());
    return false;
  }
  std::printf("  %-28s %14.0f  records / second\n",
              "R_records_logged (model)", t.RRecordsLogged());
  std::printf("  %-28s %14.0f  records / second\n",
              "R_records_logged (measured)", rig.RecordsPerSecond());
  std::printf("  %-28s %14.2f\n", "measured / model",
              rig.RecordsPerSecond() / t.RRecordsLogged());

  obs::BenchReport report("table2_parameters");
  report.Headline("model_records_per_vsec", t.RRecordsLogged());
  report.Headline("measured_records_per_vsec", rig.RecordsPerSecond());
  report.Headline("measured_over_model",
                  rig.RecordsPerSecond() / t.RRecordsLogged());
  report.AddRegistry(reg);
  (void)report.Write();
  return true;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintTable2();
  return ok ? 0 : 1;
}
