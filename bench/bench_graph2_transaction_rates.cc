// Regenerates Graph 2 (Fig. 6): "Logging Capacity in Transactions per
// Second" — maximum transaction rate the logging component can sustain
// vs the number of log records each transaction writes, one series per
// log record size. Includes the paper's §3.2 headline: with Gray's
// debit/credit transactions (~4 log records of ~24 bytes), the logging
// component sustains thousands of transactions per second — "the logging
// component will probably not be the bottleneck of the system".
//
// Measured series: a real debit/credit workload through the full
// Database; the transaction capacity is records_sorted / records_per_txn
// per second of recovery-CPU time.

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

const int kRecordsPerTxn[] = {1, 2, 4, 8, 16, 32, 64, 100};
const size_t kRecordSizes[] = {28, 32, 48, 64};

bool PrintGraph2() {
  PrintHeader(
      "GRAPH 2 (Fig. 6) — Max transactions/second vs log records per txn");
  std::printf("%9s", "recs/txn");
  for (size_t rec : kRecordSizes) std::printf("  model@%-3zuB", rec);
  std::printf("   meas(mix)\n");
  for (int rpt : kRecordsPerTxn) {
    std::printf("%9d", rpt);
    for (size_t rec : kRecordSizes) {
      analysis::Table2 t;
      t.s_log_record = static_cast<double>(rec);
      std::printf("  %10.0f", t.MaxTransactionRate(rpt));
    }
    // Measured: feed rpt-record transactions of ~32B records through the
    // sort process.
    LoggingRig rig(8192, 1000);
    Status st = rig.Run(20000, 32, 16);
    if (!st.ok()) {
      std::printf("\nERROR: %d records/txn: %s\n", rpt, st.ToString().c_str());
      return false;
    }
    std::printf("  %10.0f\n",
                rig.RecordsPerSecond() / static_cast<double>(rpt));
  }

  // Headline: full-database debit/credit (TP1: account + teller + branch
  // updates and a history insert = 4 log records per transaction).
  obs::BenchReport report("graph2_transaction_rates");
  DatabaseOptions o;
  o.auto_run_checkpoints = true;
  Database db(o);
  DebitCreditRig rig;
  Status st = SetupDebitCredit(&db, 2000, &rig);
  Random rng(7);
  double before_instr = db.recovery_cpu().total_instructions();
  uint64_t before_records = db.GetStats().records_sorted;
  const int kTxns = 3000;
  for (int i = 0; i < kTxns && st.ok(); ++i) {
    st = DebitCredit(&db, &rig, &rng);
  }
  if (!st.ok()) {
    std::printf("ERROR: debit/credit: %s\n", st.ToString().c_str());
    return false;
  }
  auto stats = db.GetStats();
  double recs = static_cast<double>(stats.records_sorted - before_records);
  double recs_per_txn = recs / kTxns;
  double vsec =
      (db.recovery_cpu().total_instructions() - before_instr) / 1e6;
  std::printf(
      "\nHEADLINE (paper: ~4,000 txn/s at 4 records/txn debit-credit):\n");
  std::printf("  measured records per debit/credit txn : %.1f\n",
              recs_per_txn);
  std::printf("  measured logging capacity             : %.0f txn/s\n",
              recs / recs_per_txn / vsec);
  analysis::Table2 t;
  std::printf("  model capacity at 4 records/txn       : %.0f txn/s\n",
              t.MaxTransactionRate(4.0));

  report.Headline("records_per_txn", recs_per_txn);
  report.Headline("txn_per_vsec", recs / recs_per_txn / vsec);
  report.Headline("model_txn_per_vsec_4rec", t.MaxTransactionRate(4.0));
  report.AddRegistry(db.metrics());
  (void)report.Write();
  return true;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  bool ok = mmdb::bench::PrintGraph2();
  return ok ? 0 : 1;
}
