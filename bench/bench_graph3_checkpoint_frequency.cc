// Regenerates Graph 3 (Fig. 7): "Checkpoint Frequency" — checkpoints per
// second vs logging rate, for different mixes of update-count- and
// age-triggered checkpoints and different N_update thresholds.
//
// Analytic series use the paper's worst-case assumption (an
// age-checkpointed partition accumulated only one page of log records).
// The measured series runs the executable system with a finite log
// window so real age triggers occur, and reports the observed checkpoint
// frequency and trigger mix.
//
// Paper shape: frequency is linear in the logging rate; more
// age-triggering or smaller N_update means steeper slopes.

#include "analysis/model.h"
#include "bench_common.h"

namespace mmdb::bench {
namespace {

void PrintAnalyticFamily() {
  PrintHeader(
      "GRAPH 3 (Fig. 7) — Checkpoint frequency vs logging rate (analytic)");
  const double kRates[] = {2000, 5000, 10000, 15000, 20000};
  const double kAgeFractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const double kNUpdates[] = {500, 1000, 2000};
  for (double n_update : kNUpdates) {
    std::printf("\nN_update = %.0f (checkpoints/second)\n", n_update);
    std::printf("%12s", "log recs/s");
    for (double f : kAgeFractions) std::printf("   f_age=%3.0f%%", f * 100);
    std::printf("\n");
    for (double rate : kRates) {
      analysis::Table2 t;
      t.n_update = n_update;
      std::printf("%12.0f", rate);
      for (double f : kAgeFractions) {
        std::printf("  %11.2f", t.CheckpointRate(rate, 1.0 - f, f));
      }
      std::printf("\n");
    }
  }
}

// One hot relation and 11 cold ones.
constexpr int kRelations = 12;

struct MeasuredPoint {
  uint64_t window_pages;
  const char* label;
};

bool PrintMeasured() {
  std::printf(
      "\nMeasured (executable system, 48KB partitions, 4KB log pages,\n"
      "N_update=400; one hot relation floods the log while 11 cold\n"
      "relations trickle — cold partitions age out of small windows):\n");
  std::printf("%16s %12s %12s %12s %14s\n", "window(pages)", "ckpts",
              "by update", "by age", "ckpt/vsec");
  obs::BenchReport report("graph3_checkpoint_frequency");
  obs::JsonValue series;
  bool ok = true;
  std::vector<uint64_t> age_checkpoints;  // per window, widest first
  const MeasuredPoint points[] = {
      {1ull << 30, "infinite"},
      {256, "256"},
      {96, "96"},
      {48, "48"},
  };
  for (const MeasuredPoint& pt : points) {
    DatabaseOptions o;
    o.n_update = 400;
    o.log_page_bytes = 4 * 1024;
    o.log_window_pages = pt.window_pages;
    o.grace_pages = 8;
    Database db(o);
    Status st = Status::OK();
    for (int r = 0; r < kRelations && st.ok(); ++r) {
      st = Populate(&db, "rel" + std::to_string(r), 120);
    }
    Random rng(11);
    std::vector<std::vector<EntityAddr>> addrs(kRelations);
    for (int r = 0; r < kRelations && st.ok(); ++r) {
      auto txn = db.Begin();
      auto rows = db.Scan(txn.value(), "rel" + std::to_string(r));
      st = rows.status();
      if (st.ok()) {
        for (auto& [a, _] : rows.value()) addrs[r].push_back(a);
      }
      (void)db.Commit(txn.value());
    }
    auto update_one = [&](Transaction* t, int r, int64_t v) {
      const EntityAddr& a = addrs[r][rng.Uniform(addrs[r].size())];
      return db.Update(t, "rel" + std::to_string(r), a,
                       Tuple{v, v, int64_t{0}});
    };
    // Phase 1: each cold relation takes updates until it has written one
    // log page, so it sits on the First-LSN list, and stops well short of
    // N_update. Sized in pages, not updates: how many updates fill a page
    // depends on the record encoding.
    for (int r = 1; r < kRelations && st.ok(); ++r) {
      const uint64_t first_lsn = db.log_writer().next_lsn();
      for (int i = 0; st.ok() && db.log_writer().next_lsn() == first_lsn;
           i += 5) {
        if (i >= static_cast<int>(o.n_update) / 2) {
          st = Status::Full("rel" + std::to_string(r) +
                            " wrote no log page in N_update/2 updates");
          break;
        }
        auto txn = db.Begin();
        if (!txn.ok()) { st = txn.status(); break; }
        for (int k = 0; k < 5 && st.ok(); ++k) {
          st = update_one(txn.value(), r, i + k);
        }
        if (st.ok()) st = db.Commit(txn.value());
      }
    }
    double instr0 = db.recovery_cpu().total_instructions();
    // Phase 2: 97.5% of updates flood the hot relation, advancing the log
    // window past the cold relations' pages. Sized in pages, like phase
    // 1: the flood writes kFloodPages, past a 96-page window and its
    // grace, while the cold relations' trickle keeps them short of
    // N_update, so in that window they age out before they fill up.
    constexpr uint64_t kFloodPages = 96 + 8;
    const uint64_t flood_end = db.log_writer().next_lsn() + kFloodPages;
    for (int i = 0; db.log_writer().next_lsn() < flood_end && st.ok(); ++i) {
      if (i >= 100000) {
        st = Status::Full("the flood wrote too few log pages");
        break;
      }
      auto txn = db.Begin();
      if (!txn.ok()) { st = txn.status(); break; }
      for (int k = 0; k < 5 && st.ok(); ++k) {
        int r = rng.Bernoulli(0.975)
                    ? 0
                    : 1 + static_cast<int>(rng.Uniform(kRelations - 1));
        st = update_one(txn.value(), r, i * 10 + k);
      }
      if (st.ok()) st = db.Commit(txn.value());
    }
    if (!st.ok()) {
      std::printf("%16s  ERROR: %s\n", pt.label, st.ToString().c_str());
      ok = false;
      continue;
    }
    auto s = db.GetStats();
    double vsec = (db.recovery_cpu().total_instructions() - instr0) / 1e6;
    double freq =
        vsec > 0 ? static_cast<double>(s.checkpoints_completed) / vsec : 0.0;
    std::printf("%16s %12llu %12llu %12llu %14.2f\n", pt.label,
                static_cast<unsigned long long>(s.checkpoints_completed),
                static_cast<unsigned long long>(s.checkpoints_update_count),
                static_cast<unsigned long long>(s.checkpoints_age), freq);
    obs::JsonValue point;
    point["window_pages"] = pt.window_pages;
    point["checkpoints"] = s.checkpoints_completed;
    point["by_update_count"] = s.checkpoints_update_count;
    point["by_age"] = s.checkpoints_age;
    point["ckpt_per_vsec"] = freq;
    series.push_back(std::move(point));
    // Overwritten each point: the report carries the tightest window's
    // registry (the interesting, age-dominated regime).
    report.AddRegistry(db.metrics());
    report.Headline("ckpt_per_vsec_tightest_window", freq);
    report.Headline("age_checkpoints_tightest_window", s.checkpoints_age);
    age_checkpoints.push_back(s.checkpoints_age);
  }
  // Shape gate: age checkpoints never fall as the window shrinks, and in
  // the tightest window every cold relation ages out (more than in the
  // infinite one).
  bool rises = ok && age_checkpoints.back() > age_checkpoints.front() &&
               age_checkpoints.back() >= kRelations - 1;
  for (size_t i = 1; rises && i < age_checkpoints.size(); ++i) {
    rises = age_checkpoints[i] >= age_checkpoints[i - 1];
  }
  if (ok && !rises) {
    std::printf("ERROR: age checkpoints do not rise as the window shrinks\n");
    ok = false;
  }
  report.Set("series", std::move(series));
  (void)report.Write();
  std::printf(
      "\n(Smaller windows push the trigger mix toward age and raise the\n"
      " checkpoint frequency — the paper's Graph 3 family.)\n");
  return ok;
}

}  // namespace
}  // namespace mmdb::bench

int main() {
  mmdb::bench::PrintAnalyticFamily();
  bool ok = mmdb::bench::PrintMeasured();
  return ok ? 0 : 1;
}
