#include "fault/crash_explorer.h"

#include <algorithm>
#include <memory>

#include "txn/executor.h"

namespace mmdb::fault {

namespace {

Schema RowSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"v", ColumnType::kInt64},
                 {"pad", ColumnType::kString}});
}

/// A row's pad follows from its value: -v bytes for a negative value,
/// none otherwise. The ledger keeps only values, so a recovered row is
/// intact when its pad matches.
std::string Pad(int64_t v) {
  return std::string(v < 0 ? static_cast<size_t>(-v) : 0, 'p');
}

Tuple Row(int64_t key, int64_t v) { return Tuple{key, v, Pad(v)}; }

std::string PointLabel(Site site, uint64_t visit, uint64_t seed) {
  return std::string("site=") + SiteName(site) +
         " visit=" + std::to_string(visit) + " seed=" + std::to_string(seed);
}

}  // namespace

DatabaseOptions CrashExplorer::TrialOptions() const {
  DatabaseOptions o;
  // Small partitions and log pages so the short scripted workload still
  // produces on-disk log chains, multiple checkpoint tracks, and a real
  // restart read phase.
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 1ull << 30;  // checkpoints fire only where scripted
  o.recovery_parallelism = opts_.recovery_parallelism;
  o.restart_policy = opts_.restart_policy;
  o.enable_tracing = opts_.trace;
  if (opts_.txn_workers > 1) o.txn_workers = opts_.txn_workers;
  if (opts_.log_streams > 1) o.log_streams = opts_.log_streams;
  return o;
}

Status CrashExplorer::RunWorkload(Database* db, Ledger* led) const {
  return opts_.txn_workers > 1 ? RunConcurrentScript(db, led)
                               : RunScript(db, led);
}

Status CrashExplorer::RunScript(Database* db, Ledger* led) {
  Status st = db->CreateRelation("r", RowSchema());
  if (!st.ok()) {
    if (st.IsFault()) led->relation = Ledger::Ddl::kInDoubt;
    return st;
  }
  led->relation = Ledger::Ddl::kCommitted;
  st = db->CreateIndex("r_id", "r", "id", IndexType::kTTree);
  if (!st.ok()) {
    if (st.IsFault()) led->index = Ledger::Ddl::kInDoubt;
    return st;
  }
  led->index = Ledger::Ddl::kCommitted;

  // Phase B: a deterministic transaction mix — inserts, plus one txn of
  // updates+delete, one delete-heavy txn and one whose update moves a
  // row — with forced checkpoints in the middle of the stream. There are
  // enough transactions for their small records to fill many log pages,
  // so the sweep has SLB flushes and log disk writes to crash inside.
  const int kTxns = 96;
  const int kOpsPerTxn = 4;
  int64_t next_key = 0;
  for (int ti = 0; ti < kTxns; ++ti) {
    auto txn_r = db->Begin();
    if (!txn_r.ok()) return txn_r.status();
    Transaction* txn = txn_r.value();
    std::map<int64_t, int64_t> ups;
    std::vector<int64_t> dels;
    std::map<int64_t, EntityAddr> new_addrs;
    Status op = Status::OK();
    auto do_insert = [&](int64_t key) {
      auto a = db->Insert(txn, "r", Row(key, key * 10 + ti));
      if (!a.ok()) {
        op = a.status();
        return;
      }
      ups[key] = key * 10 + ti;
      new_addrs[key] = a.value();
    };
    // Key 0's update grows it in place to three quarters of a partition;
    // key 1's at ti 12 grows it past the half-partition its partition
    // then has left, so the row moves to a new partition and its home
    // slot keeps a stub: crash points inside a relocation.
    const int64_t partition_bytes = db->options().partition_size_bytes;
    auto do_update = [&](int64_t k, int64_t v) {
      op = db->Update(txn, "r", led->addrs.at(k), Row(k, v));
      if (op.ok()) ups[k] = v;
    };
    if (ti == 5) {
      // Keys 0-3 were inserted (and committed) by the first transaction.
      do_update(0, -partition_bytes * 3 / 4);
      if (op.ok()) do_update(1, 1010);
      if (op.ok()) {
        op = db->Delete(txn, "r", led->addrs.at(2));
        if (op.ok()) dels.push_back(2);
      }
      if (op.ok()) do_insert(next_key++);
    } else if (ti == 8) {
      op = db->Delete(txn, "r", led->addrs.at(3));
      if (op.ok()) dels.push_back(3);
      for (int j = 0; j < kOpsPerTxn - 1 && op.ok(); ++j) {
        do_insert(next_key++);
      }
    } else if (ti == 12) {
      do_update(1, -partition_bytes / 2);
      for (int j = 0; j < kOpsPerTxn - 1 && op.ok(); ++j) {
        do_insert(next_key++);
      }
    } else {
      for (int j = 0; j < kOpsPerTxn && op.ok(); ++j) do_insert(next_key++);
    }
    if (!op.ok()) return op;  // mid-txn fault: this txn never committed
    st = db->Commit(txn);
    if (!st.ok()) {
      if (st.IsFault()) {
        // Commit returned the injected fault: the SLB commit may or may
        // not have preceded the crash — the one in-doubt transaction.
        // (The epoch stamp precedes every fault site inside Commit, so
        // the stamp mirror holds this transaction's epoch.)
        led->has_indoubt = true;
        led->indoubt_upserts = ups;
        led->indoubt_deletes = dels;
        led->indoubt_epoch = db->last_commit_epoch();
      }
      return st;
    }
    if (db->log_streams() > 1) {
      led->epoch_seq.push_back({db->last_commit_epoch(), ups, dels});
    }
    for (const auto& [k, v] : ups) led->committed[k] = v;
    for (int64_t k : dels) {
      led->committed.erase(k);
      led->addrs.erase(k);
    }
    for (const auto& [k, a] : new_addrs) led->addrs[k] = a;
    if (ti == 12 &&
        db->metrics().counter_value("storage.rows_forwarded") == 0) {
      return Status::Corruption("key 1's growing update did not move it");
    }
    if (ti == 6 || ti == 10) {
      MMDB_RETURN_IF_ERROR(db->ForceCheckpointRelation("r"));
    }
  }
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  led->workload_complete = true;

  // Phase C: scripted clean crash + full restart, so the sweep covers
  // crash-within-restart points even when no earlier fault fires.
  db->Crash();
  MMDB_RETURN_IF_ERROR(db->Restart());
  bool done = false;
  while (!done) {
    MMDB_RETURN_IF_ERROR(db->BackgroundRecoveryStep(&done));
  }
  return Status::OK();
}

Status CrashExplorer::RunConcurrentScript(Database* db, Ledger* led) const {
  Status st = db->CreateRelation("r", RowSchema());
  if (!st.ok()) {
    if (st.IsFault()) led->relation = Ledger::Ddl::kInDoubt;
    return st;
  }
  led->relation = Ledger::Ddl::kCommitted;
  st = db->CreateIndex("r_id", "r", "id", IndexType::kTTree);
  if (!st.ok()) {
    if (st.IsFault()) led->index = Ledger::Ddl::kInDoubt;
    return st;
  }
  led->index = Ledger::Ddl::kCommitted;

  // Setup: two shared hot rows that every script updates — the lock
  // contention that exercises the wait queues while crashes land.
  EntityAddr hot[2];
  {
    auto t = db->Begin();
    if (!t.ok()) return t.status();
    std::map<int64_t, int64_t> ups;
    for (int64_t h = 0; h < 2; ++h) {
      auto a = db->Insert(t.value(), "r", Row(1000 + h, 0));
      if (!a.ok()) return a.status();
      hot[h] = a.value();
      ups[1000 + h] = 0;
    }
    st = db->Commit(t.value());
    if (!st.ok()) {
      if (st.IsFault()) {
        led->has_indoubt = true;
        led->indoubt_upserts = ups;
        led->indoubt_epoch = db->last_commit_epoch();
      }
      return st;
    }
    if (db->log_streams() > 1) {
      led->epoch_seq.push_back({db->last_commit_epoch(), ups, {}});
    }
    for (const auto& [k, v] : ups) led->committed[k] = v;
  }

  // Each script's effect is state-independent (private keys derived from
  // the script index, hot-row values derived from the script index), so
  // commit order alone determines the expected rows.
  const int kScripts = 32;
  struct Effect {
    std::map<int64_t, int64_t> ups;
    std::vector<int64_t> dels;
  };
  std::vector<Effect> effects(kScripts);
  for (int i = 0; i < kScripts; ++i) {
    int64_t base = i * 4;
    Effect& ef = effects[i];
    ef.ups[base] = base * 10 + i;
    ef.ups[base + 1] = (base + 1) * 10 + i;
    ef.ups[base + 2] = (base + 2) * 10 + i;
    ef.ups[1000 + (i % 2)] = 5000 + i;
    if (i % 4 == 0) ef.dels.push_back(base);  // deletes its own insert
  }

  auto build = [&](ConcurrentExecutor* ex, int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      int64_t base = i * 4;
      TxnScript s;
      s.label = "script-" + std::to_string(i);
      auto insert_op = [i](int64_t key, std::shared_ptr<EntityAddr> out) {
        return [i, key, out](Database& d, Transaction* t) -> Status {
          auto a = d.Insert(t, "r", Row(key, key * 10 + i));
          if (!a.ok()) return a.status();
          if (out != nullptr) *out = a.value();
          return Status::OK();
        };
      };
      auto first_addr = std::make_shared<EntityAddr>();
      s.ops.push_back(insert_op(base, first_addr));
      s.ops.push_back(insert_op(base + 1, nullptr));
      s.ops.push_back([i, addr = hot[i % 2]](Database& d,
                                             Transaction* t) -> Status {
        return d.Update(t, "r", addr, Row(1000 + (i % 2), 5000 + i));
      });
      s.ops.push_back(insert_op(base + 2, nullptr));
      if (i % 4 == 0) {
        s.ops.push_back([first_addr](Database& d, Transaction* t) -> Status {
          return d.Delete(t, "r", *first_addr);
        });
      }
      ex->Submit(std::move(s));
    }
  };

  // Read-only snapshot scripts, interleaved with the writers so crashes
  // land while snapshots are live and version installs are in flight.
  // Their effects never enter the ledger; they exist to put the MVCC
  // machinery in the blast radius of every crash point.
  const int kReaders = opts_.mvcc_readers ? 4 : 0;
  auto build_readers = [&](ConcurrentExecutor* ex, int tag) {
    for (int i = 0; i < kReaders; ++i) {
      TxnScript s;
      s.label = "snap-" + std::to_string(tag) + "-" + std::to_string(i);
      s.options.read_only = true;
      s.ops.push_back([](Database& d, Transaction* t) -> Status {
        return d.Scan(t, "r").status();
      });
      s.ops.push_back(
          [addr = hot[i % 2]](Database& d, Transaction* t) -> Status {
            auto r = d.Read(t, "r", addr);
            if (r.ok() || r.status().IsNotFound()) return Status::OK();
            return r.status();
          });
      ex->Submit(std::move(s));
    }
  };
  // Lock-freedom holds even on crash-interrupted runs: a read-only
  // script must never have waited, whatever its outcome.
  auto check_readers = [&](const ConcurrentExecutor& ex,
                           int nwrites) -> Status {
    const auto& rs = ex.results();
    for (size_t s = static_cast<size_t>(nwrites); s < rs.size(); ++s) {
      if (rs[s].waits != 0) {
        return Status::Corruption("read-only snapshot script waited on a lock");
      }
    }
    return Status::OK();
  };

  // Fold an executor run into the ledger: committed effects in commit
  // order, then the at-most-one commit-faulted (in-doubt) script. The
  // first `nwrites` scripts of the wave are the writers; anything after
  // them is a read-only snapshot script with no ledger effect.
  auto apply = [&](const ConcurrentExecutor& ex, int lo, int nwrites) {
    std::map<uint64_t, int> by_txn;
    const auto& rs = ex.results();
    for (size_t s = 0; s < rs.size(); ++s) {
      if (static_cast<int>(s) >= nwrites) continue;
      if (rs[s].outcome == ScriptOutcome::kCommitted) {
        by_txn[rs[s].txn_id] = lo + static_cast<int>(s);
      }
    }
    for (uint64_t id : ex.commit_order()) {
      auto it = by_txn.find(id);
      if (it == by_txn.end()) continue;
      const Effect& ef = effects[it->second];
      if (db->log_streams() > 1) {
        const ScriptResult& r = rs[it->second - lo];
        led->epoch_seq.push_back({r.commit_epoch, ef.ups, ef.dels});
      }
      for (const auto& [k, v] : ef.ups) led->committed[k] = v;
      for (int64_t k : ef.dels) led->committed.erase(k);
    }
    for (size_t s = 0; s < rs.size(); ++s) {
      if (static_cast<int>(s) >= nwrites) continue;
      if (rs[s].commit_faulted) {
        const Effect& ef = effects[lo + s];
        led->has_indoubt = true;
        led->indoubt_upserts = ef.ups;
        led->indoubt_deletes = ef.dels;
        // A faulted Commit never reaches the stamp-mirror update of a
        // later commit (the crash latches), so the mirror still holds
        // this transaction's epoch.
        led->indoubt_epoch = db->last_commit_epoch();
      }
    }
  };

  // Two executor waves with a forced checkpoint between them, mirroring
  // the serial script's mid-stream checkpoints.
  const int kHalf = kScripts / 2;
  {
    ConcurrentExecutor ex(db);
    build(&ex, 0, kHalf);
    build_readers(&ex, 0);
    Status rst = ex.Run();
    apply(ex, 0, kHalf);
    MMDB_RETURN_IF_ERROR(check_readers(ex, kHalf));
    if (!rst.ok()) return rst;
  }
  MMDB_RETURN_IF_ERROR(db->ForceCheckpointRelation("r"));
  {
    ConcurrentExecutor ex(db);
    build(&ex, kHalf, kScripts);
    build_readers(&ex, 1);
    Status rst = ex.Run();
    apply(ex, kHalf, kScripts - kHalf);
    MMDB_RETURN_IF_ERROR(check_readers(ex, kScripts - kHalf));
    if (!rst.ok()) return rst;
  }
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  led->workload_complete = true;

  db->Crash();
  MMDB_RETURN_IF_ERROR(db->Restart());
  bool done = false;
  while (!done) {
    MMDB_RETURN_IF_ERROR(db->BackgroundRecoveryStep(&done));
  }
  return Status::OK();
}

Status CrashExplorer::RecoverFully(Database* db, uint64_t* crashes) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (db->fault_injector().crash_pending()) {
      db->Crash();
      ++*crashes;
    }
    Status st = Status::OK();
    if (db->crashed()) st = db->Restart();
    if (st.ok() &&
        db->options().restart_policy == RestartPolicy::kFullReload) {
      bool done = false;
      while (done == false) {
        st = db->BackgroundRecoveryStep(&done);
        if (!st.ok()) break;
      }
    }
    if (st.ok()) return Status::OK();
    if (!st.IsFault() && !db->fault_injector().crash_pending()) return st;
    // Crash-within-restart: deliver it and restart again.
  }
  return Status::Corruption("recovery did not converge after repeated crashes");
}

Status CrashExplorer::CollectImages(
    Database* db, std::map<uint64_t, std::vector<uint8_t>>* out) {
  out->clear();
  auto parts = db->catalog().RelationPartitions("r");
  if (!parts.ok()) return parts.status();
  for (const PartitionDescriptor* d : parts.value()) {
    auto p = db->partitions().Get(d->id);
    if (!p.ok()) return p.status();
    (*out)[d->id.Pack()] = p.value()->image();
  }
  return Status::OK();
}

Status CrashExplorer::CheckInvariants(Database* db, const Ledger& led,
                                      std::string* failure) const {
  auto fail = [&](const std::string& msg) {
    *failure = msg;
    return Status::OK();
  };

  bool rel_exists = db->catalog().GetRelation("r").ok();
  if (!rel_exists && led.relation == Ledger::Ddl::kCommitted) {
    return fail("committed relation lost across recovery");
  }
  if (!rel_exists && (!led.committed.empty() || led.has_indoubt)) {
    return fail("relation missing but committed transactions exist");
  }

  std::map<int64_t, int64_t> got;
  if (rel_exists) {
    auto txn_r = db->Begin();
    if (!txn_r.ok()) {
      return fail("Begin failed after recovery: " + txn_r.status().ToString());
    }
    auto rows = db->Scan(txn_r.value(), "r");
    if (!rows.ok()) {
      return fail("scan failed after recovery: " + rows.status().ToString());
    }
    for (const auto& [addr, tup] : rows.value()) {
      (void)addr;
      const int64_t v = std::get<int64_t>(tup[1]);
      if (std::get<std::string>(tup[2]) != Pad(v)) {
        return fail("row " + std::to_string(std::get<int64_t>(tup[0])) +
                    " recovered with a damaged pad");
      }
      got[std::get<int64_t>(tup[0])] = v;
    }

    // Durability + atomicity: the recovered rows equal the expected set,
    // or the expected set plus the full effect of the single in-doubt
    // transaction — nothing else (no partial transactions, no phantoms).
    // With partitioned logging the expected set is the epoch ledger
    // folded up to the restart's reported frontier: an epoch the crash
    // caught unacknowledged on any stream must be discarded on every
    // stream, always as a suffix of the commit order.
    std::map<int64_t, int64_t> expected;
    bool indoubt_possible = led.has_indoubt;
    if (opts_.log_streams > 1) {
      uint32_t fold_to = db->last_restart().epoch_frontier;
      for (const Ledger::EpochEntry& en : led.epoch_seq) {
        if (en.epoch > fold_to) break;  // epochs nondecreasing: a suffix
        for (const auto& [k, v] : en.ups) expected[k] = v;
        for (int64_t k : en.dels) expected.erase(k);
      }
      indoubt_possible = led.has_indoubt && led.indoubt_epoch <= fold_to;
    } else {
      expected = led.committed;
    }
    bool match_committed = got == expected;
    std::map<int64_t, int64_t> with_indoubt = expected;
    for (const auto& [k, v] : led.indoubt_upserts) with_indoubt[k] = v;
    for (int64_t k : led.indoubt_deletes) with_indoubt.erase(k);
    bool match_indoubt = indoubt_possible && got == with_indoubt;
    if (!match_committed && !match_indoubt) {
      return fail("recovered rows (" + std::to_string(got.size()) +
                  ") match neither the expected set (" +
                  std::to_string(expected.size()) +
                  ") nor expected+in-doubt");
    }

    // Index / relation consistency.
    bool idx_exists = db->catalog().GetIndex("r_id").ok();
    if (!idx_exists && led.index == Ledger::Ddl::kCommitted) {
      return fail("committed index lost across recovery");
    }
    if (idx_exists) {
      for (const auto& [k, v] : got) {
        auto lk = db->IndexLookup(txn_r.value(), "r_id", k);
        if (!lk.ok()) {
          return fail("index lookup failed for key " + std::to_string(k) +
                      ": " + lk.status().ToString());
        }
        if (lk.value().size() != 1) {
          return fail("index lookup for key " + std::to_string(k) +
                      " returned " + std::to_string(lk.value().size()) +
                      " rows, want 1");
        }
        auto tup = db->Read(txn_r.value(), "r", lk.value()[0]);
        if (!tup.ok() ||
            std::get<int64_t>(tup.value()[1]) != v) {
          return fail("index entry for key " + std::to_string(k) +
                      " points at the wrong row");
        }
      }
    }
    Status cst = db->Commit(txn_r.value());
    if (!cst.ok()) {
      return fail("read-only txn commit failed: " + cst.ToString());
    }

    // MVCC: the version store is volatile, so nothing from before the
    // crash may survive into the rebuilt store — recovery reinstates
    // committed latest versions only, never uncommitted deltas.
    if (db->mvcc_versions_live() != 0) {
      return fail("version store not empty after restart (" +
                  std::to_string(db->mvcc_versions_live()) +
                  " versions live)");
    }
    // A snapshot reader served right after recovery must see exactly the
    // recovered committed state.
    auto ro = db->Begin(TxnKind::kUser, "", /*read_only=*/true);
    if (!ro.ok()) {
      return fail("read-only Begin failed after recovery: " +
                  ro.status().ToString());
    }
    auto srows = db->Scan(ro.value(), "r");
    if (!srows.ok()) {
      return fail("snapshot scan failed after recovery: " +
                  srows.status().ToString());
    }
    std::map<int64_t, int64_t> snap;
    for (const auto& [addr, tup] : srows.value()) {
      (void)addr;
      snap[std::get<int64_t>(tup[0])] = std::get<int64_t>(tup[1]);
    }
    Status sst = db->Commit(ro.value());
    if (!sst.ok()) {
      return fail("snapshot txn commit failed: " + sst.ToString());
    }
    if (snap != got) {
      return fail("post-recovery snapshot read diverges from the recovered "
                  "committed state");
    }
  }

  // Reclaimer resume: pruning after recovery is idempotent — whatever
  // the first pass reclaims, a second pass must find nothing left.
  (void)db->PruneVersions();
  if (uint64_t again = db->PruneVersions(); again != 0) {
    return fail("version pruning not idempotent after recovery: second pass "
                "reclaimed " + std::to_string(again) + " versions");
  }

  // Determinism vs the no-crash oracle: when every scripted transaction
  // committed, recovery must reproduce the exact pre-crash partition
  // bytes (image + replayed log = memory state at the crash).
  if (have_oracle_ && led.workload_complete && rel_exists) {
    // Under kOnDemand the checks above faulted in what they read; the
    // sweep brings back the rest.
    for (bool done = false; !done;) {
      Status st = db->BackgroundRecoveryStep(&done);
      if (!st.ok()) return fail("background recovery: " + st.ToString());
    }
    if (got != oracle_rows_) {
      return fail("complete workload recovered different rows than the "
                  "no-crash oracle");
    }
    std::map<uint64_t, std::vector<uint8_t>> imgs;
    Status st = CollectImages(db, &imgs);
    if (!st.ok()) return fail("collect images: " + st.ToString());
    if (imgs != oracle_images_) {
      return fail("recovered partitions are not byte-identical to the "
                  "no-crash oracle");
    }
  }

  // Usability: the recovered database accepts new work.
  Status ust = [&]() -> Status {
    MMDB_RETURN_IF_ERROR(db->CreateRelation("usable", RowSchema()));
    auto t = db->Begin();
    if (!t.ok()) return t.status();
    auto a = db->Insert(t.value(), "usable", Row(1, 2));
    if (!a.ok()) return a.status();
    return db->Commit(t.value());
  }();
  if (!ust.ok()) {
    return fail("post-recovery usability txn failed: " + ust.ToString());
  }
  failure->clear();
  return Status::OK();
}

Status CrashExplorer::RunPointImpl(Site site, uint64_t visit,
                                   std::string* failure,
                                   uint64_t* crashes_delivered) {
  failure->clear();
  Database db(TrialOptions());
  FaultPlan plan;
  plan.seed = opts_.seed;
  plan.CrashAtVisit(site, visit);
  db.ArmFaultPlan(plan);
  uint64_t t0 = db.now_ns();

  Ledger led;
  Status st = RunWorkload(&db, &led);
  if (!st.ok() && !st.IsFault() && !db.fault_injector().crash_pending()) {
    *failure = PointLabel(site, visit, opts_.seed) +
               ": script failed: " + st.ToString();
    return Status::OK();
  }
  Status rst = RecoverFully(&db, crashes_delivered);
  if (!rst.ok()) {
    *failure = PointLabel(site, visit, opts_.seed) +
               ": recovery failed: " + rst.ToString();
    return Status::OK();
  }
  std::string why;
  MMDB_RETURN_IF_ERROR(CheckInvariants(&db, led, &why));
  if (!why.empty()) {
    *failure = PointLabel(site, visit, opts_.seed) + ": " + why;
  }
  db.tracer().Span(obs::Track::kSystem, "chaos",
                   "crash-recover " + PointLabel(site, visit, opts_.seed), t0,
                   db.now_ns() - t0);
  return Status::OK();
}

Status CrashExplorer::RunPoint(Site site, uint64_t visit,
                               std::string* failure) {
  uint64_t crashes = 0;
  return RunPointImpl(site, visit, failure, &crashes);
}

Status CrashExplorer::Run(ExplorerReport* report) {
  *report = ExplorerReport{};

  // Probe: an armed-but-empty plan counts per-site visits and yields the
  // no-crash oracle (rows + partition bytes after the scripted restart).
  {
    Database db(TrialOptions());
    FaultPlan probe;
    probe.seed = opts_.seed;
    db.ArmFaultPlan(probe);
    Ledger led;
    MMDB_RETURN_IF_ERROR(RunWorkload(&db, &led));
    if (!led.workload_complete) {
      return Status::Corruption("probe run did not complete the workload");
    }
    for (size_t s = 0; s < kSiteCount; ++s) {
      report->probe_visits[s] = db.fault_injector().visits(static_cast<Site>(s));
    }
    oracle_rows_ = led.committed;
    MMDB_RETURN_IF_ERROR(CollectImages(&db, &oracle_images_));
    have_oracle_ = true;
  }

  // Sweep: stride-subsampled visits per site (rare sites exhaustively),
  // starting at an offset the seed picks.
  for (Site site : opts_.sites) {
    uint64_t n = report->probe_visits[static_cast<size_t>(site)];
    if (n == 0) continue;
    uint64_t stride =
        n > opts_.max_points_per_site
            ? (n + opts_.max_points_per_site - 1) / opts_.max_points_per_site
            : 1;
    for (uint64_t k = 1 + (opts_.seed - 1) % stride; k <= n; k += stride) {
      ++report->points_explored;
      report->explored.emplace_back(site, k);
      std::string failure;
      MMDB_RETURN_IF_ERROR(
          RunPointImpl(site, k, &failure, &report->crashes_delivered));
      if (!failure.empty()) {
        ++report->violations;
        report->failures.push_back(failure);
      }
    }
  }
  return Status::OK();
}

}  // namespace mmdb::fault
