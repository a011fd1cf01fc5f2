#include "shard/cluster.h"

#include <algorithm>
#include <utility>

namespace mmdb::shard {

namespace {

// Simulated wire sizes: a prepare carries its key/delta payload, the
// control messages (vote, decision, inquiry, outcome) are fixed-size.
constexpr uint64_t kPrepareBytesBase = 64;
constexpr uint64_t kPrepareBytesPerKey = 24;
constexpr uint64_t kControlBytes = 48;

Schema KvSchema() {
  return Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
}

Schema JournalSchema() {
  return Schema({{"gid", ColumnType::kInt64},
                 {"coord", ColumnType::kInt64},
                 {"k", ColumnType::kInt64},
                 {"old", ColumnType::kInt64},
                 {"epoch", ColumnType::kInt64},
                 {"csn", ColumnType::kInt64}});
}

Schema OutcomeSchema() { return Schema({{"gid", ColumnType::kInt64}}); }

}  // namespace

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  DatabaseOptions dbo = opts_.db;
  // The cluster serializes each shard's local work itself (one event at
  // a time per shard); admission-width concurrency overlaps network
  // waits, not shard CPU.
  dbo.txn_workers = 1;
  dbo.telemetry_bucket_ns = opts_.telemetry_bucket_ns;
  net_ = std::make_unique<net::NetworkModel>(opts_.shards, opts_.link,
                                             opts_.seed, &sched_);
  net_->AttachMetrics(&metrics_);
  shards_.reserve(opts_.shards);
  for (uint32_t s = 0; s < opts_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->db = std::make_unique<Database>(dbo);
    shards_.push_back(std::move(sh));
  }
  m_committed_ = metrics_.counter("cluster.txn.committed");
  m_aborted_ = metrics_.counter("cluster.txn.aborted");
  m_lost_ = metrics_.counter("cluster.txn.lost");
  m_prepares_ = metrics_.counter("cluster.2pc.prepares");
  m_votes_no_ = metrics_.counter("cluster.2pc.votes_no");
  m_outcomes_ = metrics_.counter("cluster.2pc.outcomes_logged");
  m_finalizes_ = metrics_.counter("cluster.2pc.finalized");
  m_compensations_ = metrics_.counter("cluster.2pc.compensated");
  m_inquiries_ = metrics_.counter("cluster.2pc.inquiries");
  m_commit_rate_ =
      metrics_.counter_series("cluster.commit_rate", opts_.telemetry_bucket_ns);
  m_latency_single_ = metrics_.sketch("cluster.commit_latency_single_ns");
  m_latency_cross_ = metrics_.sketch("cluster.commit_latency_cross_ns");
}

Cluster::~Cluster() = default;

uint32_t Cluster::ShardOf(int64_t key) const {
  // splitmix64-style finalizer: route by hash, not by range, so hot key
  // neighborhoods spread across the fleet.
  uint64_t x = static_cast<uint64_t>(key);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return static_cast<uint32_t>(x % opts_.shards);
}

Status Cluster::Init() {
  for (uint32_t s = 0; s < opts_.shards; ++s) {
    Database* db = shards_[s]->db.get();
    MMDB_RETURN_IF_ERROR(db->CreateRelation("kv", KvSchema()));
    MMDB_RETURN_IF_ERROR(db->CreateRelation("p2c", JournalSchema()));
    MMDB_RETURN_IF_ERROR(db->CreateRelation("p2c_out", OutcomeSchema()));
    MMDB_RETURN_IF_ERROR(
        db->CreateIndex("p2c_out_gid", "p2c_out", "gid", IndexType::kLinearHash));
  }
  std::vector<std::vector<int64_t>> owned(opts_.shards);
  for (uint64_t k = 0; k < opts_.keys; ++k) {
    owned[ShardOf(static_cast<int64_t>(k))].push_back(static_cast<int64_t>(k));
  }
  for (uint32_t s = 0; s < opts_.shards; ++s) {
    Shard& sh = *shards_[s];
    Database* db = sh.db.get();
    size_t i = 0;
    while (i < owned[s].size()) {
      auto txn = db->Begin();
      if (!txn.ok()) return txn.status();
      const size_t end = std::min(owned[s].size(), i + 256);
      for (; i < end; ++i) {
        const int64_t key = owned[s][i];
        auto addr = db->Insert(txn.value(), "kv", Tuple{key, int64_t{0}});
        if (!addr.ok()) return addr.status();
        sh.kv_addr[key] = addr.value();
      }
      MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
    }
    MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  }
  // Align the shard clocks so fleet-wide virtual time is comparable.
  const uint64_t t0 = max_now_ns();
  for (auto& sh : shards_) sh->db->AdvanceClockTo(t0);
  initialized_ = true;
  return Status::OK();
}

uint64_t Cluster::max_now_ns() const {
  uint64_t t = 0;
  for (const auto& sh : shards_) t = std::max(t, sh->db->now_ns());
  return t;
}

uint64_t Cluster::Submit(std::vector<int64_t> keys, int64_t delta,
                         uint64_t at_ns, TxnDone done) {
  const uint64_t gid = next_gid_++;
  Machine m;
  m.gid = gid;
  m.delta = delta;
  m.submit_ns = at_ns;
  m.done = std::move(done);
  m.keys = std::move(keys);
  for (int64_t k : m.keys) m.groups[ShardOf(k)].push_back(k);
  m.coord = ShardOf(m.keys.front());
  m.cross = m.groups.size() > 1;
  machines_.emplace(gid, std::move(m));
  sched_.At(at_ns, [this, gid](uint64_t now) { ArriveEvent(gid, now); });
  return gid;
}

Status Cluster::Run() { return sched_.Run(); }

bool Cluster::StepAlive(const char* step, uint32_t s, uint64_t gid) {
  if (step_hook_) step_hook_(step, s, gid);
  return shards_[s]->up;
}

Status Cluster::LocalTxn(
    uint32_t s, const std::function<Status(Database*, Transaction*)>& fn) {
  Database* db = shards_[s]->db.get();
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Status st = fn(db, txn.value());
  if (!st.ok()) {
    db->Abort(txn.value());
    return st;
  }
  return db->Commit(txn.value());
}

void Cluster::ArriveEvent(uint64_t gid, uint64_t now_ns) {
  auto it = machines_.find(gid);
  if (it == machines_.end()) return;
  Machine& m = it->second;
  Shard& sh = *shards_[m.coord];
  if (!sh.up) {
    // Client request to a crashed node: fails fast at the client.
    FinishMachine(gid, false, now_ns);
    return;
  }
  if (sh.active < opts_.workers_per_shard) {
    StartMachine(gid, now_ns);
  } else {
    m.state = MachineState::kQueued;
    sh.admit_queue.push_back(gid);
  }
}

void Cluster::PumpAdmissions(uint32_t s, uint64_t now_ns) {
  Shard& sh = *shards_[s];
  while (sh.up && sh.active < opts_.workers_per_shard &&
         !sh.admit_queue.empty()) {
    const uint64_t gid = sh.admit_queue.front();
    sh.admit_queue.pop_front();
    if (machines_.find(gid) == machines_.end()) continue;
    StartMachine(gid, now_ns);
  }
}

void Cluster::StartMachine(uint64_t gid, uint64_t now_ns) {
  Machine& m = machines_.at(gid);
  m.state = MachineState::kActive;
  Shard& sh = *shards_[m.coord];
  ++sh.active;
  sh.db->AdvanceClockTo(now_ns);
  if (m.cross) {
    Run2Pc(gid);
  } else {
    Run1Pc(gid);
  }
}

void Cluster::FinishMachine(uint64_t gid, bool committed, uint64_t now_ns) {
  auto it = machines_.find(gid);
  if (it == machines_.end()) return;
  Machine m = std::move(it->second);
  machines_.erase(it);
  if (committed) {
    ++committed_;
    m_committed_->Add();
    m_commit_rate_->Add(now_ns);
    (m.cross ? m_latency_cross_ : m_latency_single_)
        ->Record(static_cast<double>(now_ns - m.submit_ns));
  } else {
    ++aborted_;
    m_aborted_->Add();
  }
  if (m.state == MachineState::kActive) {
    Shard& sh = *shards_[m.coord];
    if (sh.active > 0) --sh.active;
    if (sh.up && !sh.admit_queue.empty()) {
      const uint32_t s = m.coord;
      // A follow-up event (not direct recursion): a long queue of
      // synchronous 1PC transactions must not grow the host stack.
      sched_.At(now_ns, [this, s](uint64_t t) { PumpAdmissions(s, t); });
    }
  }
  if (m.done) m.done(m.gid, committed, now_ns);
}

void Cluster::Run1Pc(uint64_t gid) {
  const uint32_t s = machines_.at(gid).coord;
  Shard& sh = *shards_[s];
  if (!StepAlive("1pc.begin", s, gid) || machines_.find(gid) == machines_.end())
    return;
  Machine& m = machines_.at(gid);
  for (int64_t k : m.keys) {
    if (sh.blocked.count(k) != 0) {
      // Key is in-doubt under some prepared 2PC transaction.
      FinishMachine(gid, false, sh.db->now_ns());
      return;
    }
  }
  const int64_t delta = m.delta;
  const std::vector<int64_t> keys = m.keys;
  Status st = LocalTxn(s, [&](Database* db, Transaction* txn) -> Status {
    for (int64_t k : keys) {
      const EntityAddr addr = sh.kv_addr.at(k);
      auto row = db->Read(txn, "kv", addr);
      if (!row.ok()) return row.status();
      Tuple updated = row.value();
      updated[1] = std::get<int64_t>(updated[1]) + delta;
      MMDB_RETURN_IF_ERROR(db->Update(txn, "kv", addr, updated));
    }
    return Status::OK();
  });
  if (!st.ok()) {
    FinishMachine(gid, false, sh.db->now_ns());
    return;
  }
  if (!StepAlive("1pc.committed", s, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  FinishMachine(gid, true, sh.db->now_ns());
}

void Cluster::Run2Pc(uint64_t gid) {
  const uint32_t coord = machines_.at(gid).coord;
  Shard& sh = *shards_[coord];
  if (!StepAlive("2pc.begin", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  Machine& m = machines_.at(gid);
  for (const auto& [p, keys] : m.groups) {
    if (!shards_[p]->up) {
      // A participant is known down: fail fast, prepare nothing.
      FinishMachine(gid, false, sh.db->now_ns());
      return;
    }
  }
  m.votes_pending = static_cast<uint32_t>(m.groups.size());
  m_prepares_->Add(m.groups.size());
  // Copy out the payload: the self-prepare path below fires hooks that
  // may crash shards and erase machines.
  const auto groups = m.groups;
  const int64_t delta = m.delta;
  for (const auto& [p, keys] : groups) {
    if (p == coord) {
      // Self-participation: no network hop, the coordinator prepares in
      // place and votes to itself.
      const bool yes =
          PrepareLocal(coord, gid, coord, keys, delta, sh.db->now_ns());
      if (!sh.up) return;
      VoteRecvEvent(gid, coord, yes, sh.db->now_ns());
      if (machines_.find(gid) == machines_.end()) return;
    } else {
      const uint64_t bytes = kPrepareBytesBase + kPrepareBytesPerKey * keys.size();
      // The message carries the prepare payload, so a participant can
      // prepare even if the coordinator has crashed meanwhile — that
      // orphan resolves through the presumed-abort inquiry path.
      net_->Send(coord, p, bytes, sh.db->now_ns(),
                 [this, p, gid, coord, keys, delta](uint64_t t, bool ok) {
                   if (ok) {
                     PrepareRecvEvent(p, gid, coord, keys, delta, t);
                   } else {
                     // Failure detector: an unreachable participant is a
                     // NO vote.
                     VoteRecvEvent(gid, p, false, t);
                   }
                 });
    }
  }
  if (machines_.find(gid) == machines_.end() || !shards_[coord]->up) return;
  sched_.At(sh.db->now_ns() + opts_.vote_timeout_ns,
            [this, gid](uint64_t t) { VoteTimeoutEvent(gid, t); });
}

bool Cluster::PrepareLocal(uint32_t p, uint64_t gid, uint32_t coord,
                           const std::vector<int64_t>& keys, int64_t delta,
                           uint64_t now_ns) {
  Shard& sh = *shards_[p];
  sh.db->AdvanceClockTo(now_ns);
  for (int64_t k : keys) {
    if (sh.blocked.count(k) != 0) {
      m_votes_no_->Add();
      return false;
    }
  }
  // Stamp the journal rows with the shard's group-commit frontier at
  // prepare time (zeros under a single log stream).
  const int64_t epoch = static_cast<int64_t>(sh.db->last_commit_epoch());
  const int64_t csn = static_cast<int64_t>(sh.db->last_commit_csn());
  Prepared entry;
  entry.coord = coord;
  Status st = LocalTxn(p, [&](Database* db, Transaction* txn) -> Status {
    for (int64_t k : keys) {
      const EntityAddr addr = sh.kv_addr.at(k);
      auto row = db->Read(txn, "kv", addr);
      if (!row.ok()) return row.status();
      const int64_t old = std::get<int64_t>(row.value()[1]);
      Tuple updated = row.value();
      updated[1] = old + delta;
      MMDB_RETURN_IF_ERROR(db->Update(txn, "kv", addr, updated));
      auto jaddr = db->Insert(
          txn, "p2c",
          Tuple{static_cast<int64_t>(gid), static_cast<int64_t>(coord), k, old,
                epoch, csn});
      if (!jaddr.ok()) return jaddr.status();
      entry.rows.push_back({k, old, jaddr.value()});
    }
    return Status::OK();
  });
  if (!st.ok()) {
    m_votes_no_->Add();
    return false;
  }
  // Crash here: the journal is durable but the vote dies with us — the
  // coordinator times the vote out (abort) and our restart rebuild
  // resolves the prepared state via inquiry.
  if (!StepAlive("2pc.prepare.applied", p, gid)) return false;
  for (const auto& r : entry.rows) sh.blocked.insert(r.key);
  entry.inquiry_gen = sh.next_inquiry_gen++;
  const uint64_t inquiry_at = sh.db->now_ns() + opts_.inquiry_timeout_ns;
  sh.prepared[gid] = std::move(entry);
  ScheduleInquiry(p, gid, inquiry_at);
  return true;
}

void Cluster::PrepareRecvEvent(uint32_t p, uint64_t gid, uint32_t coord,
                               std::vector<int64_t> keys, int64_t delta,
                               uint64_t now_ns) {
  Shard& sh = *shards_[p];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  if (!StepAlive("2pc.prepare.recv", p, gid)) return;
  const bool yes = PrepareLocal(p, gid, coord, keys, delta, sh.db->now_ns());
  if (!sh.up) return;
  net_->Send(p, coord, kControlBytes, sh.db->now_ns(),
             [this, gid, p, yes](uint64_t t, bool ok) {
               // Undeliverable vote: the coordinator is gone; if we
               // prepared, our inquiry timer resolves the outcome.
               if (ok) VoteRecvEvent(gid, p, yes, t);
             });
}

void Cluster::VoteRecvEvent(uint64_t gid, uint32_t from, bool yes,
                            uint64_t now_ns) {
  auto it = machines_.find(gid);
  if (it == machines_.end()) return;  // coordinator crashed or timed out
  const uint32_t coord = it->second.coord;
  Shard& sh = *shards_[coord];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  if (!StepAlive("2pc.vote.recv", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  Machine& m = machines_.at(gid);
  if (m.decided || m.votes_pending == 0) return;  // vote after timeout
  --m.votes_pending;
  if (yes) {
    m.yes_voters.push_back(from);
  } else {
    m.vote_no = true;
  }
  if (m.votes_pending == 0) Decide(gid);
}

void Cluster::VoteTimeoutEvent(uint64_t gid, uint64_t now_ns) {
  auto it = machines_.find(gid);
  if (it == machines_.end()) return;
  Machine& m = it->second;
  if (m.decided || m.votes_pending == 0) return;
  const uint32_t coord = m.coord;
  Shard& sh = *shards_[coord];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  if (!StepAlive("2pc.vote.timeout", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  Machine& m2 = machines_.at(gid);
  // Silent participants count as NO: they crashed before voting (their
  // prepared state, if any, resolves via inquiry → presumed abort).
  m2.votes_pending = 0;
  m2.vote_no = true;
  Decide(gid);
}

void Cluster::Decide(uint64_t gid) {
  Machine& m0 = machines_.at(gid);
  m0.decided = true;
  const uint32_t coord = m0.coord;
  Shard& sh = *shards_[coord];
  if (m0.vote_no) {
    // Presumed abort: log nothing, just tell the prepared participants.
    if (!StepAlive("2pc.abort.decided", coord, gid) ||
        machines_.find(gid) == machines_.end())
      return;
    const std::vector<uint32_t> yes = machines_.at(gid).yes_voters;
    for (uint32_t p : yes) {
      if (p == coord) {
        CompensateLocal(coord, gid);
        if (!sh.up || machines_.find(gid) == machines_.end()) return;
      } else {
        net_->Send(coord, p, kControlBytes, sh.db->now_ns(),
                   [this, p, gid](uint64_t t, bool ok) {
                     if (ok) DecisionRecvEvent(p, gid, false, t);
                   });
      }
    }
    FinishMachine(gid, false, sh.db->now_ns());
    return;
  }
  if (!StepAlive("2pc.outcome.begin", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  // The commit point: one durable outcome record on the coordinator.
  Status st = LocalTxn(coord, [&](Database* db, Transaction* txn) -> Status {
    auto addr = db->Insert(txn, "p2c_out", Tuple{static_cast<int64_t>(gid)});
    return addr.status();
  });
  if (!st.ok()) {
    sched_.Fail(st);
    return;
  }
  m_outcomes_->Add();
  if (!StepAlive("2pc.outcome.logged", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  const auto groups = machines_.at(gid).groups;
  for (const auto& [p, keys] : groups) {
    if (p == coord) {
      FinalizeLocal(coord, gid);
      if (!sh.up || machines_.find(gid) == machines_.end()) return;
    } else {
      net_->Send(coord, p, kControlBytes, sh.db->now_ns(),
                 [this, p, gid](uint64_t t, bool ok) {
                   // Undeliverable decision: the participant resolves at
                   // restart via inquiry; our outcome row has the answer.
                   if (ok) DecisionRecvEvent(p, gid, true, t);
                 });
    }
  }
  if (!StepAlive("2pc.decision.sent", coord, gid) ||
      machines_.find(gid) == machines_.end())
    return;
  FinishMachine(gid, true, sh.db->now_ns());
}

void Cluster::DecisionRecvEvent(uint32_t p, uint64_t gid, bool commit,
                                uint64_t now_ns) {
  Shard& sh = *shards_[p];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  if (!StepAlive("2pc.decision.recv", p, gid)) return;
  ResolvePrepared(p, gid, commit);
}

void Cluster::ResolvePrepared(uint32_t p, uint64_t gid, bool commit) {
  if (shards_[p]->prepared.find(gid) == shards_[p]->prepared.end()) return;
  if (commit) {
    FinalizeLocal(p, gid);
  } else {
    CompensateLocal(p, gid);
  }
}

void Cluster::FinalizeLocal(uint32_t p, uint64_t gid) {
  Shard& sh = *shards_[p];
  auto it = sh.prepared.find(gid);
  if (it == sh.prepared.end()) return;
  const Prepared entry = std::move(it->second);
  sh.prepared.erase(it);
  Status st = LocalTxn(p, [&](Database* db, Transaction* txn) -> Status {
    for (const auto& r : entry.rows) {
      MMDB_RETURN_IF_ERROR(db->Delete(txn, "p2c", r.addr));
    }
    return Status::OK();
  });
  if (!st.ok()) {
    sched_.Fail(st);
    return;
  }
  for (const auto& r : entry.rows) sh.blocked.erase(r.key);
  m_finalizes_->Add();
  StepAlive("2pc.finalized", p, gid);
}

void Cluster::CompensateLocal(uint32_t p, uint64_t gid) {
  Shard& sh = *shards_[p];
  auto it = sh.prepared.find(gid);
  if (it == sh.prepared.end()) return;
  const Prepared entry = std::move(it->second);
  sh.prepared.erase(it);
  Status st = LocalTxn(p, [&](Database* db, Transaction* txn) -> Status {
    for (const auto& r : entry.rows) {
      const EntityAddr addr = sh.kv_addr.at(r.key);
      auto row = db->Read(txn, "kv", addr);
      if (!row.ok()) return row.status();
      Tuple updated = row.value();
      // The key was blocked since prepare, so the old value is exact.
      updated[1] = r.old_value;
      MMDB_RETURN_IF_ERROR(db->Update(txn, "kv", addr, updated));
      MMDB_RETURN_IF_ERROR(db->Delete(txn, "p2c", r.addr));
    }
    return Status::OK();
  });
  if (!st.ok()) {
    sched_.Fail(st);
    return;
  }
  for (const auto& r : entry.rows) sh.blocked.erase(r.key);
  m_compensations_->Add();
  StepAlive("2pc.compensated", p, gid);
}

void Cluster::ScheduleInquiry(uint32_t p, uint64_t gid, uint64_t at_ns) {
  auto it = shards_[p]->prepared.find(gid);
  if (it == shards_[p]->prepared.end()) return;
  const uint64_t gen = it->second.inquiry_gen;
  sched_.At(at_ns,
            [this, p, gid, gen](uint64_t t) { InquiryTimerEvent(p, gid, gen, t); });
}

void Cluster::InquiryTimerEvent(uint32_t p, uint64_t gid, uint64_t gen,
                                uint64_t now_ns) {
  Shard& sh = *shards_[p];
  if (!sh.up) return;
  auto it = sh.prepared.find(gid);
  if (it == sh.prepared.end() || it->second.inquiry_gen != gen) return;
  if (++it->second.inquiries > opts_.max_inquiries) return;
  sh.db->AdvanceClockTo(now_ns);
  m_inquiries_->Add();
  const uint32_t coord = it->second.coord;
  net_->Send(p, coord, kControlBytes, sh.db->now_ns(),
             [this, coord, gid, p](uint64_t t, bool ok) {
               // Coordinator unreachable: the rescheduled timer retries.
               if (ok) ResolveRecvEvent(coord, gid, p, t);
             });
  ScheduleInquiry(p, gid, sh.db->now_ns() + opts_.inquiry_timeout_ns);
}

void Cluster::ResolveRecvEvent(uint32_t coord, uint64_t gid, uint32_t from,
                               uint64_t now_ns) {
  Shard& sh = *shards_[coord];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  if (!StepAlive("2pc.resolve.recv", coord, gid)) return;
  if (machines_.find(gid) != machines_.end()) {
    return;  // still deciding; the participant will ask again
  }
  bool committed = false;
  Status st = LocalTxn(coord, [&](Database* db, Transaction* txn) -> Status {
    auto hits = db->IndexLookup(txn, "p2c_out_gid", static_cast<int64_t>(gid));
    if (!hits.ok()) return hits.status();
    // Presumed abort: no outcome record and no live machine => aborted.
    committed = !hits.value().empty();
    return Status::OK();
  });
  if (!st.ok()) {
    sched_.Fail(st);
    return;
  }
  net_->Send(coord, from, kControlBytes, sh.db->now_ns(),
             [this, from, gid, committed](uint64_t t, bool ok) {
               if (ok) OutcomeRecvEvent(from, gid, committed, t);
             });
}

void Cluster::OutcomeRecvEvent(uint32_t p, uint64_t gid, bool commit,
                               uint64_t now_ns) {
  Shard& sh = *shards_[p];
  if (!sh.up) return;
  if (sh.prepared.find(gid) == sh.prepared.end()) return;  // decision won
  sh.db->AdvanceClockTo(now_ns);
  ResolvePrepared(p, gid, commit);
  if (sh.up) StepAlive("2pc.resolved", p, gid);
}

void Cluster::ScheduleRestart(uint32_t s, uint64_t at_ns) {
  sched_.At(at_ns, [this, s](uint64_t t) {
    Status st = RestartShardNow(s, t);
    if (!st.ok()) sched_.Fail(st);
  });
}

void Cluster::KillShardNow(uint32_t s, uint64_t now_ns) {
  Shard& sh = *shards_[s];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  sh.db->Crash();
  sh.up = false;
  net_->NodeDown(s);  // every in-flight message to or from s drops
  sh.prepared.clear();
  sh.blocked.clear();
  sh.active = 0;
  // Queued admissions never started any work: fail them to the client.
  std::deque<uint64_t> q = std::move(sh.admit_queue);
  sh.admit_queue.clear();
  for (uint64_t gid : q) FinishMachine(gid, false, now_ns);
  // Machines this shard coordinated die with it. Their clients get no
  // answer; the durable outcome log is the ground truth for them.
  std::vector<uint64_t> doomed;
  for (const auto& [gid, m] : machines_) {
    if (m.coord == s && m.state == MachineState::kActive) doomed.push_back(gid);
  }
  for (uint64_t gid : doomed) {
    machines_.erase(gid);
    lost_gids_.push_back(gid);
    m_lost_->Add();
  }
}

Status Cluster::RestartShardNow(uint32_t s, uint64_t now_ns) {
  Shard& sh = *shards_[s];
  if (sh.up) return Status::InvalidArgument("shard is not down");
  sh.db->AdvanceClockTo(now_ns);
  MMDB_RETURN_IF_ERROR(sh.db->Restart());
  // Rebuild the prepared set from the durable journal *before* any
  // traffic is admitted: in-doubt keys must be blocked from the first
  // transaction. The scan pulls exactly the journal's partitions back
  // resident (on-demand recovery).
  std::vector<std::pair<JournalRow, EntityAddr>> rows;
  Status st = LocalTxn(s, [&](Database* db, Transaction* txn) -> Status {
    auto scan = db->Scan(txn, "p2c");
    if (!scan.ok()) return scan.status();
    for (const auto& [addr, t] : scan.value()) {
      JournalRow r;
      r.gid = static_cast<uint64_t>(std::get<int64_t>(t[0]));
      r.coord = static_cast<uint32_t>(std::get<int64_t>(t[1]));
      r.key = std::get<int64_t>(t[2]);
      r.old_value = std::get<int64_t>(t[3]);
      r.epoch = static_cast<uint32_t>(std::get<int64_t>(t[4]));
      r.csn = static_cast<uint64_t>(std::get<int64_t>(t[5]));
      rows.emplace_back(r, addr);
    }
    return Status::OK();
  });
  MMDB_RETURN_IF_ERROR(st);
  for (const auto& [r, addr] : rows) {
    Prepared& e = sh.prepared[r.gid];
    e.coord = r.coord;
    if (e.inquiry_gen == 0) e.inquiry_gen = sh.next_inquiry_gen++;
    e.rows.push_back({r.key, r.old_value, addr});
    sh.blocked.insert(r.key);
  }
  sh.up = true;
  net_->NodeUp(s);
  // In-doubt resolution: ask each coordinator for the outcome now.
  for (const auto& [gid, e] : sh.prepared) {
    ScheduleInquiry(s, gid, sh.db->now_ns());
  }
  // Background sweep: pull the rest of the shard resident while serving.
  sched_.At(sh.db->now_ns(), [this, s](uint64_t t) { SweepEvent(s, t); });
  return Status::OK();
}

void Cluster::SweepEvent(uint32_t s, uint64_t now_ns) {
  Shard& sh = *shards_[s];
  if (!sh.up) return;
  sh.db->AdvanceClockTo(now_ns);
  bool done = false;
  Status st = sh.db->BackgroundRecoveryStep(&done);
  if (!st.ok()) {
    sched_.Fail(st);
    return;
  }
  if (!done) {
    // Guarantee forward progress even if a step was a no-op.
    const uint64_t next = std::max(sh.db->now_ns(), now_ns + 1000);
    sched_.At(next, [this, s](uint64_t t) { SweepEvent(s, t); });
  }
}

Result<int64_t> Cluster::ReadKey(int64_t key) {
  const uint32_t s = ShardOf(key);
  Shard& sh = *shards_[s];
  if (!sh.up) return Status::Busy("shard is down");
  int64_t v = 0;
  Status st = LocalTxn(s, [&](Database* db, Transaction* txn) -> Status {
    auto row = db->Read(txn, "kv", sh.kv_addr.at(key));
    if (!row.ok()) return row.status();
    v = std::get<int64_t>(row.value()[1]);
    return Status::OK();
  });
  MMDB_RETURN_IF_ERROR(st);
  return v;
}

Result<bool> Cluster::OutcomeLogged(uint32_t s, uint64_t gid) {
  Shard& sh = *shards_[s];
  if (!sh.up) return Status::Busy("shard is down");
  bool present = false;
  Status st = LocalTxn(s, [&](Database* db, Transaction* txn) -> Status {
    auto hits = db->IndexLookup(txn, "p2c_out_gid", static_cast<int64_t>(gid));
    if (!hits.ok()) return hits.status();
    present = !hits.value().empty();
    return Status::OK();
  });
  MMDB_RETURN_IF_ERROR(st);
  return present;
}

Status Cluster::ScanJournal(uint32_t s, std::vector<JournalRow>* out) {
  Shard& sh = *shards_[s];
  if (!sh.up) return Status::Busy("shard is down");
  return LocalTxn(s, [&](Database* db, Transaction* txn) -> Status {
    auto scan = db->Scan(txn, "p2c");
    if (!scan.ok()) return scan.status();
    for (const auto& [addr, t] : scan.value()) {
      JournalRow r;
      r.gid = static_cast<uint64_t>(std::get<int64_t>(t[0]));
      r.coord = static_cast<uint32_t>(std::get<int64_t>(t[1]));
      r.key = std::get<int64_t>(t[2]);
      r.old_value = std::get<int64_t>(t[3]);
      r.epoch = static_cast<uint32_t>(std::get<int64_t>(t[4]));
      r.csn = static_cast<uint64_t>(std::get<int64_t>(t[5]));
      out->push_back(r);
    }
    return Status::OK();
  });
}

}  // namespace mmdb::shard
