#ifndef MMDB_BENCH_BENCH_COMMON_H_
#define MMDB_BENCH_BENCH_COMMON_H_

// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of Lehman & Carey (SIGMOD '87), §3.
// Reported metrics come from the *simulation's virtual time* (instruction
// accounting and disk models), not host wall-clock: the paper's numbers
// are for a 1-MIPS recovery CPU and 1987 disks, and the simulator
// reproduces those environs.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "core/database.h"
#include "log/log_record.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace mmdb::bench {

/// A synthetic kInsert log record whose serialized size is exactly
/// `bytes`. Its varint header depends on `txn`, `bin` and `slot`, and its
/// length field grows a byte at 128 image bytes; a size no image length
/// reaches, or one below the empty record's, aborts rather than drive
/// the sort process at a size nobody asked for. Used to drive the sort
/// process at controlled record sizes.
inline LogRecord SyntheticRecord(uint64_t txn, PartitionId pid, uint32_t bin,
                                 uint32_t slot, size_t bytes) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.bin_index = bin;
  r.txn_id = txn;
  r.partition = pid;
  r.slot = slot;
  const size_t envelope = r.SerializedSize();  // header + length field
  MMDB_CHECK(bytes >= envelope);
  r.data.assign(bytes - envelope, 0xAB);
  if (r.SerializedSize() > bytes) r.data.pop_back();
  MMDB_CHECK(r.SerializedSize() == bytes);
  return r;
}

/// One log stream on its own (SLB -> sort -> SLT -> log disk), for
/// logging-capacity measurements without the full database on top.
/// `metrics`, when given, receives the stream's series.
class LoggingRig {
 public:
  LoggingRig(uint32_t page_bytes, uint64_t n_update,
             obs::MetricsRegistry* metrics = nullptr)
      : opts_(Options(page_bytes, n_update)),
        meter_(opts_.stable_memory_bytes),
        cpu_("recovery", opts_.recovery_cpu_mips),
        stream_(opts_, 0, &meter_, &cpu_, nullptr, metrics) {}

  /// Feeds `n` committed records of `record_bytes` each, spread over
  /// `partitions` bins, and drains the sort process.
  Status Run(uint64_t n, size_t record_bytes, uint32_t partitions) {
    std::vector<uint32_t> bins;
    for (uint32_t p = 0; p < partitions; ++p) {
      auto bin = stream_.slt().RegisterPartition({1, p});
      if (!bin.ok()) return bin.status();
      bins.push_back(bin.value());
    }
    uint64_t txn = 1;
    const uint64_t batch = 64;
    for (uint64_t i = 0; i < n;) {
      for (uint64_t k = 0; k < batch && i < n; ++k, ++i) {
        uint32_t p = static_cast<uint32_t>(i % partitions);
        MMDB_RETURN_IF_ERROR(stream_.slb().Append(
            txn, SyntheticRecord(txn, {1, p}, bins[p],
                                 static_cast<uint32_t>(i), record_bytes)));
      }
      MMDB_RETURN_IF_ERROR(stream_.slb().Commit(txn));
      ++txn;
      MMDB_RETURN_IF_ERROR(stream_.Drain(0));
    }
    return Status::OK();
  }

  /// Measured sort throughput in records/second of recovery-CPU time.
  double RecordsPerSecond() const {
    double seconds = cpu_.total_instructions() / 1e6;  // 1 MIPS
    return seconds > 0 ? static_cast<double>(stream_.records_sorted()) /
                             seconds
                       : 0.0;
  }
  double BytesPerSecond(size_t record_bytes) const {
    return RecordsPerSecond() * static_cast<double>(record_bytes);
  }

 private:
  static DatabaseOptions Options(uint32_t page_bytes, uint64_t n_update) {
    DatabaseOptions o;
    o.log_page_bytes = page_bytes;
    o.n_update = n_update;
    o.stable_memory_bytes = 256ull << 20;
    o.slb_capacity_bytes = 64ull << 20;
    return o;
  }

  DatabaseOptions opts_;
  sim::StableMemoryMeter meter_;
  sim::CpuModel cpu_;
  LogStream stream_;
};

inline Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kInt64},
                 {"branch", ColumnType::kInt64}});
}

/// Builds a database with `rows` accounts in `relation` (debit/credit
/// style: three int64 columns, 7- or 8-byte rows), appending each row's
/// address to `*addrs` when given.
inline Status Populate(Database* db, const std::string& relation,
                       int64_t rows, std::vector<EntityAddr>* addrs = nullptr) {
  MMDB_RETURN_IF_ERROR(db->CreateRelation(relation, AccountSchema()));
  int64_t id = 0;
  while (id < rows) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    for (int k = 0; k < 100 && id < rows; ++k, ++id) {
      auto a = db->Insert(txn.value(), relation,
                          Tuple{id, int64_t{1000}, id % 97});
      if (!a.ok()) return a.status();
      if (addrs != nullptr) addrs->push_back(a.value());
    }
    MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  }
  return Status::OK();
}

/// Handles to the four debit/credit relations (Gray's TP1: account,
/// teller, branch, history — four log records per transaction).
struct DebitCreditRig {
  std::vector<EntityAddr> accounts;
  std::vector<EntityAddr> tellers;
  std::vector<EntityAddr> branches;
  int64_t next_hist_id = 0;
};

/// Creates and populates the four TP1 relations.
inline Status SetupDebitCredit(Database* db, int64_t n_accounts,
                               DebitCreditRig* rig) {
  MMDB_RETURN_IF_ERROR(Populate(db, "account", n_accounts));
  MMDB_RETURN_IF_ERROR(Populate(db, "teller", std::max<int64_t>(10, n_accounts / 100)));
  MMDB_RETURN_IF_ERROR(Populate(db, "branch", std::max<int64_t>(2, n_accounts / 1000)));
  MMDB_RETURN_IF_ERROR(db->CreateRelation("history", AccountSchema()));
  auto grab = [&](const std::string& rel, std::vector<EntityAddr>* out) {
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    auto rows = db->Scan(txn.value(), rel);
    if (!rows.ok()) return rows.status();
    for (auto& [a, _] : rows.value()) out->push_back(a);
    return db->Commit(txn.value());
  };
  MMDB_RETURN_IF_ERROR(grab("account", &rig->accounts));
  MMDB_RETURN_IF_ERROR(grab("teller", &rig->tellers));
  return grab("branch", &rig->branches);
}

/// One Gray-style debit/credit transaction: update an account, a teller
/// and a branch balance, insert a history row — four log records.
inline Status DebitCredit(Database* db, DebitCreditRig* rig, Random* rng) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Transaction* t = txn.value();
  auto bump = [&](const std::string& rel, const EntityAddr& a) {
    auto row = db->Read(t, rel, a);
    if (!row.ok()) return row.status();
    Tuple updated = row.value();
    updated[1] = std::get<int64_t>(updated[1]) + 1;
    return db->Update(t, rel, a, updated);
  };
  MMDB_RETURN_IF_ERROR(
      bump("account", rig->accounts[rng->Uniform(rig->accounts.size())]));
  MMDB_RETURN_IF_ERROR(
      bump("teller", rig->tellers[rng->Uniform(rig->tellers.size())]));
  MMDB_RETURN_IF_ERROR(
      bump("branch", rig->branches[rng->Uniform(rig->branches.size())]));
  auto h = db->Insert(t, "history",
                      Tuple{rig->next_hist_id++, int64_t{1}, int64_t{1}});
  if (!h.ok()) return h.status();
  return db->Commit(t);
}

inline void PrintHeader(const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", what);
  std::printf("Lehman & Carey, SIGMOD 1987 — reproduction harness\n");
  std::printf("================================================================\n");
}

}  // namespace mmdb::bench

#endif  // MMDB_BENCH_BENCH_COMMON_H_
