// The partition-rebuild pipeline (paper §2.5, §2.5.1).
//
// RebuildPartition is the one routine that brings a partition back from
// its checkpoint image plus its log chain, and Install is the one place a
// rebuilt copy becomes resident. LaneLoop is the one loop that drives the
// pair: restart phase 1, the kFullReload restart, on-demand faults,
// RecoverRelation and BackgroundRecoveryStep run it over a list
// (RecoverPartitionsParallel), and the concurrent executor runs it over
// the sweep queue between transaction operations (src/txn/executor.cc).
//
// A rebuild is time-functional. Its device requests start at the ready
// time it is given, and the checkpoint disk, each log spindle and the
// lane's CPU serialize it against all other traffic through their own
// busy-until queues. Within a partition the checkpoint-image transfer,
// the log-chain reads and the record apply overlap on the virtual
// timeline unless pipelined_recovery is off.

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/database.h"
#include "sim/scheduler.h"
#include "util/logging.h"

namespace mmdb {

Result<Database::RebuiltPartition> Database::RebuildPartition(
    PartitionId pid, uint64_t ready_ns, RecoveryLane* lane, LogReads reads) {
  const obs::Track track = obs::LaneTrack(lane->index);
  const std::string name = pid.ToString();
  auto bin_index = log_->FindBin(pid);
  if (!bin_index.ok()) {
    return Status::Corruption("no Stable Log Tail bin for " + name);
  }
  RebuiltPartition out;
  out.lane = lane->index;
  out.start_ns = ready_ns;

  // Checkpoint image: one track read, retried with virtual backoff on
  // transient I/O errors. Everything that touches partition memory waits
  // for it.
  uint64_t image_ns = ready_ns;
  auto d = v_->catalog.FindDescriptor(pid);
  if (!d.ok()) return d.status();
  if (!d.value()->has_checkpoint()) {
    out.part = std::make_unique<Partition>(pid, opts_.partition_size_bytes,
                                           bin_index.value());
  } else {
    const uint32_t pages_per_slot =
        opts_.partition_size_bytes / opts_.log_page_bytes;
    std::vector<uint8_t> image;
    image.reserve(opts_.partition_size_bytes);
    uint64_t t = ready_ns;
    Status st;
    for (uint32_t attempt = 0;; ++attempt) {
      st = checkpoint_disk_->ReadTrackInto(d.value()->checkpoint_page,
                                           pages_per_slot, t,
                                           sim::SeekClass::kRandom, &image,
                                           &image_ns);
      if (st.ok() || !st.IsIOError() ||
          attempt + 1 >= sim::kReadRetryAttempts) {
        break;
      }
      t += (attempt + 1) * sim::kReadRetryBackoffNs;
      m_disk_retries_->Add(1);
    }
    MMDB_RETURN_IF_ERROR(st);
    auto from = Partition::FromImage(std::move(image));
    if (!from.ok()) return from.status();
    out.part = std::move(from).value();
    if (!(out.part->id() == pid)) {
      return Status::Corruption("checkpoint image is for wrong partition");
    }
    tracer_.Span(track, "recovery", "image " + name, ready_ns,
                 image_ns - ready_ns);
  }

  // The log chain, each stream on its own duplexed pair. Without
  // pipelining the walk waits for the image.
  const uint64_t walk_ns = opts_.pipelined_recovery ? ready_ns : image_ns;
  const uint32_t streams = log_streams();
  std::vector<LogStream::ChainLog> logs;
  logs.reserve(streams);
  uint64_t reads_ns = walk_ns;  // the last page's arrival, every stream
  for (uint32_t s = 0; s < streams; ++s) {
    auto log = log_->stream(s).ReadChain(bin_index.value(), walk_ns,
                                         reads == LogReads::kFanned);
    if (!log.ok()) return log.status();
    out.pages_read += log.value().pages_read;
    reads_ns = std::max(reads_ns, log.value().read_ns);
    logs.push_back(std::move(log).value());
  }
  if (out.pages_read > 0) {
    tracer_.Span(track, "recovery", "log " + name, walk_ns,
                 reads_ns - walk_ns);
  }

  if (fault_->armed()) {
    // restart.apply site: a crash here is a crash-within-recovery — the
    // half-built partition is volatile and simply rebuilt next time.
    fault::SiteEvent ev;
    ev.site = fault::Site::kRestartApply;
    ev.device = "recovery";
    ev.page_no = pid.Pack();
    ev.now_ns = reads_ns;
    MMDB_RETURN_IF_ERROR(fault_->OnSite(&ev));
  }

  // Apply in commit order: one stream's order, or the streams merged by
  // (epoch, csn). Each stream's records are a subsequence of the global
  // commit order, so a cursor merge restores it exactly; ties are
  // impossible (a csn belongs to one transaction, a transaction to one
  // stream). A run of records that one page completes is a chunk: it
  // applies on the lane's CPU once that page has arrived (without
  // pipelining, once the last page has) and never before the image.
  std::vector<size_t> cursor(streams, 0);
  auto next_stream = [&]() {
    uint32_t best = streams;
    for (uint32_t s = 0; s < streams; ++s) {
      if (cursor[s] >= logs[s].records.size()) continue;
      const LogRecord& a = logs[s].records[cursor[s]];
      if (best == streams) {
        best = s;
      } else if (const LogRecord& b = logs[best].records[cursor[best]];
                 std::tie(a.epoch, a.csn) < std::tie(b.epoch, b.csn)) {
        best = s;
      }
    }
    return best;
  };
  const double apply_ns_per_record =
      opts_.apply_instructions_per_record * main_cpu_.ns_per_instruction();
  uint64_t apply_ns = image_ns;
  uint64_t first_apply_ns = 0;
  for (uint32_t s = next_stream(); s < streams;) {
    const LogStream::ChainLog& log = logs[s];
    const uint32_t c = log.chunk_of[cursor[s]];
    uint64_t n = 0;
    uint32_t following = s;
    do {
      MMDB_RETURN_IF_ERROR(
          ApplyLogRecord(log.records[cursor[s]++], out.part.get()));
      ++n;
      following = next_stream();
    } while (following == s && log.chunk_of[cursor[s]] == c);
    const uint64_t data_ns =
        opts_.pipelined_recovery ? log.arrived_ns[c] : reads_ns;
    const uint64_t ready = std::max(data_ns, apply_ns);
    if (out.records_applied == 0) {
      first_apply_ns = std::max(ready, lane->cpu.busy_until_ns());
    }
    apply_ns = lane->cpu.Occupy(
        ready,
        static_cast<uint64_t>(static_cast<double>(n) * apply_ns_per_record));
    out.records_applied += n;
    s = following;
  }
  if (out.records_applied > 0) {
    tracer_.Span(track, "recovery", "apply " + name, first_apply_ns,
                 apply_ns - first_apply_ns);
  }
  out.done_ns = std::max(apply_ns, reads_ns);
  return out;
}

Result<bool> Database::Install(RebuiltPartition rebuilt,
                               RecoverySource source) {
  const PartitionId pid = rebuilt.part->id();
  auto found = v_->catalog.FindDescriptor(pid);
  // An on-demand fault recovered the partition (or DDL dropped it) while
  // this copy was in flight. The resident copy has seen every update
  // since; this one would be stale, so it is dropped.
  if (!found.ok() || found.value()->resident) {
    m_stale_rebuilds_->Add(1);
    return false;
  }
  MMDB_RETURN_IF_ERROR(v_->pm.InstallRecovered(std::move(rebuilt.part)));
  NoteSpaceFreed();
  found.value()->resident = true;

  const uint64_t took_ns = rebuilt.done_ns - rebuilt.start_ns;
  if (source == RecoverySource::kOnDemand) {
    m_ondemand_count_->Add(1);
    m_ondemand_ns_->Record(static_cast<double>(took_ns));
  } else if (source == RecoverySource::kBackground) {
    m_background_count_->Add(1);
    m_background_ns_->Record(static_cast<double>(took_ns));
  }
  recovery_progress_.OnPartitionsRecovered(source, 1, rebuilt.records_applied,
                                           rebuilt.done_ns);
  tracer_.Span(obs::LaneTrack(rebuilt.lane), "recovery",
               "recover " + pid.ToString(), rebuilt.start_ns, took_ns);
  return true;
}

void Database::LaneLoop::Start(uint32_t lanes, uint64_t t0) {
  lanes_.reserve(lanes);
  in_flight_.resize(lanes);
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    lanes_.emplace_back(lane);
    sched_->At(t0, [this, lane](uint64_t t) { Pull(lane, t); });
  }
}

void Database::LaneLoop::Pull(uint32_t lane, uint64_t now_ns) {
  PartitionId pid;
  if (work_ != nullptr) {
    if (next_ >= work_->size()) return;  // the lane drains
    pid = (*work_)[next_++];
  } else if (!db_->NextSweepItem(&pid)) {
    return;
  }
  auto rebuilt = db_->RebuildPartition(pid, now_ns, &lanes_[lane], reads_);
  if (!rebuilt.ok()) {
    sched_->Fail(rebuilt.status());
    return;
  }
  pages_read_ += rebuilt.value().pages_read;
  records_applied_ += rebuilt.value().records_applied;
  // The install mutates shared state (partition manager, catalog), so it
  // runs as its own event at the rebuild's completion instant. Events
  // run in ready-time order, so every device serves the lanes FCFS; on
  // the executor's scheduler an install loses virtual-time ties to
  // transaction steps.
  const uint64_t done_ns = rebuilt.value().done_ns;
  in_flight_[lane] = std::move(rebuilt).value();
  sched_->At(done_ns, [this, lane](uint64_t t) { Land(lane, t); });
}

bool Database::LaneLoop::TakeInFlight(PartitionId pid, RebuiltPartition* out) {
  for (RebuiltPartition& copy : in_flight_) {
    if (copy.part != nullptr && copy.part->id() == pid) {
      *out = std::move(copy);
      return true;
    }
  }
  return false;
}

void Database::LaneLoop::Land(uint32_t lane, uint64_t now_ns) {
  // An on-demand fault may have taken the copy (TakeInFlight).
  if (in_flight_[lane].part != nullptr) {
    auto installed = db_->Install(std::move(in_flight_[lane]), source_);
    if (!installed.ok()) {
      sched_->Fail(installed.status());
      return;
    }
    if (installed.value()) {
      ++installed_;
      last_install_ns_ = now_ns;
    }
  }
  Pull(lane, now_ns);
}

Status Database::RecoverPartitionsParallel(const std::vector<PartitionId>& work,
                                           RecoverySource source,
                                           RestartReport* report) {
  if (work.empty()) return Status::OK();
  const uint64_t t0 = clock_.now_ns();
  const auto lanes = static_cast<uint32_t>(std::min<size_t>(
      std::max<uint32_t>(1, opts_.recovery_parallelism), work.size()));
  sim::EventScheduler sched;
  sched.Reserve(2 * lanes + 8);
  LaneLoop loop(this, &sched, &work, LogReads::kFanned, source);
  loop.Start(lanes, t0);
  MMDB_RETURN_IF_ERROR(sched.Run());

  // The last event is the latest install: the run's virtual end.
  clock_.AdvanceTo(std::max(sched.now_ns(), t0));
  for (const RecoveryLane& lane : loop.lanes()) {
    m_lane_busy_ns_->Record(static_cast<double>(lane.cpu.busy_total_ns()));
  }
  if (report != nullptr) {
    report->log_pages_read += loop.pages_read();
    report->records_applied += loop.records_applied();
    report->partitions_recovered += loop.installed();
  }
  return Status::OK();
}

}  // namespace mmdb
