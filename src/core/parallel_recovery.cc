// The partition-rebuild pipeline (paper §2.5, §2.5.1).
//
// RebuildPartition is the one routine that brings a partition back from
// its checkpoint image plus its log chain, and Install is the one place a
// rebuilt copy becomes resident. Every recovery path drives the pair:
// restart phase 1, the kFullReload restart, on-demand faults,
// RecoverRelation and BackgroundRecoveryStep through the lane loop below,
// and the concurrent executor's interleaved sweep lanes
// (src/txn/executor.cc) between transaction operations.
//
// A rebuild is time-functional. Its device requests start at the ready
// time it is given, and the checkpoint disk, each log spindle and the
// lane's CPU serialize it against all other traffic through their own
// busy-until queues. Within a partition the checkpoint-image transfer,
// the log-chain reads and the record apply overlap on the virtual
// timeline unless pipelined_recovery is off.

#include <algorithm>
#include <functional>
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
    const RecoveryWorkItem& item, uint64_t ready_ns, RecoveryLane* lane,
    LogReads reads) {
  const obs::Track track = obs::LaneTrack(lane->index);
  const std::string name = item.pid.ToString();
  auto bin_index = log_->FindBin(item.pid);
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
  if (item.ckpt_page == kNoCheckpointPage) {
    out.part = std::make_unique<Partition>(
        item.pid, opts_.partition_size_bytes, bin_index.value());
  } else {
    const uint32_t pages_per_slot =
        opts_.partition_size_bytes / opts_.log_page_bytes;
    std::vector<uint8_t> image;
    image.reserve(opts_.partition_size_bytes);
    uint64_t t = ready_ns;
    Status st;
    for (uint32_t attempt = 0;; ++attempt) {
      st = checkpoint_disk_->ReadTrackInto(item.ckpt_page, pages_per_slot, t,
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
    if (!(out.part->id() == item.pid)) {
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
    ev.page_no = item.pid.Pack();
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
      if (streams > 1) main_cpu_.Execute(opts_.costs.i_record_lookup);
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
    main_cpu_.AccountInstructions(static_cast<double>(n) *
                                  opts_.apply_instructions_per_record);
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

Status Database::RecoverPartitionsParallel(
    const std::vector<RecoveryWorkItem>& work, RecoverySource source,
    RestartReport* report) {
  if (work.empty()) return Status::OK();
  RestartReport scratch;
  if (report == nullptr) report = &scratch;
  const uint64_t t0 = clock_.now_ns();
  const auto lane_count = static_cast<uint32_t>(std::min<size_t>(
      std::max<uint32_t>(1, opts_.recovery_parallelism), work.size()));
  std::vector<RecoveryLane> lanes;
  lanes.reserve(lane_count);
  for (uint32_t i = 0; i < lane_count; ++i) lanes.emplace_back(i);

  // A lane rebuilds one partition at a time and pulls the next item when
  // its install lands. The scheduler starts the rebuilds in ready-time
  // order, so every device serves the lanes FCFS and the schedule is
  // deterministic.
  sim::EventScheduler sched;
  sched.Reserve(2 * lane_count + 8);
  size_t next = 0;
  std::function<void(uint32_t, uint64_t)> pull = [&](uint32_t lane,
                                                     uint64_t now_ns) {
    if (next >= work.size()) return;  // the lane drains
    auto rebuilt = RebuildPartition(work[next++], now_ns, &lanes[lane],
                                    LogReads::kFanned);
    if (!rebuilt.ok()) {
      sched.Fail(rebuilt.status());
      return;
    }
    report->log_pages_read += rebuilt.value().pages_read;
    report->records_applied += rebuilt.value().records_applied;
    const uint64_t done_ns = rebuilt.value().done_ns;
    sched.At(done_ns, [&, lane, r = std::move(rebuilt).value()](
                          uint64_t t) mutable {
      auto installed = Install(std::move(r), source);
      if (!installed.ok()) {
        sched.Fail(installed.status());
        return;
      }
      if (installed.value()) ++report->partitions_recovered;
      pull(lane, t);
    });
  };
  for (uint32_t lane = 0; lane < lane_count; ++lane) {
    sched.At(t0, [&, lane](uint64_t t) { pull(lane, t); });
  }
  MMDB_RETURN_IF_ERROR(sched.Run());

  // The last event is the latest install: the run's virtual end.
  clock_.AdvanceTo(std::max(sched.now_ns(), t0));
  main_cpu_.IdleUntil(clock_.now_ns());
  for (const RecoveryLane& lane : lanes) {
    m_lane_busy_ns_->Record(static_cast<double>(lane.cpu.busy_total_ns()));
  }
  return Status::OK();
}

}  // namespace mmdb
