#include "obs/tracer.h"

#include <cstdio>
#include <set>

#include "obs/json.h"

namespace mmdb::obs {

namespace {

std::string TrackName(Track t) {
  switch (t) {
    case Track::kMainCpu: return "main-cpu";
    case Track::kRecoveryCpu: return "recovery-cpu";
    case Track::kLogDisk: return "log-disk";
    case Track::kCheckpointDisk: return "checkpoint-disk";
    case Track::kSystem: return "system";
    default: break;
  }
  uint32_t id = static_cast<uint32_t>(t);
  uint32_t log_base = static_cast<uint32_t>(Track::kLogDiskBase);
  if (id >= log_base) return "log-disk-" + std::to_string(id - log_base);
  uint32_t worker_base = static_cast<uint32_t>(Track::kTxnWorkerBase);
  if (id >= worker_base) return "txn-worker-" + std::to_string(id - worker_base);
  uint32_t lane_base = static_cast<uint32_t>(Track::kRecoveryLaneBase);
  if (id >= lane_base) return "recovery-lane-" + std::to_string(id - lane_base);
  return "unknown";
}

void AppendNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out->append(buf);
}

}  // namespace

std::string Tracer::ToJson() const {
  // Built by hand rather than through JsonValue: traces can hold many
  // thousands of events and the format is flat.
  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

  bool first = true;
  auto comma = [&] {
    if (!first) out.push_back(',');
    first = false;
  };

  // Process-name metadata so Perfetto labels the swimlanes: the fixed
  // tracks plus any dynamic recovery-lane tracks the events used.
  std::set<Track> tracks = {Track::kMainCpu, Track::kRecoveryCpu,
                            Track::kLogDisk, Track::kCheckpointDisk,
                            Track::kSystem};
  for (const Event& e : events_) tracks.insert(e.track);
  for (Track t : tracks) {
    comma();
    out.append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
    out.append(std::to_string(static_cast<uint32_t>(t)));
    out.append(",\"tid\":0,\"args\":{\"name\":");
    JsonEscape(TrackName(t), &out);
    out.append("}}");
  }

  for (const Event& e : events_) {
    comma();
    out.append("{\"ph\":\"");
    out.push_back(e.phase);
    out.append("\",\"name\":");
    JsonEscape(e.name, &out);
    out.append(",\"cat\":");
    JsonEscape(e.category, &out);
    out.append(",\"pid\":");
    out.append(std::to_string(static_cast<uint32_t>(e.track)));
    out.append(",\"tid\":0,\"ts\":");
    AppendNumber(&out, static_cast<double>(e.ts_ns) * 1e-3);
    if (e.phase == 'X') {
      out.append(",\"dur\":");
      AppendNumber(&out, static_cast<double>(e.dur_ns) * 1e-3);
    } else if (e.phase == 'i') {
      out.append(",\"s\":\"g\"");  // global-scope instant
    } else if (e.phase == 'C') {
      out.append(",\"args\":{\"value\":");
      AppendNumber(&out, e.value);
      out.append("}");
    }
    out.append("}");
  }
  out.append("]}");
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace mmdb::obs
