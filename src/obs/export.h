#ifndef MMDB_OBS_EXPORT_H_
#define MMDB_OBS_EXPORT_H_

#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace mmdb::obs {

/// Serializes a registry as a JSON object:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"name": {count,sum,mean,min,max,p50,p95,p99}},
///    "sketches": {"name": {count,mean,min,max,p50,p95,p99,p999}},
///    "series": {"name": {kind,bucket_ns,points:[[bucket_idx,...],...]}}}
/// Series points are sparse (empty windows omitted) and sorted by bucket
/// index; counter points carry [idx,count], gauge points
/// [idx,last,min,max].
JsonValue RegistryToJsonValue(const MetricsRegistry& reg);

/// Writes RegistryToJsonValue(reg) to `path`.
Status WriteJson(const MetricsRegistry& reg, const std::string& path);

/// Builder for the machine-readable bench output. Every bench binary
/// writes one `BENCH_<name>.json` next to its printed table so results
/// form a PR-over-PR perf trajectory:
///   {"bench": <name>, "schema": 1,
///    "headline": {...bench-specific virtual-time metrics...},
///    "metrics": {counters/gauges/histograms of the final registry}}
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    doc_["bench"] = name_;
    doc_["schema"] = 1;
  }

  const std::string& name() const { return name_; }
  std::string FileName() const { return "BENCH_" + name_ + ".json"; }

  /// Sets a headline metric (throughput, latency, ... in virtual time).
  void Headline(const std::string& key, JsonValue v) {
    doc_["headline"][key] = std::move(v);
  }

  /// Sets a top-level field.
  void Set(const std::string& key, JsonValue v) {
    doc_[key] = std::move(v);
  }

  /// Attaches a full registry dump under "metrics".
  void AddRegistry(const MetricsRegistry& reg) {
    doc_["metrics"] = RegistryToJsonValue(reg);
  }

  const JsonValue& doc() const { return doc_; }

  /// Writes FileName() in the working directory and prints a one-line
  /// pointer so table output says where the JSON went.
  Status Write() const;

 private:
  std::string name_;
  JsonValue doc_;
};

}  // namespace mmdb::obs

#endif  // MMDB_OBS_EXPORT_H_
