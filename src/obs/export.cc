#include "obs/export.h"

#include <cstdio>

namespace mmdb::obs {

JsonValue RegistryToJsonValue(const MetricsRegistry& reg) {
  JsonValue out;
  JsonValue counters{JsonValue::Object{}};
  reg.ForEachCounter([&](const std::string& name, const Counter& c) {
    counters[name] = c.value();
  });
  out["counters"] = std::move(counters);

  JsonValue gauges{JsonValue::Object{}};
  reg.ForEachGauge([&](const std::string& name, const Gauge& g) {
    gauges[name] = g.value();
  });
  out["gauges"] = std::move(gauges);

  JsonValue hists{JsonValue::Object{}};
  reg.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    JsonValue e;
    e["count"] = h.count();
    e["sum"] = h.sum();
    e["mean"] = h.mean();
    e["min"] = h.min();
    e["max"] = h.max();
    e["p50"] = h.Percentile(0.50);
    e["p95"] = h.Percentile(0.95);
    e["p99"] = h.Percentile(0.99);
    hists[name] = std::move(e);
  });
  out["histograms"] = std::move(hists);

  JsonValue sketches{JsonValue::Object{}};
  reg.ForEachSketch([&](const std::string& name, const LogSketch& s) {
    JsonValue e;
    e["count"] = s.count();
    e["mean"] = s.mean();
    e["min"] = s.min();
    e["max"] = s.max();
    e["p50"] = s.Percentile(0.50);
    e["p95"] = s.Percentile(0.95);
    e["p99"] = s.Percentile(0.99);
    e["p999"] = s.Percentile(0.999);
    sketches[name] = std::move(e);
  });
  out["sketches"] = std::move(sketches);

  // Time series export as sparse [bucket_index, ...] points. Bucket
  // indices are pure functions of virtual time and the maps are sorted,
  // so two identical runs dump byte-identical series.
  JsonValue series{JsonValue::Object{}};
  reg.ForEachCounterSeries([&](const std::string& name,
                               const CounterSeries& s) {
    JsonValue e;
    e["kind"] = std::string("counter");
    e["bucket_ns"] = s.bucket_ns();
    e["total"] = s.total();
    JsonValue points{JsonValue::Array{}};
    for (const auto& [idx, count] : s.buckets()) {
      JsonValue p{JsonValue::Array{}};
      p.push_back(JsonValue{idx});
      p.push_back(JsonValue{count});
      points.push_back(std::move(p));
    }
    e["points"] = std::move(points);
    series[name] = std::move(e);
  });
  reg.ForEachGaugeSeries([&](const std::string& name, const GaugeSeries& s) {
    JsonValue e;
    e["kind"] = std::string("gauge");
    e["bucket_ns"] = s.bucket_ns();
    JsonValue points{JsonValue::Array{}};
    for (const auto& [idx, w] : s.buckets()) {
      JsonValue p{JsonValue::Array{}};
      p.push_back(JsonValue{idx});
      p.push_back(JsonValue{w.last});
      p.push_back(JsonValue{w.min});
      p.push_back(JsonValue{w.max});
      points.push_back(std::move(p));
    }
    e["points"] = std::move(points);
    series[name] = std::move(e);
  });
  out["series"] = std::move(series);
  return out;
}

Status WriteJson(const MetricsRegistry& reg, const std::string& path) {
  return WriteFile(path, RegistryToJsonValue(reg).Dump());
}

Status BenchReport::Write() const {
  std::string file = FileName();
  MMDB_RETURN_IF_ERROR(WriteFile(file, doc_.Dump()));
  std::printf("[bench json: %s]\n", file.c_str());
  return Status::OK();
}

}  // namespace mmdb::obs
