// Dump serialization for the flight recorder — cold path, runs only when an
// anomaly fires (or a test asks). String building is allowed here; the hot
// admission path lives entirely in flight.h.
#include "obs/flight.h"

#include <string>  // dufs-lint: allow(obs-hot-path-alloc) dump serialization

#include "obs/trace.h"

namespace dufs::obs {

// dufs-lint: allow(obs-hot-path-alloc) dump serialization
std::string FlightRecorder::DumpJson(
    const Tracer& tracer,
    // dufs-lint: allow(obs-hot-path-alloc) dump serialization
    const std::string& anomaly_json) const {
  std::string out = "{";  // dufs-lint: allow(obs-hot-path-alloc) dump
  if (!anomaly_json.empty()) {
    out += "\"anomaly\":";
    out += anomaly_json;
    out += ',';
  }
  out += "\"traceEvents\":[";
  detail::AppendTrackMetadata(out, tracer.tracks());
  for (TrackId t = 0; t < rings_.size(); ++t) {
    ForEach(t, [&](const Record& rec) {
      detail::AppendEventHead(out, t, rec.name, rec.cat, rec.start, rec.dur);
      out += ",\"args\":{\"seq\":" + std::to_string(rec.seq);
      if (rec.trace != 0) {
        out += ",\"trace\":" + std::to_string(rec.trace);
      }
      if (rec.wait_ns >= 0) {
        out += ",\"wait_ns\":" + std::to_string(rec.wait_ns);
      }
      out += "}}";
    });
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

}  // namespace dufs::obs
