#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/json_format.h"
#include "obs/flight.h"
#include "obs/obs.h"

namespace dufs::obs {

namespace {

// Chrome traces use microsecond timestamps; the sim is nanosecond-grained.
// Print exactly three decimals ("12.345") so nothing is lost and equal
// inputs always format identically (no float rounding involved).
void AppendJsonMicros(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

void AppendSeparator(std::string& out) {
  if (out.back() != '[') out += ',';
}

}  // namespace

namespace detail {

// pid is always 1 (one simulated cluster); tid = track + 1 because tid 0
// renders oddly in some viewers.
void AppendTrackMetadata(std::string& out,
                         const std::vector<std::string>& tracks) {
  for (TrackId i = 0; i < tracks.size(); ++i) {
    AppendSeparator(out);
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json::AppendEscaped(out, tracks[i]);
    out += "\"}}";
  }
}

void AppendEventHead(std::string& out, TrackId track, const char* name,
                     const char* cat, sim::SimTime start, sim::Duration dur) {
  AppendSeparator(out);
  out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(track + 1) +
         ",\"name\":\"";
  json::AppendEscaped(out, name);
  out += "\",\"cat\":\"";
  json::AppendEscaped(out, cat);
  out += "\",\"ts\":";
  AppendJsonMicros(out, start);
  out += ",\"dur\":";
  AppendJsonMicros(out, dur);
}

}  // namespace detail

TrackId Tracer::Track(const std::string& name) {
  for (TrackId i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return i;
  }
  tracks_.push_back(name);
  return static_cast<TrackId>(tracks_.size() - 1);
}

void Tracer::Complete(TrackId track, const char* name, const char* cat,
                      sim::SimTime start, sim::Duration dur, TraceId trace,
                      std::vector<Arg> args, std::int64_t wait_ns) {
  if (enabled_) {
    events_.push_back(Event{track, name, cat, start, dur, trace,
                            std::move(args)});
  }
  if (flight_ != nullptr) {
    flight_->Admit(track, name, cat, start, dur, trace, wait_ns);
  }
}

std::string Tracer::ToChromeJson() const {
  // Metadata first, so Perfetto shows node names instead of bare tids.
  std::string out = "{\"traceEvents\":[";
  detail::AppendTrackMetadata(out, tracks_);
  for (const Event& e : events_) {
    detail::AppendEventHead(out, e.track, e.name, e.cat, e.start, e.dur);
    out += ",\"args\":{";
    if (e.trace != 0) {
      out += "\"trace\":" + std::to_string(e.trace);
    }
    for (const Arg& a : e.args) {
      if (out.back() != '{') out += ',';
      json::AppendQuoted(out, a.key);
      out += ':';
      if (a.is_string) {
        json::AppendQuoted(out, a.str);
      } else {
        out += std::to_string(a.num);
      }
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

Span::Span(const NodeObs& obs, const char* name, const char* cat)
    : Span(obs.tracer, obs.track, name, cat) {}

Span Span::Root(const NodeObs& obs, const char* name, const char* cat) {
  // Not recording: the span still contributes its profiler frame (the ctor
  // pushes it before the recording check), but must not burn a trace id.
  const bool recording =
      obs.tracer != nullptr && obs.tracer->recording();
  Span s(obs.tracer, obs.track, name, cat,
         recording ? obs.tracer->NewTrace() : 0);
  if (s.active()) {
    s.root_ = true;
    s.Arm();
  }
  return s;
}

void Span::Emit() {
  const sim::SimTime end = tracer_->now();
  tracer_->Complete(track_, name_, cat_, start_, end - start_, trace_,
                    std::move(args_), wait_ns_);
  if (root_ && tracer_->current() == trace_) tracer_->SetCurrent(0);
  tracer_ = nullptr;
}

}  // namespace dufs::obs
