// Shared helpers for the figure-reproduction benches: tiny flag parsing,
// aligned table printing matching the series the paper plots, and
// bench::Harness, which turns the shared observability flags into one
// observed run and the machine-readable exports (--metrics-json, --trace,
// --baseline, --profile) that make every bench row reproducible from
// artifacts alone.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/json_format.h"
#include "mdtest/testbed.h"
#include "obs/obs.h"
#include "obs/timeline.h"

namespace dufs::bench {

// --flag=value / --flag value / --flag (bool). Positional (non --) arguments
// abort with the usage string; unrecognized --flags are parsed but simply
// never read back, so benches can share command lines.
class Flags {
 public:
  Flags(int argc, char** argv, std::string usage)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) != 0) Fail("unexpected arg: " + args_[i]);
      std::string key = args_[i].substr(2);
      std::string value = "1";
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      } else if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
        value = args_[++i];
      }
      values_.emplace_back(std::move(key), std::move(value));
    }
  }

  bool Bool(const std::string& key, bool fallback = false) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : (*v != "0" && *v != "false");
  }
  long Int(const std::string& key, long fallback) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : std::strtol(v->c_str(), nullptr, 10);
  }
  double Double(const std::string& key, double fallback) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
  }
  std::string Str(const std::string& key, std::string fallback) const {
    const auto* v = Find(key);
    // Two plain returns: a ternary mixing `std::move(fallback)` with `*v`
    // forms a prvalue from the const ref, silently copying — and pessimizes
    // the fallback path too.
    if (v != nullptr) return *v;
    return fallback;
  }
  // Comma-separated integer list. Empty segments (trailing comma, "a,,b")
  // are skipped rather than parsed as 0.
  std::vector<long> IntList(const std::string& key,
                            std::vector<long> fallback) const {
    const auto* v = Find(key);
    if (v == nullptr) return fallback;
    std::vector<long> out;
    std::size_t start = 0;
    while (start <= v->size()) {
      auto end = v->find(',', start);
      if (end == std::string::npos) end = v->size();
      if (end > start) {
        out.push_back(std::strtol(v->substr(start, end - start).c_str(),
                                  nullptr, 10));
      }
      start = end + 1;
    }
    return out;
  }

 private:
  const std::string* Find(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s\nusage: %s\n", message.c_str(), usage_.c_str());
    std::exit(2);
  }

  std::string usage_;
  std::vector<std::string> args_;
  std::vector<std::pair<std::string, std::string>> values_;
};

// Hot-path telemetry for one measured configuration: throughput plus the
// per-op ZooKeeper cost and client-cache behaviour that explain it
// (deltas of ZkClient::requests_sent()/failovers() and MetaCache::Stats
// summed over the participating clients).
struct HotPathCounters {
  double ops = 0;
  double seconds = 0;
  std::uint64_t zk_requests = 0;
  std::uint64_t zk_failovers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

inline void PrintHotPathHeader() {
  std::printf("%-28s %12s %12s %10s %10s %10s %10s\n", "config", "ops/s",
              "zk-req/op", "failovers", "hits", "misses", "hit-rate");
}

inline void PrintHotPathRow(const std::string& label,
                            const HotPathCounters& c) {
  const double ops = c.ops > 0 ? c.ops : 1;
  const double probes =
      static_cast<double>(c.cache_hits + c.cache_misses);
  std::printf("%-28s %12.1f %12.3f %10llu %10llu %10llu %9.1f%%\n",
              label.c_str(), c.seconds > 0 ? c.ops / c.seconds : 0.0,
              static_cast<double>(c.zk_requests) / ops,
              static_cast<unsigned long long>(c.zk_failovers),
              static_cast<unsigned long long>(c.cache_hits),
              static_cast<unsigned long long>(c.cache_misses),
              probes > 0
                  ? 100.0 * static_cast<double>(c.cache_hits) / probes
                  : 0.0);
}

// Prints a "series table": one row per x value, one column per series —
// mirroring the figures' curves.
class SeriesTable {
 public:
  SeriesTable(std::string x_label, std::vector<std::string> series)
      : x_label_(std::move(x_label)), series_(std::move(series)) {}

  void AddRow(long x, std::vector<double> values) {
    rows_.emplace_back(x, std::move(values));
  }

  void Print(const std::string& title) const {
    std::printf("\n## %s\n", title.c_str());
    std::printf("%-10s", x_label_.c_str());
    for (const auto& s : series_) std::printf(" %18s", s.c_str());
    std::printf("\n");
    for (const auto& [x, values] : rows_) {
      std::printf("%-10ld", x);
      for (double v : values) std::printf(" %18.1f", v);
      std::printf("\n");
    }
  }

  // Appends this table as one JSON object:
  //   {"x_label":"procs","series":["dufs","basic"],"rows":[[8,1.5,0.2],...]}
  void AppendJson(std::string* out) const {
    *out += "{\"x_label\":";
    json::AppendQuoted(*out, x_label_);
    *out += ",\"series\":[";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      if (i > 0) *out += ',';
      json::AppendQuoted(*out, series_[i]);
    }
    *out += "],\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r > 0) *out += ',';
      *out += '[';
      *out += std::to_string(rows_[r].first);
      for (double v : rows_[r].second) {
        *out += ',';
        json::AppendNumber(*out, v);
      }
      *out += ']';
    }
    *out += "]}";
  }

 private:
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<std::pair<long, std::vector<double>>> rows_;
};

// "500us" / "2ms" / "1s" / "250" (bare = ns) -> nanoseconds; -1 on parse
// failure.
inline std::int64_t ParseDurationNs(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) return -1;
  const std::string unit(end);
  if (unit.empty() || unit == "ns") return static_cast<std::int64_t>(v);
  if (unit == "us") return static_cast<std::int64_t>(v * 1e3);
  if (unit == "ms") return static_cast<std::int64_t>(v * 1e6);
  if (unit == "s") return static_cast<std::int64_t>(v * 1e9);
  return -1;
}


// The observability flags every bench shares (Harness parses them):
//   --metrics-json=PATH   write counters + the merged registry as JSON
//   --trace=PATH          record spans, write Chrome trace_event JSON
//   --timeline            sample gauges into a "timeline" metrics section
//   --timeline-us=N       sim-time sampling period (default 200us)
//   --baseline=PATH       write the BENCH_<name>.json regression baseline
//   --slo=SPEC[,SPEC...]  arm the SLO evaluator; SPEC = op:target:budget,
//                         e.g. create:2ms:0.01 (1% of creates may miss 2ms)
//   --flight-dump-dir=DIR arm the anomaly detectors; dumps the flight
//                         recorder to DIR/dump_<seq>_<type>.json on firing
//   --slo-window-us=N     detector/SLO window on sim time (default 10ms)
//   --flight-capacity=N   flight-recorder spans kept per node (default 512)
//   --profile=PATH        sample the CPU profiler, write folded stacks
//   --profile-hz=N        signal-mode sample rate (default 97)
//   --profile-every=N     N > 0: deterministic count mode, fold every Nth
//                         dispatch instead of using SIGPROF (CI gates)
//   --profile-digest=PATH also write the profiler's JSON digest
struct ObsOptions {
  std::string metrics_path;
  std::string trace_path;
  std::string baseline_path;
  bool timeline = false;
  long timeline_us = 200;
  std::string slo;
  std::string flight_dump_dir;
  long slo_window_us = 10000;
  long flight_capacity = 0;
  std::string profile_path;
  std::string profile_digest_path;
  long profile_hz = 97;
  long profile_every = 0;

  static ObsOptions FromFlags(const Flags& flags) {
    ObsOptions o;
    o.metrics_path = flags.Str("metrics-json", "");
    o.trace_path = flags.Str("trace", "");
    o.baseline_path = flags.Str("baseline", "");
    o.timeline = flags.Bool("timeline");
    o.timeline_us = flags.Int("timeline-us", 200);
    o.slo = flags.Str("slo", "");
    o.flight_dump_dir = flags.Str("flight-dump-dir", "");
    o.slo_window_us = flags.Int("slo-window-us", 10000);
    o.flight_capacity = flags.Int("flight-capacity", 0);
    o.profile_path = flags.Str("profile", "");
    o.profile_digest_path = flags.Str("profile-digest", "");
    o.profile_hz = flags.Int("profile-hz", 97);
    o.profile_every = flags.Int("profile-every", 0);
    return o;
  }
  bool trace_enabled() const { return !trace_path.empty(); }
  bool metrics_enabled() const { return !metrics_path.empty(); }
  bool baseline_enabled() const { return !baseline_path.empty(); }
  bool incidents_enabled() const {
    return !slo.empty() || !flight_dump_dir.empty();
  }
  bool profile_enabled() const { return !profile_path.empty(); }
  long timeline_interval_ns() const { return timeline_us * 1000; }
};

// The ObsOptions flags in usage form; Harness appends this to every bench's
// own usage line.
inline constexpr char kObsUsage[] =
    " [--metrics-json=PATH] [--trace=PATH] [--timeline] [--timeline-us=200]"
    " [--baseline=PATH] [--slo=op:target:budget[,...]]"
    " [--flight-dump-dir=DIR] [--slo-window-us=10000] [--flight-capacity=N]"
    " [--profile=PATH] [--profile-hz=97] [--profile-every=N]"
    " [--profile-digest=PATH]";

// Writes one export file. Returns false, after a warning naming `what`, when
// the file cannot be opened or written in full.
inline bool WriteExport(const std::string& path, const std::string& content,
                        const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "cannot write %s: %s\n", what, path.c_str());
  return ok;
}

// RAII around the CPU profiler for a whole bench run: Start() from the
// shared flags at construction, Finish() (or destruction) stops, writes the
// folded export (+ optional digest), prints a one-line summary, and resets
// the accumulated profile. A default --profile-less run constructs and
// destroys this for free without ever starting the profiler.
class ProfileSession {
 public:
  explicit ProfileSession(const ObsOptions& o) : opts_(o) {
    if (!opts_.profile_enabled()) return;
    prof::Options po;
    if (opts_.profile_every > 0) {
      po.mode = prof::Options::Mode::kCount;
      po.every = static_cast<std::uint64_t>(opts_.profile_every);
    } else {
      po.mode = prof::Options::Mode::kSignal;
      po.hz = static_cast<int>(opts_.profile_hz);
    }
    std::string error;
    if (!prof::Start(po, &error)) {
      std::fprintf(stderr, "--profile: %s\n", error.c_str());
      ok_ = false;
      return;
    }
    running_ = true;
  }
  ~ProfileSession() { Finish(); }

  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  // False when the profiler failed to start or an export failed to write.
  bool ok() const { return ok_; }

  void Finish() {
    if (!running_) return;
    running_ = false;
    prof::Stop();
    const prof::Stats stats = prof::GetStats();
    if (!WriteExport(opts_.profile_path, prof::ExportFolded(), "profile")) {
      ok_ = false;
    }
    if (!opts_.profile_digest_path.empty() &&
        !WriteExport(opts_.profile_digest_path, prof::ExportDigestJson(),
                     "profile digest")) {
      ok_ = false;
    }
    std::printf("[prof] %llu samples (%llu dropped, %llu truncated) -> %s\n",
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(stats.dropped),
                static_cast<unsigned long long>(stats.truncated),
                opts_.profile_path.c_str());
    prof::Reset();
  }

 private:
  ObsOptions opts_;
  bool running_ = false;
  bool ok_ = true;
};

// Accumulates everything a bench prints into one machine-readable document:
//
//   {"configs":[{"label":...,"ops":...,"ops_per_s":...,"zk_requests":...},..],
//    "tables":{"fig10 dir create":{...}},
//    "registry":{"nodes":{...},"merged":{...}}}
//
// The "configs" rows carry exactly the fields PrintHotPathRow derives its
// columns from, so a table row is reproducible from the JSON alone.
class MetricsJsonWriter {
 public:
  void AddCounters(const std::string& label, const HotPathCounters& c) {
    std::string row = "{\"label\":";
    json::AppendQuoted(row, label);
    row += ",\"ops\":";
    json::AppendNumber(row, c.ops);
    row += ",\"seconds\":";
    json::AppendNumber(row, c.seconds);
    row += ",\"ops_per_s\":";
    json::AppendNumber(row, c.seconds > 0 ? c.ops / c.seconds : 0.0);
    row += ",\"zk_requests\":" + std::to_string(c.zk_requests);
    row += ",\"zk_failovers\":" + std::to_string(c.zk_failovers);
    row += ",\"cache_hits\":" + std::to_string(c.cache_hits);
    row += ",\"cache_misses\":" + std::to_string(c.cache_misses);
    row += '}';
    configs_.push_back(std::move(row));
  }

  void AddValue(const std::string& key, double value) {
    std::string kv;
    json::AppendQuoted(kv, key);
    kv += ':';
    json::AppendNumber(kv, value);
    values_.push_back(std::move(kv));
  }

  void AddTable(const std::string& title, const SeriesTable& table) {
    std::string entry;
    json::AppendQuoted(entry, title);
    entry += ':';
    table.AppendJson(&entry);
    tables_.push_back(std::move(entry));
  }

  // `json` is a complete JSON object (obs::MetricsRegistry::ToJson()).
  void SetRegistryJson(std::string json) { registry_ = std::move(json); }

  // `json` is a complete JSON object (obs::TimelineSampler::ToJson()).
  void SetTimelineJson(std::string json) { timeline_ = std::move(json); }

  // `json` is a complete JSON object (obs::Incidents::ReportJson()).
  void SetIncidentsJson(std::string json) { incidents_ = std::move(json); }

  std::string ToJson() const {
    std::string out = "{\"configs\":[";
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      if (i > 0) out += ',';
      out += configs_[i];
    }
    out += ']';
    for (const auto& kv : values_) {
      out += ',';
      out += kv;
    }
    if (!tables_.empty()) {
      out += ",\"tables\":{";
      for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (i > 0) out += ',';
        out += tables_[i];
      }
      out += '}';
    }
    if (!timeline_.empty()) {
      out += ",\"timeline\":";
      out += timeline_;
    }
    if (!incidents_.empty()) {
      out += ",\"incidents\":";
      out += incidents_;
    }
    if (!registry_.empty()) {
      out += ",\"registry\":";
      out += registry_;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::string> configs_;
  std::vector<std::string> values_;
  std::vector<std::string> tables_;
  std::string timeline_;
  std::string incidents_;
  std::string registry_;
};

// The perf-regression baseline: a flat map of headline scalars with a
// direction, diffable by `tracestats --compare`. Keys sort (std::map) and
// numbers print with %.17g, so a re-run of the same commit with the same
// flags produces a byte-identical file.
//
//   {"bench":"ablation_fastpath","schema":1,
//    "metrics":{"create.gc_on.ops_per_s":{"value":...,"better":"higher"},..}}
class BaselineWriter {
 public:
  explicit BaselineWriter(std::string bench) : bench_(std::move(bench)) {}

  // `higher` == true: bigger is better (throughput); false: smaller is
  // better (latency, zk requests per op).
  void Add(const std::string& key, double value, bool higher) {
    metrics_[key] = {value, higher};
  }
  void AddHigherBetter(const std::string& key, double value) {
    Add(key, value, true);
  }
  void AddLowerBetter(const std::string& key, double value) {
    Add(key, value, false);
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":";
    json::AppendQuoted(out, bench_);
    out += ",\"schema\":1,\"metrics\":{";
    bool first = true;
    for (const auto& [key, m] : metrics_) {
      if (!first) out += ',';
      first = false;
      json::AppendQuoted(out, key);
      out += ":{\"value\":";
      json::AppendNumber(out, m.value);
      out += ",\"better\":\"";
      out += m.higher ? "higher" : "lower";
      out += "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    double value = 0;
    bool higher = true;
  };
  std::string bench_;
  std::map<std::string, Metric> metrics_;
};

// One bench process end to end: parses the bench's flags (its own usage line
// plus kObsUsage), profiles the whole run, wires the one *observed* run into
// the exports, and Finish() writes every requested export. A bench keeps
// only its experiment, its tables (metrics()), its baseline rows
// (baseline()) and its choice of which run is observed.
//
// The observed run is wired in this order, which keeps exports byte-stable:
//   1. span recording is switched on before the cluster is built (trace ids
//      ride the modelled wire, so a traced cluster must be traced from birth);
//   2. ArmIncidents() before the clients mount;
//   3. StartTimeline() after they mount, once every gauge exists;
//   4. Capture() when the run ends: Chrome trace, registry, timeline and
//      incident report.
// Mount() does 1-3 for an mdtest::Testbed; a bench with its own ensemble
// (fig07) builds it traced and calls 2 and 3 itself.
class Harness {
 public:
  // A positional argument or a malformed --slo clause exits 2.
  Harness(int argc, char** argv, std::string name, const std::string& usage)
      : flags_(argc, argv, name + " " + usage + kObsUsage),
        opts_(ObsOptions::FromFlags(flags_)),
        profile_(opts_),
        baseline_(std::move(name)) {
    if (!ParseSlos()) std::exit(2);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const Flags& flags() const { return flags_; }
  const ObsOptions& opts() const { return opts_; }
  MetricsJsonWriter& metrics() { return metrics_; }
  BaselineWriter& baseline() { return baseline_; }

  // Builds a testbed and mounts every client; when `observed`, this is the
  // observed run (steps 1-3 above), to be ended with
  // Capture(tb->obs(), tb->timeline()).
  std::unique_ptr<mdtest::Testbed> Mount(mdtest::TestbedConfig config,
                                         bool observed) {
    config.enable_trace = observed && opts_.trace_enabled();
    auto tb = std::make_unique<mdtest::Testbed>(std::move(config));
    if (observed) ArmIncidents(tb->sim(), tb->obs());
    tb->MountAll();
    if (observed) StartTimeline(tb->sim(), tb->obs(), tb->timeline());
    return tb;
  }

  // Arms the anomaly detectors and the --slo evaluators; a no-op unless
  // --slo or --flight-dump-dir is set.
  void ArmIncidents(sim::Simulation& sim, obs::Observability& obs) {
    if (!opts_.incidents_enabled()) return;
    obs.BindIncidents(&sim);
    if (opts_.flight_capacity > 0) {
      obs.flight().SetCapacity(
          static_cast<std::uint32_t>(opts_.flight_capacity));
    }
    // Normalize the dump dir: `dumps`, `dumps/` and `dumps/.` must name the
    // same directory. The dump writer appends `/dump_<seq>_<type>.json`
    // verbatim and the resulting path is recorded (and embedded, as a
    // basename, in the metrics export), so a trailing or redundant separator
    // would leak `dumps//...` paths whose shape depends on how the flag was
    // spelled.
    std::string dump_dir = opts_.flight_dump_dir;
    if (!dump_dir.empty()) {
      dump_dir =
          std::filesystem::path(dump_dir).lexically_normal().generic_string();
      while (dump_dir.size() > 1 && dump_dir.back() == '/') dump_dir.pop_back();
      // The dump writer fopen()s into this directory and silently skips the
      // dump when it is missing; create it up front so a bare
      // --flight-dump-dir=dumps works without a pre-made directory.
      std::error_code ec;
      std::filesystem::create_directories(dump_dir, ec);
      if (ec) {
        std::fprintf(stderr, "cannot create --flight-dump-dir %s: %s\n",
                     dump_dir.c_str(), ec.message().c_str());
        std::exit(1);
      }
    }
    obs::AnomalyConfig cfg;
    cfg.window_ns = opts_.slo_window_us * 1000;
    cfg.dump_dir = dump_dir;
    obs.incidents().Configure(cfg);
    for (const obs::SloSpec& slo : slos_) obs.incidents().AddSlo(slo);
  }

  // Samples every gauge registered in `obs` into `timeline` (--timeline).
  void StartTimeline(sim::Simulation& sim, obs::Observability& obs,
                     obs::TimelineSampler& timeline) const {
    if (!opts_.timeline) return;
    timeline.set_interval(opts_.timeline_interval_ns());
    timeline.WatchAllGauges(obs.metrics());
    timeline.Start(sim);
  }

  // Ends the observed run: closes the incident window (printing one line
  // per anomaly) and keeps the trace, timeline, incident report and
  // registry for Finish().
  void Capture(obs::Observability& obs, const obs::TimelineSampler& timeline) {
    if (opts_.trace_enabled()) trace_json_ = obs.tracer().ToChromeJson();
    if (opts_.timeline) metrics_.SetTimelineJson(timeline.ToJson());
    if (opts_.incidents_enabled()) {
      metrics_.SetIncidentsJson(FinishIncidents(obs.incidents()));
    }
    metrics_.SetRegistryJson(obs.metrics().ToJson());
  }

  // Stops the profiler and writes every requested export. Returns the exit
  // status: 1 when the profiler failed to start or any export failed to
  // write, else 0.
  int Finish() {
    profile_.Finish();
    bool ok = profile_.ok();
    if (opts_.metrics_enabled()) {
      ok &= Write(opts_.metrics_path, metrics_.ToJson() + '\n', "metrics");
    }
    if (opts_.baseline_enabled()) {
      ok &= Write(opts_.baseline_path, baseline_.ToJson() + '\n', "baseline");
    }
    if (!trace_json_.empty()) {
      ok &= Write(opts_.trace_path, trace_json_, "trace");
    }
    return ok ? 0 : 1;
  }

 private:
  // --slo=op:target:budget[,op:target:budget...]
  bool ParseSlos() {
    const std::string& spec = opts_.slo;
    std::size_t start = 0;
    while (start < spec.size()) {
      auto end = spec.find(',', start);
      if (end == std::string::npos) end = spec.size();
      const std::string clause = spec.substr(start, end - start);
      start = end + 1;
      if (clause.empty()) continue;
      const auto c1 = clause.find(':');
      const auto c2 = c1 == std::string::npos ? std::string::npos
                                              : clause.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        std::fprintf(stderr, "--slo: want op:target:budget, got \"%s\"\n",
                     clause.c_str());
        return false;
      }
      const char* op = obs::Incidents::CanonicalOpName(clause.substr(0, c1));
      const std::int64_t target =
          ParseDurationNs(clause.substr(c1 + 1, c2 - c1 - 1));
      const double budget = std::strtod(clause.c_str() + c2 + 1, nullptr);
      if (op == nullptr || target < 0 || budget <= 0.0 || budget > 1.0) {
        std::fprintf(stderr, "--slo: bad clause \"%s\"\n", clause.c_str());
        return false;
      }
      slos_.push_back(obs::SloSpec{op, target, budget});
    }
    return true;
  }

  // Closes the final window, prints a per-anomaly summary, and returns the
  // incident report JSON.
  static std::string FinishIncidents(obs::Incidents& incidents) {
    incidents.Flush();
    const auto& anomalies = incidents.anomalies();
    std::printf("[incidents] %zu anomalies (%llu suppressed by cooldown)\n",
                anomalies.size(),
                static_cast<unsigned long long>(incidents.suppressed()));
    for (const auto& a : anomalies) {
      std::printf("[incidents]   #%llu t=%lldns %s on %s value=%lld "
                  "threshold=%lld%s%s\n",
                  static_cast<unsigned long long>(a.seq),
                  static_cast<long long>(a.t), a.type, a.node.c_str(),
                  static_cast<long long>(a.value),
                  static_cast<long long>(a.threshold),
                  a.dump_path.empty() ? "" : " dump=", a.dump_path.c_str());
    }
    return incidents.ReportJson();
  }

  static bool Write(const std::string& path, const std::string& content,
                    const char* what) {
    if (!WriteExport(path, content, what)) return false;
    std::printf("%s written: %s\n", what, path.c_str());
    return true;
  }

  Flags flags_;
  ObsOptions opts_;
  ProfileSession profile_;
  BaselineWriter baseline_;
  MetricsJsonWriter metrics_;
  std::vector<obs::SloSpec> slos_;
  std::string trace_json_;
};

}  // namespace dufs::bench
