// tracestats — offline analyzer for the repo's observability exports.
//
// Analyze mode (default):
//   tracestats --trace=trace.json [--metrics=metrics.json] [--top=10]
//              [--check] [--json] [--out=PATH]
// reads the Chrome trace_event JSON written by --trace and (optionally) the
// metrics JSON written by --metrics-json, prints the per-op-class latency
// decomposition, the histogram cross-check, and the slowest-ops critical
// paths. --check exits 1 when a class's decomposition total drifts more
// than 1% from its op.<class>_ns histogram sum.
//
// Compare mode (the perf-regression gate):
//   tracestats --compare BENCH_old.json BENCH_new.json [--tolerance=0.05]
//              [--json]
// diffs two bench baselines; exits 1 when any metric regressed beyond the
// tolerance in its "better" direction (or disappeared), 0 when clean.
//
// Explain-dump mode (anomaly root-causing):
//   tracestats --explain-dump=dump.json [--window=NS] [--expect=CAT:SHARE]
//              [--json] [--out=PATH]
// reads a flight-recorder anomaly dump, splits its ops into the anomaly
// window vs the healthy baseline before it, and attributes the mean-latency
// growth per category. --window overrides the dump's recorded window size
// (ns). --expect=fsync:0.5 exits 1 unless that category explains at least
// that share of the growth (the slow-fsync injection gate uses this).
//
// Exit codes: 0 ok, 1 check/regression/expectation failure, 2 usage or
// input error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze.h"
#include "common/write_output.h"
#include "json.h"

namespace {

constexpr char kUsage[] =
    "usage: tracestats --trace=PATH [--metrics=PATH] [--top=N] [--check]\n"
    "                  [--json] [--out=PATH]\n"
    "       tracestats --compare OLD.json NEW.json [--tolerance=0.05]\n"
    "                  [--json]\n"
    "       tracestats --explain-dump=DUMP.json [--window=NS]\n"
    "                  [--expect=CATEGORY:SHARE] [--json] [--out=PATH]\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "tracestats: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool LoadJson(const std::string& path, dufs::tracestats::JsonValue* out) {
  std::string text, error;
  if (!dufs::tracestats::ReadFile(path, &text, &error)) {
    std::fprintf(stderr, "tracestats: %s\n", error.c_str());
    return false;
  }
  if (!dufs::tracestats::ParseJson(text, out, &error)) {
    std::fprintf(stderr, "tracestats: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// CI visibility: surface the gate verdict on the workflow run page.
void AppendStepSummary(const std::string& markdown) {
  const char* path = std::getenv("GITHUB_STEP_SUMMARY");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fwrite(markdown.data(), 1, markdown.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path, out_path, dump_path, expect;
  std::vector<std::string> compare_paths;
  bool compare_mode = false;
  bool json_out = false;
  bool check = false;
  int top_k = 10;
  double tolerance = 0.05;
  long long window_ns = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (const char* v2 = value("--metrics=")) {
      metrics_path = v2;
    } else if (const char* v3 = value("--out=")) {
      out_path = v3;
    } else if (const char* v4 = value("--top=")) {
      top_k = std::atoi(v4);
    } else if (const char* v5 = value("--tolerance=")) {
      tolerance = std::atof(v5);
    } else if (const char* v6 = value("--explain-dump=")) {
      dump_path = v6;
    } else if (const char* v7 = value("--window=")) {
      window_ns = std::atoll(v7);
    } else if (const char* v8 = value("--expect=")) {
      expect = v8;
    } else if (arg == "--compare") {
      compare_mode = true;
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      UsageError("unknown flag: " + arg);
    } else if (compare_mode && compare_paths.size() < 2) {
      compare_paths.push_back(arg);
    } else {
      UsageError("unexpected argument: " + arg);
    }
  }

  if (compare_mode) {
    if (compare_paths.size() != 2) {
      UsageError("--compare needs exactly two baseline paths");
    }
    dufs::tracestats::JsonValue old_base, new_base;
    if (!LoadJson(compare_paths[0], &old_base) ||
        !LoadJson(compare_paths[1], &new_base)) {
      return 2;
    }
    dufs::tracestats::CompareResult result;
    std::string error;
    if (!dufs::tracestats::Compare(old_base, new_base, tolerance, &result,
                                   &error)) {
      std::fprintf(stderr, "tracestats: %s\n", error.c_str());
      return 2;
    }
    const std::string report =
        json_out ? dufs::tracestats::CompareToJson(result, tolerance)
                 : dufs::tracestats::CompareToText(result, tolerance);
    if (!dufs::WriteOutput("tracestats", out_path, report)) return 2;
    AppendStepSummary(dufs::tracestats::CompareToMarkdown(result, tolerance));
    return result.ok ? 0 : 1;
  }

  if (!dump_path.empty()) {
    dufs::tracestats::JsonValue dump;
    if (!LoadJson(dump_path, &dump)) return 2;
    dufs::tracestats::ExplainResult result;
    std::string error;
    if (!dufs::tracestats::ExplainDump(dump, window_ns, &result, &error)) {
      std::fprintf(stderr, "tracestats: %s\n", error.c_str());
      return 2;
    }
    const std::string report =
        json_out ? dufs::tracestats::ExplainToJson(result)
                 : dufs::tracestats::ExplainToText(result);
    if (!dufs::WriteOutput("tracestats", out_path, report)) return 2;
    if (!expect.empty()) {
      const std::size_t colon = expect.find(':');
      if (colon == std::string::npos) {
        UsageError("--expect wants CATEGORY:SHARE, e.g. fsync:0.5");
      }
      dufs::tracestats::Category cat;
      if (!dufs::tracestats::CategoryFromName(expect.substr(0, colon),
                                              &cat)) {
        UsageError("--expect: unknown category " + expect.substr(0, colon));
      }
      const double want = std::atof(expect.c_str() + colon + 1);
      const double got =
          result.growth_share[static_cast<std::size_t>(cat)];
      if (!result.have_growth || got < want) {
        std::fprintf(stderr,
                     "tracestats: --expect failed: %s explains %.1f%% of "
                     "the growth, wanted >= %.1f%%\n",
                     expect.substr(0, colon).c_str(), 100.0 * got,
                     100.0 * want);
        return 1;
      }
    }
    return 0;
  }

  if (trace_path.empty()) UsageError("--trace is required (or --compare)");
  dufs::tracestats::JsonValue trace;
  if (!LoadJson(trace_path, &trace)) return 2;
  dufs::tracestats::JsonValue metrics;
  bool have_metrics = false;
  if (!metrics_path.empty()) {
    if (!LoadJson(metrics_path, &metrics)) return 2;
    have_metrics = true;
  }

  dufs::tracestats::AnalyzeResult result;
  std::string error;
  if (!dufs::tracestats::Analyze(trace, have_metrics ? &metrics : nullptr,
                                 top_k, 0.01, &result, &error)) {
    std::fprintf(stderr, "tracestats: %s\n", error.c_str());
    return 2;
  }
  const std::string report = json_out
                                 ? dufs::tracestats::ResultToJson(result)
                                 : dufs::tracestats::ResultToText(result);
  if (!dufs::WriteOutput("tracestats", out_path, report)) return 2;
  if (check && !result.check_ok) {
    std::fprintf(stderr, "tracestats: --check failed (%zu classes out of "
                         "tolerance)\n",
                 result.check_messages.size());
    return 1;
  }
  return 0;
}
