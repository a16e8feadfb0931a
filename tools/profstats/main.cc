// profstats — offline analyzer for folded-stack CPU profiles (the
// --profile exports from the bench harness; see DESIGN.md §14).
//
// Aggregate mode (default):
//   profstats PROF.folded [--top=N] [--json] [--out=PATH]
// prints the top-N frames by self and by total samples.
//
// Diff mode (where did the CPU move?):
//   profstats --diff OLD.folded NEW.folded [--top=N] [--out=PATH]
// per-frame self-share deltas, biggest movement first.
//
// Compare mode (the CI cpu-profile gate):
//   profstats --compare OLD.folded NEW.folded [--tolerance=0.02]
//             [--min-share=0.005] [--top=N] [--json] [--out=PATH]
// exits 1 when any frame's self-share drifted beyond the tolerance in its
// "worse" direction (overhead frames only regress by growing; workload
// frames regress on drift either way). When $GITHUB_STEP_SUMMARY is set, a
// markdown summary table is appended to it.
//
// Exit codes: 0 ok, 1 regression, 2 usage or input error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/write_output.h"
#include "profstats.h"

namespace {

constexpr char kUsage[] =
    "usage: profstats PROF.folded [--top=N] [--json] [--out=PATH]\n"
    "       profstats --diff OLD.folded NEW.folded [--top=N] [--out=PATH]\n"
    "       profstats --compare OLD.folded NEW.folded [--tolerance=0.02]\n"
    "                 [--min-share=0.005] [--top=N] [--json] [--out=PATH]\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "profstats: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool LoadProfile(const std::string& path, dufs::profstats::Profile* out) {
  std::string text, error;
  if (!dufs::profstats::ReadFile(path, &text, &error) ||
      !dufs::profstats::ParseFolded(text, out, &error)) {
    std::fprintf(stderr, "profstats: %s: %s\n", path.c_str(), error.c_str());
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
  std::string out_path;
  std::vector<std::string> paths;
  bool diff_mode = false;
  bool compare_mode = false;
  bool json_out = false;
  int top_k = 20;
  dufs::profstats::CompareOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--top=")) {
      top_k = std::atoi(v);
    } else if (const char* v2 = value("--tolerance=")) {
      opts.tolerance = std::atof(v2);
    } else if (const char* v3 = value("--min-share=")) {
      opts.min_share = std::atof(v3);
    } else if (const char* v4 = value("--out=")) {
      out_path = v4;
    } else if (arg == "--diff") {
      diff_mode = true;
    } else if (arg == "--compare") {
      compare_mode = true;
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg.rfind("--", 0) == 0) {
      UsageError("unknown flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (diff_mode && compare_mode) UsageError("--diff and --compare conflict");

  if (diff_mode || compare_mode) {
    if (paths.size() != 2) {
      UsageError("two folded profiles required (old, new)");
    }
    dufs::profstats::Profile old_p, new_p;
    if (!LoadProfile(paths[0], &old_p) || !LoadProfile(paths[1], &new_p)) {
      return 2;
    }
    dufs::profstats::Aggregate old_a, new_a;
    dufs::profstats::AggregateProfile(old_p, &old_a);
    dufs::profstats::AggregateProfile(new_p, &new_a);
    if (diff_mode) {
      dufs::profstats::DiffResult d;
      dufs::profstats::Diff(old_a, new_a, &d);
      const std::string report = dufs::profstats::DiffToText(d, top_k);
      return dufs::WriteOutput("profstats", out_path, report) ? 0 : 2;
    }
    dufs::profstats::CompareResult result;
    dufs::profstats::CompareProfiles(old_a, new_a, opts, &result);
    const std::string report =
        json_out ? dufs::profstats::CompareToJson(result, opts)
                 : dufs::profstats::CompareToText(result, opts);
    if (!dufs::WriteOutput("profstats", out_path, report)) return 2;
    AppendStepSummary(
        dufs::profstats::CompareToMarkdown(result, opts, top_k));
    return result.ok ? 0 : 1;
  }

  if (paths.size() != 1) UsageError("one folded profile required");
  dufs::profstats::Profile p;
  if (!LoadProfile(paths[0], &p)) return 2;
  dufs::profstats::Aggregate a;
  dufs::profstats::AggregateProfile(p, &a);
  const std::string report = json_out ? dufs::profstats::ReportJson(a, top_k)
                                      : dufs::profstats::ReportText(a, top_k);
  return dufs::WriteOutput("profstats", out_path, report) ? 0 : 2;
}
