// dufs_lint — repo-specific static analysis for the DUFS tree.
//
//   dufs_lint [--root=DIR] [--format=text|json] [--rule=a,b] [--explain]
//             [--sarif=FILE] [paths...]
//
// With no explicit paths, walks src/, bench/, and tests/ under --root
// (default: current directory) over *.h/*.cc, applies the per-file rules
// plus the cross-TU dataflow rules (see DESIGN.md §12), and prints
// findings. Exit status: 0 clean, 1 any finding (error or warn severity),
// 2 usage or I/O error, including a report that cannot be written.
//
// The only suppression is an in-place `// dufs-lint: allow(<rule>)`
// annotation. `--sarif=FILE` writes a SARIF 2.1.0 log alongside the normal
// output. `--format=json` emits a machine-readable findings array;
// `--explain` documents each rule with a bad/good example and exits.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_format.h"
#include "common/write_output.h"
#include "finding.h"
#include "rules.h"

namespace {

namespace fs = std::filesystem;
using dufs::json::Escape;
using dufs::lint::Finding;
using dufs::lint::Linter;
using dufs::lint::RuleDocs;
using dufs::lint::RuleSeverity;
using dufs::lint::Severity;
using dufs::lint::SeverityName;

struct Options {
  std::string root = ".";
  std::string format = "text";
  std::set<std::string> rule_filter;  // empty = all rules
  bool explain = false;
  std::string sarif_path;
  std::vector<std::string> paths;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: dufs_lint [--root=DIR] [--format=text|json] [--rule=a,b] "
      "[--explain]\n"
      "                 [--sarif=FILE] [paths...]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      if (arg.compare(0, n, key) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--root")) {
      opt->root = v;
    } else if (const char* v = value("--format")) {
      opt->format = v;
      if (opt->format != "text" && opt->format != "json") return false;
    } else if (const char* v = value("--rule")) {
      std::string rule;
      for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!rule.empty()) opt->rule_filter.insert(rule);
          rule.clear();
          if (*p == '\0') break;
        } else {
          rule += *p;
        }
      }
    } else if (const char* v = value("--sarif")) {
      opt->sarif_path = v;
    } else if (arg == "--explain") {
      opt->explain = true;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      opt->paths.push_back(arg);
    }
  }
  return true;
}

void Explain() {
  std::printf("dufs_lint rules\n===============\n");
  for (const auto& doc : RuleDocs()) {
    std::printf("\n%s — %s [%s]\n", doc.id, doc.summary,
                SeverityName(doc.severity));
    std::printf("  %s\n", doc.rationale);
    std::printf("  bad:  %s\n", doc.bad);
    std::printf("  good: %s\n", doc.good);
  }
  std::printf(
      "\nSuppress a finding with `// dufs-lint: allow(<rule>)` on the "
      "offending line or alone on the line above (give a reason). "
      "Every unsuppressed finding, warn or error, fails the run.\n");
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

// Repo-relative with forward slashes, so findings and path-scoped rules are
// stable regardless of how the tool was invoked.
std::string RelativePath(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec ? p : rel).generic_string();
  while (s.rfind("./", 0) == 0) s = s.substr(2);
  return s;
}

std::vector<std::string> CollectFiles(const Options& opt) {
  const fs::path root(opt.root);
  std::vector<std::string> files;
  auto add_tree = [&files, &root](const fs::path& dir) {
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      // The lint fixture mini-tree is intentionally-violating *input* for
      // the analyzer (tests/lint/lint_v2_test.cc, dufs_lint_fixtures); it
      // is linted through --root=.../fixtures/tree, never as tree code.
      std::error_code ec;
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      if (!ec && rel.rfind("tests/lint/fixtures/", 0) == 0) continue;
      files.push_back(entry.path().string());
    }
  };
  if (opt.paths.empty()) {
    add_tree(root / "src");
    add_tree(root / "bench");
    add_tree(root / "tests");
  } else {
    for (const auto& p : opt.paths) {
      if (fs::is_directory(p)) {
        add_tree(p);
      } else {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Minimal valid SARIF 2.1.0: one run, rule metadata from RuleDocs(), one
// result per finding with a physical location.
bool WriteSarif(const std::string& path,
                const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"dufs_lint\",\"version\":\"2.0.0\","
      "\"informationUri\":\"https://github.com/\",\"rules\":[";
  const auto& docs = RuleDocs();
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"id\":\"" + Escape(docs[i].id) + "\"";
    out += ",\"shortDescription\":{\"text\":\"" +
           Escape(docs[i].summary) + "\"}";
    out += ",\"fullDescription\":{\"text\":\"" +
           Escape(docs[i].rationale) + "\"}";
    out += ",\"defaultConfiguration\":{\"level\":\"";
    out += docs[i].severity == Severity::kWarn ? "warning" : "error";
    out += "\"}}";
  }
  out += "]}},\"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ',';
    out += "{\"ruleId\":\"" + Escape(f.rule) + "\"";
    out += ",\"level\":\"";
    out += RuleSeverity(f.rule) == Severity::kWarn ? "warning" : "error";
    out += "\",\"message\":{\"text\":\"" + Escape(f.message) + "\"}";
    out += ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{";
    out += "\"uri\":\"" + Escape(f.file) + "\"}";
    out += ",\"region\":{\"startLine\":" +
           std::to_string(f.line > 0 ? f.line : 1) + "}}}]}";
  }
  out += "]}]}\n";
  return dufs::WriteOutput("dufs_lint", path, out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  if (opt.explain) {
    Explain();
    return 0;
  }

  const fs::path root(opt.root);
  Linter linter;
  const std::vector<std::string> files = CollectFiles(opt);
  if (files.empty()) {
    std::fprintf(stderr, "dufs_lint: no source files under %s\n",
                 opt.root.c_str());
    return 2;
  }
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "dufs_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    linter.AddFile(RelativePath(file, root), content.str());
  }

  std::vector<Finding> findings = linter.Run();
  if (!opt.rule_filter.empty()) {
    std::erase_if(findings, [&opt](const Finding& f) {
      return opt.rule_filter.count(f.rule) == 0;
    });
  }

  if (!opt.sarif_path.empty() && !WriteSarif(opt.sarif_path, findings)) {
    return 2;
  }

  std::string out;
  if (opt.format == "json") {
    out = "{\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out += ',';
      out += "{\"file\":\"" + Escape(f.file) + "\"";
      out += ",\"line\":" + std::to_string(f.line);
      out += ",\"rule\":\"" + Escape(f.rule) + "\"";
      out += ",\"severity\":\"";
      out += SeverityName(RuleSeverity(f.rule));
      out += "\",\"message\":\"" + Escape(f.message) + "\"}";
    }
    out += "],\"files_scanned\":" + std::to_string(files.size()) + "}\n";
  } else {
    for (const Finding& f : findings) {
      out += f.file + ":" + std::to_string(f.line) + ": [" +
             SeverityName(RuleSeverity(f.rule)) + "] " + f.rule + ": " +
             f.message + "\n";
    }
  }
  if (!dufs::WriteOutput("dufs_lint", "", out)) return 2;
  if (opt.format == "text") {
    std::fprintf(stderr, "dufs_lint: %zu finding(s) in %zu file(s)\n",
                 findings.size(), files.size());
  }
  return findings.empty() ? 0 : 1;
}
