// Finding/severity/doc types shared by the per-file rule pass (rules.cc) and
// the cross-TU dataflow pass (dataflow.cc). Split out of rules.h so the
// symbol-table layer can be used without pulling in the rule engine.
#pragma once

#include <string>
#include <vector>

namespace dufs::lint {

// Severity of a rule. Findings of either severity fail the run (exit 1),
// so the live tree is held at zero findings; the severity is reported in the
// text, JSON and SARIF output ("warning" vs "error" in SARIF).
enum class Severity {
  kError,
  kWarn,
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && rule == o.rule;
  }
};

struct RuleDoc {
  const char* id;
  const char* summary;
  const char* rationale;
  const char* bad;   // minimal example that fires
  const char* good;  // the conforming rewrite
  Severity severity = Severity::kError;
};

// Every rule the linter knows, in stable order (the --explain output).
const std::vector<RuleDoc>& RuleDocs();

// Severity for `rule`; unknown rules default to kError.
Severity RuleSeverity(const std::string& rule);

const char* SeverityName(Severity s);  // "error" / "warn"

}  // namespace dufs::lint
