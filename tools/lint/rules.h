// Repo-specific static-analysis rules for the DUFS tree.
//
// The rules encode the two invariants the simulator's credibility rests on:
// coroutine lifetime safety (nothing captured or referenced across a
// co_await may die before the frame does) and determinism (no wall-clock or
// process-global entropy in sim code; no hash-order-dependent bytes in the
// compared exports). See `dufs_lint --explain` or DESIGN.md §8/§12 for the
// rule-by-rule rationale.
//
// The analyzer is two-stage. Stage A (AnalyzeFile) is strictly per-file:
// lexing, the local token rules, and FileSummary extraction for the
// cross-TU passes. Stage B (Linter::Run) builds the symbol table and call
// graph over every added file's summary and runs the interprocedural
// dataflow rules (dataflow.h), then merges, suppression-filters, and sorts.
//
// Suppression: append `// dufs-lint: allow(<rule>[, <rule>...])` to the
// offending line, or place it alone on the line directly above. The rule
// name `all` suppresses every rule.
#pragma once

#include <string>
#include <vector>

#include "finding.h"
#include "lexer.h"
#include "symtab.h"

namespace dufs::lint {

// Everything stage A produces for one file.
struct FileArtifacts {
  std::string path;
  // Per-file rule findings, already suppression-filtered.
  std::vector<Finding> local;
  // Declaration/body facts for the cross-TU passes.
  FileSummary summary;
  // Kept so stage B can suppression-filter the dataflow findings it
  // attributes to this file.
  std::vector<Suppression> suppressions;
};

// Whole-tree linter: add every file, then Run() applies the per-file
// results plus the interprocedural rules and returns suppression-filtered
// findings sorted by (file, line, rule).
class Linter {
 public:
  // Runs stage A on one file. Paths should be repo-relative
  // ("src/zk/server.cc") so path-scoped rules (sim-time-source's rng
  // exemption, header rules) work.
  void AddFile(std::string path, const std::string& content);
  std::vector<Finding> Run();

  // The symbol table's direct Task/Future-returning names minus its
  // ambiguous ones: the set task-discard flags. Exposed for tests.
  std::vector<std::string> TaskFunctionNames() const;

 private:
  std::vector<FileArtifacts> files_;
};

}  // namespace dufs::lint
