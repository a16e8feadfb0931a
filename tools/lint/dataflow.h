// Interprocedural dataflow rules over the cross-TU symbol table and call
// graph. This is stage B of the analyzer; it runs over the summaries stage A
// (per-file lexing, local rules, FileSummary extraction) collected.
//
// Rules:
//   task-discard            — statement-level discard of a direct
//                             Task-returning call (moved here from the
//                             per-file pass; semantics unchanged).
//   task-discard-transitive — discard of a call whose result is a Task
//                             obtained through one or more `auto`-returning
//                             wrappers (`auto W() { return Mkdir(...); }`).
//   coro-ref-escape         — a reference/pointer argument (`&local`, a
//                             caller ref-param forwarded through a
//                             non-coroutine wrapper, or a `[&]` lambda)
//                             escapes into a coroutine frame that outlives
//                             the caller's suspension point.
//   det-export-order        — iteration over an unordered container on a
//                             path that produces a byte-compared export
//                             (JSON/SARIF/snapshot serialization).
//   await-holding-ref       — a reference/iterator into a container is used
//                             again after an intervening co_await (warn).
//
// Findings are appended unfiltered; the caller applies per-file
// `// dufs-lint: allow(...)` suppressions afterwards.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "callgraph.h"
#include "finding.h"
#include "symtab.h"

namespace dufs::lint {

// `direct_task` is the unambiguous Task-returning name set
// (Linter::TaskFunctionNames: declared Task-returning somewhere, never
// declared with an ordinary return type).
void RunDataflow(const SymbolTable& sym, const CallGraph& graph,
                 const std::set<std::string>& direct_task,
                 std::vector<Finding>* out);

}  // namespace dufs::lint
