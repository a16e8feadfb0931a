#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "callgraph.h"
#include "dataflow.h"
#include "token_util.h"

namespace dufs::lint {

namespace {

// Wall-clock / entropy identifiers that are banned on sight in sim code.
bool IsBannedTimeSourceType(const std::string& s) {
  static const std::set<std::string> kSet = {
      "random_device",   "system_clock", "steady_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime",
      "timespec_get",    "localtime",    "gmtime",
      "mktime",          "mt19937",      "mt19937_64",
      "default_random_engine"};
  return kSet.count(s) > 0;
}

// Banned only when called (`rand()`), since the bare names are common as
// fields and locals (`Txn::time`).
bool IsBannedTimeSourceCall(const std::string& s) {
  return s == "rand" || s == "srand" || s == "clock" || s == "time";
}

// Allocating std:: types banned (as `std::X`) in src/sim/ hot-path code:
// type-erased callables and node/map containers whose construction or
// insertion heap-allocates per operation. The event loop runs these methods
// millions of times per simulated second; use the slab arena (sim/arena.h),
// SmallQueue (sim/small_queue.h), or intrusive lists instead — or suppress
// with a reason for genuinely cold paths.
bool IsHotAllocBannedType(const std::string& s) {
  static const std::set<std::string> kSet = {
      "function",      "deque",         "list",
      "forward_list",  "priority_queue", "queue",
      "map",           "multimap",      "set",
      "multiset",      "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset"};
  return kSet.count(s) > 0;
}

// First `&` in the parameter list `tokens[open]=='('` .. its matching `)`
// that binds a parameter by reference (prev token is a type-ish identifier
// or `>`), at paren depth 1. Returns its line, or 0 when none.
// `Simulation&` parameters are exempt: a coroutine frame cannot outlive the
// Simulation that drives it (RunTask runs it to completion; Shutdown()
// destroys detached frames before the Simulation dies).
int FindRefParamLine(const std::vector<Token>& toks, std::size_t open,
                     std::size_t close) {
  int depth = 0;
  for (std::size_t i = open; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++depth;
      if (t.text == ")") --depth;
    }
    if (depth != 1 || i == open) continue;
    if (IsPunct(t, "&")) {
      const Token& prev = toks[i - 1];
      if (prev.kind == TokKind::kIdentifier && prev.text == "Simulation") {
        continue;
      }
      if ((prev.kind == TokKind::kIdentifier && !IsExprKeyword(prev.text)) ||
          IsPunct(prev, ">") || IsPunct(prev, ">>")) {
        return t.line;
      }
    }
  }
  return 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& p) { return EndsWith(p, ".h"); }

// Strips quotes/prefix from a lexed string token ("x", u8"x", R"(x)").
std::string StringValue(const std::string& raw) {
  std::size_t b = raw.find('"');
  if (b == std::string::npos) return raw;
  if (b > 0 && raw[b - 1] == 'R') {
    const auto open = raw.find('(', b);
    const auto close = raw.rfind(')');
    if (open != std::string::npos && close != std::string::npos &&
        close > open) {
      return raw.substr(open + 1, close - open - 1);
    }
  }
  std::size_t e = raw.rfind('"');
  if (e <= b) return raw;
  return raw.substr(b + 1, e - b - 1);
}

bool IsValidObsName(const std::string& name) {
  if (name.empty()) return false;
  if (name[0] < 'a' || name[0] > 'z') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Lambda structure
// ---------------------------------------------------------------------------

struct Lambda {
  int line = 0;
  bool default_ref_capture = false;    // [&] or [&, x]
  bool default_copy_capture = false;   // [=] or [=, &x]
  bool explicit_ref_capture = false;   // [&x] (incl. [&x = init])
  bool captures_this = false;          // [this]
  int ref_param_line = 0;              // 0 = none
  bool returns_task = false;           // -> sim::Task<...> / Future
  bool body_has_co = false;            // co_await / co_return / co_yield
  bool IsCoroutine() const { return returns_task || body_has_co; }
};

// True when the `[` at `i` opens a lambda capture list (vs subscript or
// attribute). Heuristic: a subscript follows a value (identifier, `)`, `]`,
// literal); an attribute is `[[`.
bool IsLambdaIntro(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 < toks.size() && IsPunct(toks[i + 1], "[")) return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  switch (prev.kind) {
    case TokKind::kIdentifier:
      return IsExprKeyword(prev.text);
    case TokKind::kNumber:
    case TokKind::kString:
      return false;
    case TokKind::kPunct:
      return !(prev.text == ")" || prev.text == "]");
  }
  return false;
}

// Parses the lambda whose `[` is at `i`; advances to just past its body so
// nested lambdas are only reported once (the caller recurses via re-scan of
// body tokens — body token range is returned through `body_begin/end`).
bool ParseLambda(const std::vector<Token>& toks, std::size_t i, Lambda* out,
                 std::size_t* body_begin, std::size_t* body_end) {
  out->line = toks[i].line;
  // Capture list.
  std::size_t j = i + 1;
  int depth = 1;
  bool at_item_start = true;  // just after `[` or a top-level `,`
  for (; j < toks.size() && depth > 0; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "[" || t.text == "(") ++depth;
      if (t.text == "]" || t.text == ")") {
        --depth;
        continue;
      }
    }
    if (depth != 1) continue;
    if (IsPunct(t, ",")) {
      at_item_start = true;
      continue;
    }
    if (at_item_start) {
      if (IsPunct(t, "&")) {
        const bool bare = j + 1 < toks.size() &&
                          (IsPunct(toks[j + 1], ",") ||
                           IsPunct(toks[j + 1], "]"));
        if (bare) {
          out->default_ref_capture = true;
        } else {
          out->explicit_ref_capture = true;
        }
      } else if (IsPunct(t, "=")) {
        const bool bare = j + 1 < toks.size() &&
                          (IsPunct(toks[j + 1], ",") ||
                           IsPunct(toks[j + 1], "]"));
        if (bare) out->default_copy_capture = true;
      } else if (IsId(t, "this")) {
        out->captures_this = true;
      }
      at_item_start = false;
    }
  }
  if (depth > 0) return false;  // unterminated; not a lambda after all

  // Optional parameter list.
  if (j < toks.size() && IsPunct(toks[j], "(")) {
    const std::size_t close = MatchParen(toks, j);
    if (close == kNpos) return false;
    out->ref_param_line = FindRefParamLine(toks, j, close - 1);
    j = close;
  }
  // Specifiers / trailing return type, up to the body `{`.
  for (; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (IsPunct(t, "{")) break;
    if (IsPunct(t, ";") || IsPunct(t, ")") || IsPunct(t, ",") ||
        IsPunct(t, "]") || IsPunct(t, "}")) {
      return false;  // e.g. `[]` used as an empty attribute-like construct
    }
    if (IsId(t, "Task") || IsId(t, "Future")) out->returns_task = true;
  }
  if (j >= toks.size()) return false;
  const std::size_t end = MatchBrace(toks, j);
  if (end == kNpos) return false;
  *body_begin = j + 1;
  *body_end = end - 1;
  for (std::size_t k = *body_begin; k < *body_end; ++k) {
    if (IsCoroKeyword(toks[k])) {
      out->body_has_co = true;
      break;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule documentation (--explain)
// ---------------------------------------------------------------------------

const std::vector<RuleDoc>& RuleDocs() {
  static const std::vector<RuleDoc> kDocs = {
      {"coro-capture-default",
       "no [&]/[=] default captures in coroutine lambdas",
       "A lambda coroutine stores its captures in the closure object, not in "
       "the coroutine frame. If the closure is destroyed before the frame "
       "finishes (it usually is: temporaries die at the end of the full "
       "expression that started the coroutine), every capture dangles after "
       "the first co_await. Default captures make the hazard invisible at "
       "the call site, so they are banned outright in any lambda that "
       "contains co_await/co_return/co_yield or returns sim::Task/"
       "sim::Future.",
       "sim->Spawn([&]() -> sim::Task<void> { co_await sim->Delay(d); }());",
       "pass state as coroutine parameters: "
       "sim->Spawn([](Simulation* s, Duration d) -> sim::Task<void> { "
       "co_await s->Delay(d); }(sim, d));"},
      {"coro-capture-ref",
       "no by-reference or `this` captures in coroutine lambdas",
       "Same lifetime hazard as coro-capture-default, with the reference "
       "spelled out: `[&x]` and `[this]` live in the closure object, which "
       "rarely outlives the first suspension point. Capture by value, or "
       "pass the object as an explicit coroutine parameter (parameters are "
       "copied/moved into the frame and live exactly as long as it does).",
       "auto t = [&cfg]() -> sim::Task<int> { co_return cfg.n; }();",
       "auto t = [](const Config cfg) -> sim::Task<int> { co_return cfg.n; "
       "}(cfg);"},
      {"coro-ref-param",
       "no reference parameters on named coroutine functions",
       "A coroutine's reference parameter is stored in the frame as a "
       "reference; the referent must outlive every suspension of the frame, "
       "which the caller cannot see from the signature. Take parameters by "
       "value (strings and small structs move cheaply) so the frame owns "
       "them. Out-parameters that provably outlive the frame may be "
       "annotated `// dufs-lint: allow(coro-ref-param)` with a reason. "
       "Two exemptions: lambda parameters (an immediately-invoked coroutine "
       "lambda whose caller drives it to completion is the blessed way to "
       "pass state without capturing) and `Simulation&` (no frame outlives "
       "the Simulation that drives it).",
       "sim::Task<Status> Lookup(const std::string& path);",
       "sim::Task<Status> Lookup(std::string path);"},
      {"sim-time-source",
       "no wall-clock or process entropy in sim code",
       "The simulator must replay bit-for-bit from a seed: metrics and trace "
       "exports are compared byte-for-byte in CI. std::random_device, "
       "rand()/srand(), system_clock/steady_clock and friends smuggle "
       "process-global nondeterminism into the run. Use the owning "
       "Simulation's Rng (src/common/rng.h) and sim time "
       "(Simulation::now()) instead; src/common/rng.* is the only file "
       "allowed to touch platform entropy.",
       "auto jitter = rand() % 10;",
       "auto jitter = sim.rng().NextBelow(10);"},
      {"task-discard",
       "no discarded sim::Task return values",
       "A sim::Task is lazy: dropping one on the floor destroys the frame "
       "before it ever runs, silently skipping the work ([[nodiscard]] "
       "catches plain calls; this rule also covers member calls and macro "
       "expansions the attribute misses). co_await it, Spawn() it, or hold "
       "it.",
       "client.Mkdir(\"/a\", 0755);",
       "co_await client.Mkdir(\"/a\", 0755);  // or sim.Spawn(...)"},
      {"include-hygiene",
       "#pragma once in headers, self-include first, no ../ includes",
       "Headers must open with #pragma once before any code. A src/ .cc "
       "file that has a same-named header must include it first (proves the "
       "header is self-contained). Includes must not path-escape with "
       "\"../\" — spell the project-relative path. Headers must not contain "
       "`using namespace`.",
       "#include \"../common/log.h\"",
       "#include \"common/log.h\""},
      {"trace-span-name",
       "span/metric names are lower-case dotted literals",
       "Span and metric names are compared byte-for-byte across runs and "
       "land in exported JSON keys; they follow [a-z][a-z0-9._-]* "
       "(\"zk-rpc\", \"op.stat_ns\"). Upper case, spaces, or empty names "
       "break the convention and the export diffing tools.",
       "obs::Span span(obs_, \"ZK RPC\", \"zk\");",
       "obs::Span span(obs_, \"zk-rpc\", \"zk\");"},
      {"obs-key-literal",
       "metric/span keys are string literals at the call site",
       "Registry keys and span names land in byte-compared JSON exports and "
       "are grepped by offline tooling (tracestats classifies spans by "
       "name). A key assembled at runtime — concatenation, to_string(), "
       "c_str() — makes the key set data-dependent, so neither the linter "
       "nor a reader of the call site can enumerate it, and one stray value "
       "explodes export cardinality. Pass a fixed literal to counter()/"
       "gauge()/histogram()/timer(), to span constructors, and to "
       "prof::ProfScope frames (whose names additionally feed the "
       "async-signal-safe profiler, which stores the pointer — a temporary "
       "from c_str() would dangle inside a sample); put the variable part "
       "in a span arg, a per-node Scope, or prof::InternName(). "
       "(src/obs/ itself is exempt: its forwarding shims take the key as a "
       "parameter by design.)",
       "obs_.counter(\"op.\" + phase + \"_count\").Inc();",
       "obs_.counter(\"op.stat_count\").Inc();  // one literal per phase"},
      {"sim-hot-alloc",
       "no std::function or node/heap containers in src/sim/",
       "The simulator core executes tens of millions of events per wall "
       "second; a std::function construction, deque block, or map/set node "
       "per event puts a general-purpose heap allocation on the hot path "
       "and erases the gains of the slab arena. In src/sim/, use the arena "
       "(sim/arena.h), SmallQueue (sim/small_queue.h), intrusive lists, or "
       "a template parameter for callables. Genuinely cold uses (teardown, "
       "far-future overflow levels) may suppress with a stated reason.",
       "std::deque<std::coroutine_handle<>> waiters;  // in src/sim/",
       "SmallQueue<std::coroutine_handle<>, 4> waiters;"},
      {"obs-hot-path-alloc",
       "no heap containers or std::string in flight-recorder/SLO code",
       "The flight recorder and sliding-window digests run on every span "
       "completion and every op sample in UNTRACED runs — their whole point "
       "is being cheap enough to leave always-on. A std::string key, map "
       "node, or std::function there puts a heap allocation on that path "
       "and invalidates the overhead budget (DESIGN.md §11). In src/obs/"
       "flight* and src/obs/slo*, keep records POD, use `const char*` "
       "literals for names, and fixed arrays or pre-reserved flat vectors "
       "for storage. Cold paths (dump serialization) suppress with a stated "
       "reason.",
       "std::string name;  // in FlightRecorder::Record",
       "const char* name;  // literal owned by the call site"},
      {"coro-ref-escape",
       "no reference escapes into a coroutine frame across a wrapper",
       "A coroutine frame can outlive the caller's scope the moment it "
       "suspends. Passing `&local`, a `[&]` lambda, or forwarding a "
       "reference parameter through a non-coroutine wrapper into a "
       "Task-returning callee stores a dangling pointer in that frame. The "
       "per-file coro-ref-param rule sees only the callee's signature; this "
       "interprocedural rule follows the argument through the call graph. "
       "Pass by value, or co_await the call so the frame dies before the "
       "referent does.",
       "void Kick(Client& c, std::string& p) { StartRename(c, p); }  "
       "// StartRename -> Task RenameLoop(Client&, std::string& path)",
       "void Kick(Client& c, std::string p) { StartRename(c, std::move(p)); "
       "}"},
      {"task-discard-transitive",
       "no discarded sim::Task through wrapper call chains",
       "task-discard catches `client.Mkdir(...);`. But a Task smuggled "
       "through `auto Retry() { return Mkdir(...); }` is just as lazy: "
       "discarding `Retry();` destroys the frame before it ever runs. This "
       "rule propagates Task-ness through `auto`-returning wrappers that "
       "return a Task-returning call, then flags discards of any name in "
       "the closure.",
       "auto Retry() { return client.Mkdir(\"/a\", 0755); }\nRetry();",
       "co_await Retry();  // or sim.Spawn(...), or hold the Task"},
      {"det-export-order",
       "no unordered-container iteration on byte-compared export paths",
       "CI byte-compares metrics.json, trace exports, incident dumps, and "
       "wire snapshots across runs and stdlib implementations. "
       "std::unordered_map/set iteration order is an implementation detail "
       "of the hash table: the same data serializes to different bytes on "
       "libstdc++ vs libc++ (or across versions). Any loop over an "
       "unordered container that feeds a serialization sink — directly, "
       "inside a sink, or anywhere a sink can reach through the call graph "
       "— must sort keys first or use an ordered container.",
       "for (SessionId s : sessions_) w.WriteU64(s);  "
       "// sessions_ is unordered_set, inside Snapshot()",
       "std::vector<SessionId> ids(sessions_.begin(), sessions_.end());\n"
       "std::sort(ids.begin(), ids.end());\n"
       "for (SessionId s : ids) w.WriteU64(s);"},
      {"await-holding-ref",
       "no container reference/iterator held across a co_await",
       "While a coroutine is suspended, anything else may run: the "
       "container behind an iterator or element reference can rehash, "
       "reallocate, or erase. Using the handle after resuming is "
       "use-after-free that ASan only catches on the unlucky interleaving. "
       "Re-acquire the iterator/reference after the co_await (and handle "
       "the element having vanished), or copy the value out before "
       "suspending. Warn-severity: flagged code is suspect, not always "
       "wrong — suppress with a reason when the container is provably "
       "quiescent.",
       "auto it = map_.find(k);\nco_await gate_.Wait();\nUse(it->second);",
       "co_await gate_.Wait();\nauto it = map_.find(k);\nif (it != "
       "map_.end()) Use(it->second);",
       Severity::kWarn},
  };
  return kDocs;
}

Severity RuleSeverity(const std::string& rule) {
  for (const RuleDoc& doc : RuleDocs()) {
    if (rule == doc.id) return doc.severity;
  }
  return Severity::kError;
}

const char* SeverityName(Severity s) {
  return s == Severity::kWarn ? "warn" : "error";
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

namespace {

class FileLint {
 public:
  explicit FileLint(const LexedFile& f) : f_(f) {}

  void Run(std::vector<Finding>* out) {
    Lambdas();
    CoroutineSignatures();
    TimeSources();
    IncludeHygiene();
    ObsNames();
    ObsKeyLiterals();
    SimHotAllocs();
    ObsHotPathAllocs();
    Filter(out);
  }

 private:
  void Add(int line, const char* rule, std::string message) {
    raw_.push_back(Finding{f_.path, line, rule, std::move(message)});
  }

  void Lambdas() {
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!IsPunct(toks[i], "[") || !IsLambdaIntro(toks, i)) continue;
      Lambda lam;
      std::size_t body_begin = 0, body_end = 0;
      if (!ParseLambda(toks, i, &lam, &body_begin, &body_end)) continue;
      if (!lam.IsCoroutine()) continue;
      if (lam.default_ref_capture) {
        Add(lam.line, "coro-capture-default",
            "[&] default capture in a coroutine lambda: captures live in "
            "the closure object and dangle after the first suspension");
      }
      if (lam.default_copy_capture) {
        Add(lam.line, "coro-capture-default",
            "[=] default capture in a coroutine lambda: the closure object "
            "(and its copies) dies before the frame; capture nothing and "
            "pass parameters instead");
      }
      if (lam.explicit_ref_capture) {
        Add(lam.line, "coro-capture-ref",
            "by-reference capture in a coroutine lambda: the reference "
            "lives in the closure object, not the frame");
      }
      if (lam.captures_this) {
        Add(lam.line, "coro-capture-ref",
            "`this` capture in a coroutine lambda: the closure object dies "
            "before the frame; pass the object as a parameter");
      }
      // Lambda parameters are deliberately exempt from coro-ref-param:
      // the repo's blessed pattern is an immediately-invoked lambda whose
      // referents are pinned by the caller that drives it (RunTask), and
      // parameters are exactly where the capture rules send state.
    }
  }

  void CoroutineSignatures() {
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(IsId(toks[i], "Task") || IsId(toks[i], "Future"))) continue;
      if (!IsPunct(toks[i + 1], "<")) continue;
      std::size_t j = MatchAngle(toks, i + 1);
      if (j == kNpos || j >= toks.size()) continue;
      std::size_t name_tok = kNpos;
      while (j + 1 < toks.size() && toks[j].kind == TokKind::kIdentifier &&
             !IsExprKeyword(toks[j].text)) {
        name_tok = j;
        if (IsPunct(toks[j + 1], "::")) {
          j += 2;
        } else {
          ++j;
          break;
        }
      }
      if (name_tok == kNpos || j >= toks.size() || !IsPunct(toks[j], "(")) {
        continue;
      }
      const std::size_t close = MatchParen(toks, j);
      if (close == kNpos) continue;
      const int ref_line = FindRefParamLine(toks, j, close - 1);
      if (ref_line != 0) {
        Add(ref_line, "coro-ref-param",
            "reference parameter on coroutine function `" +
                toks[name_tok].text +
                "`: the referent must outlive every suspension of the "
                "frame; take it by value (or annotate a provably-safe "
                "out-param)");
      }
    }
  }

  void TimeSources() {
    if (f_.path.find("common/rng.") != std::string::npos) return;
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if (IsBannedTimeSourceType(t.text)) {
        Add(t.line, "sim-time-source",
            "`" + t.text +
                "` is wall-clock/process entropy; sim code must use "
                "Simulation::now()/rng() (src/common/rng.h)");
        continue;
      }
      if (IsBannedTimeSourceCall(t.text) && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        const bool member_call =
            i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
        if (!member_call) {
          Add(t.line, "sim-time-source",
              "`" + t.text +
                  "()` is wall-clock/process entropy; sim code must use "
                  "Simulation::now()/rng() (src/common/rng.h)");
        }
      }
    }
  }

  void IncludeHygiene() {
    const bool is_header = IsHeaderPath(f_.path);
    if (is_header) {
      if (!f_.has_pragma_once) {
        Add(1, "include-hygiene", "header is missing #pragma once");
      } else if (f_.first_code_line != 0 &&
                 f_.pragma_once_line > f_.first_code_line) {
        Add(f_.pragma_once_line, "include-hygiene",
            "#pragma once must precede all code in the header");
      }
      const auto& toks = f_.tokens;
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (IsId(toks[i], "using") && IsId(toks[i + 1], "namespace")) {
          Add(toks[i].line, "include-hygiene",
              "`using namespace` in a header leaks into every includer");
        }
      }
    }
    for (const auto& inc : f_.includes) {
      if (inc.path.find("../") != std::string::npos) {
        Add(inc.line, "include-hygiene",
            "include path escapes with \"../\"; spell the project-relative "
            "path");
      }
    }
    // Self-include-first for src/ implementation files.
    if (!is_header && EndsWith(f_.path, ".cc") &&
        f_.path.rfind("src/", 0) == 0 && !f_.includes.empty()) {
      std::string self = f_.path.substr(4);  // drop "src/"
      self.replace(self.size() - 3, 3, ".h");
      for (std::size_t k = 0; k < f_.includes.size(); ++k) {
        if (f_.includes[k].path == self && k != 0) {
          Add(f_.includes[k].line, "include-hygiene",
              "self header \"" + self +
                  "\" must be the first include (proves it is "
                  "self-contained)");
        }
      }
    }
  }

  void ObsNames() {
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;
      std::size_t open = kNpos;
      if (t.text == "counter" || t.text == "timer" || t.text == "gauge" ||
          t.text == "histogram") {
        if (IsPunct(toks[i + 1], "(")) open = i + 1;
      } else if (t.text == "Span" || t.text == "Root" ||
                 t.text == "ProfScope") {
        if (t.text == "Root" &&
            !(i >= 2 && IsPunct(toks[i - 1], "::") && IsId(toks[i - 2], "Span"))) {
          continue;
        }
        if (IsPunct(toks[i + 1], "(")) {
          open = i + 1;  // direct construction / Span::Root call
        } else if (i + 2 < toks.size() &&
                   toks[i + 1].kind == TokKind::kIdentifier &&
                   IsPunct(toks[i + 2], "(")) {
          open = i + 2;  // `Span span(...)` variable declaration
        }
      }
      if (open == kNpos) continue;
      const std::size_t close = MatchParen(toks, open);
      if (close == kNpos) continue;
      int depth = 0;
      for (std::size_t k = open; k < close; ++k) {
        const Token& a = toks[k];
        if (a.kind == TokKind::kPunct) {
          if (a.text == "(") ++depth;
          if (a.text == ")") --depth;
        }
        if (depth != 1 || a.kind != TokKind::kString) continue;
        if (a.text.empty() || a.text[0] == '\'') continue;  // char literal
        const std::string value = StringValue(a.text);
        if (!IsValidObsName(value)) {
          Add(a.line, "trace-span-name",
              "span/metric name \"" + value +
                  "\" must match [a-z][a-z0-9._-]* (lower-case dotted)");
        }
      }
    }
  }

  // Metric/span keys must be literals at the call site. Two shapes:
  //  - registry lookups `x.counter("k")` / `->timer("k")` etc.: the first
  //    argument must be exactly one string literal;
  //  - span construction: no runtime-name indicators (`+`, c_str(),
  //    to_string(), append(), format()) at depth 1 of the argument list.
  //    A bare identifier is tolerated there because the blessed OpScope
  //    helper forwards a `const char* name` parameter that is itself
  //    always a literal at ITS call sites.
  // src/obs/ is exempt: its shims forward `key` parameters by design.
  void ObsKeyLiterals() {
    if (f_.path.find("src/obs/") != std::string::npos) return;
    const auto& toks = f_.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if (t.text == "counter" || t.text == "gauge" || t.text == "timer" ||
          t.text == "histogram") {
        // Member calls only: `Counter counter(...)` declarations and free
        // functions that happen to share the name are not registry lookups.
        if (!IsPunct(toks[i - 1], ".") && !IsPunct(toks[i - 1], "->")) {
          continue;
        }
        if (!IsPunct(toks[i + 1], "(")) continue;
        const std::size_t open = i + 1;
        const std::size_t close = MatchParen(toks, open);
        if (close == kNpos) continue;
        // First depth-1 argument: tokens in (open, first depth-1 comma).
        std::size_t first_end = close - 1;
        int depth = 0;
        for (std::size_t k = open; k < close - 1; ++k) {
          const Token& a = toks[k];
          if (a.kind != TokKind::kPunct) continue;
          if (a.text == "(" || a.text == "[" || a.text == "{") ++depth;
          if (a.text == ")" || a.text == "]" || a.text == "}") --depth;
          if (depth == 1 && a.text == "," && k > open) {
            first_end = k;
            break;
          }
        }
        if (first_end == open + 1) continue;  // no-arg call: not a lookup
        const bool single_literal =
            first_end == open + 2 && toks[open + 1].kind == TokKind::kString &&
            !toks[open + 1].text.empty() && toks[open + 1].text[0] != '\'';
        if (!single_literal) {
          Add(t.line, "obs-key-literal",
              "key passed to `" + t.text +
                  "()` must be a single string literal: runtime-built keys "
                  "make the export key set data-dependent");
        }
      } else if (t.text == "Span" || t.text == "Root" ||
                 t.text == "ProfScope") {
        // ProfScope frame names are held by pointer inside profiler samples,
        // so a runtime-assembled name is not just unenumerable — it dangles.
        if (t.text == "Root" &&
            !(i >= 2 && IsPunct(toks[i - 1], "::") &&
              IsId(toks[i - 2], "Span"))) {
          continue;
        }
        std::size_t open = kNpos;
        if (IsPunct(toks[i + 1], "(")) {
          open = i + 1;
        } else if (i + 2 < toks.size() &&
                   toks[i + 1].kind == TokKind::kIdentifier &&
                   IsPunct(toks[i + 2], "(")) {
          open = i + 2;
        }
        if (open == kNpos) continue;
        const std::size_t close = MatchParen(toks, open);
        if (close == kNpos) continue;
        int depth = 0;
        for (std::size_t k = open; k < close; ++k) {
          const Token& a = toks[k];
          if (a.kind == TokKind::kPunct) {
            if (a.text == "(") ++depth;
            if (a.text == ")") --depth;
          }
          if (depth != 1) continue;
          const bool builder =
              IsPunct(a, "+") ||
              (a.kind == TokKind::kIdentifier &&
               (a.text == "c_str" || a.text == "to_string" ||
                a.text == "append" || a.text == "format"));
          if (builder) {
            Add(a.line, "obs-key-literal",
                "span name assembled at runtime (`" + a.text +
                    "`): span names must be fixed literals; put the "
                    "variable part in a span arg");
            break;
          }
        }
      }
    }
  }

  // std::function / allocating-container use inside the simulator core.
  // Path-scoped: every method in src/sim/ is hot-path by default (the event
  // loop or something it inlines); cold spots suppress with a reason.
  void SimHotAllocs() {
    if (f_.path.find("src/sim/") == std::string::npos) return;
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsId(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
      const Token& t = toks[i + 2];
      if (t.kind != TokKind::kIdentifier || !IsHotAllocBannedType(t.text)) {
        continue;
      }
      Add(t.line, "sim-hot-alloc",
          "`std::" + t.text +
              "` heap-allocates per operation; in src/sim/ use the slab "
              "arena (sim/arena.h), SmallQueue (sim/small_queue.h), an "
              "intrusive list, or a template callable parameter");
    }
  }

  // Always-on observability hot path: the flight recorder admits a record
  // per completed span and the SLO digests observe every op sample, in
  // untraced runs too. Same banned set as src/sim/, plus std::string —
  // names there must be `const char*` literals. Dump serialization is the
  // sanctioned cold path and suppresses with a reason.
  void ObsHotPathAllocs() {
    const bool scoped = f_.path.find("src/obs/flight") != std::string::npos ||
                        f_.path.find("src/obs/slo") != std::string::npos;
    if (!scoped) return;
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsId(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
      const Token& t = toks[i + 2];
      if (t.kind != TokKind::kIdentifier) continue;
      if (!IsHotAllocBannedType(t.text) && t.text != "string") continue;
      Add(t.line, "obs-hot-path-alloc",
          "`std::" + t.text +
              "` on the always-on flight-recorder/SLO path: records are "
              "POD, names are `const char*` literals, storage is fixed "
              "arrays or pre-reserved flat vectors (see src/obs/flight.h); "
              "dump serialization may suppress with a reason");
    }
  }

  // Applies `// dufs-lint: allow(...)` suppressions: a trailing comment
  // covers its own line; a comment alone on a line covers the next line.
  void Filter(std::vector<Finding>* out) {
    for (auto& finding : raw_) {
      bool suppressed = false;
      for (const auto& sup : f_.suppressions) {
        const int covered = sup.alone ? sup.line + 1 : sup.line;
        if (covered != finding.line) continue;
        for (const auto& rule : sup.rules) {
          if (rule == "all" || rule == finding.rule) {
            suppressed = true;
            break;
          }
        }
        if (suppressed) break;
      }
      if (!suppressed) out->push_back(std::move(finding));
    }
  }

  const LexedFile& f_;
  std::vector<Finding> raw_;
};

bool IsSuppressed(const Finding& finding,
                  const std::vector<Suppression>& sups) {
  for (const auto& sup : sups) {
    const int covered = sup.alone ? sup.line + 1 : sup.line;
    if (covered != finding.line) continue;
    for (const auto& rule : sup.rules) {
      if (rule == "all" || rule == finding.rule) return true;
    }
  }
  return false;
}

// The direct task-discard set: declared Task/Future-returning somewhere and
// never with an ordinary return type.
std::set<std::string> DirectTaskSet(const SymbolTable& sym) {
  const std::set<std::string>& task = sym.DirectTaskNames();
  const std::set<std::string>& ambiguous = sym.AmbiguousNames();
  std::set<std::string> names;
  std::set_difference(task.begin(), task.end(), ambiguous.begin(),
                      ambiguous.end(), std::inserter(names, names.end()));
  return names;
}

}  // namespace

// ---------------------------------------------------------------------------
// Stage A: per-file analysis
// ---------------------------------------------------------------------------

namespace {

FileArtifacts AnalyzeFile(std::string path, const std::string& content) {
  FileArtifacts a;
  const LexedFile lexed = Lex(std::move(path), content);
  a.path = lexed.path;
  FileLint(lexed).Run(&a.local);
  a.summary = BuildFileSummary(lexed);
  a.suppressions = lexed.suppressions;
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Stage B: whole-tree run
// ---------------------------------------------------------------------------

void Linter::AddFile(std::string path, const std::string& content) {
  files_.push_back(AnalyzeFile(std::move(path), content));
}

std::vector<std::string> Linter::TaskFunctionNames() const {
  SymbolTable sym;
  for (const auto& a : files_) sym.Add(&a.summary);
  const std::set<std::string> names = DirectTaskSet(sym);
  return {names.begin(), names.end()};
}

std::vector<Finding> Linter::Run() {
  std::vector<Finding> out;
  for (const auto& a : files_) {
    out.insert(out.end(), a.local.begin(), a.local.end());
  }

  SymbolTable sym;
  for (const auto& a : files_) sym.Add(&a.summary);
  const CallGraph graph(sym);

  std::vector<Finding> flow;
  RunDataflow(sym, graph, DirectTaskSet(sym), &flow);

  std::map<std::string, const std::vector<Suppression>*> sups;
  for (const auto& a : files_) sups[a.path] = &a.suppressions;
  for (auto& finding : flow) {
    const auto it = sups.find(finding.file);
    if (it != sups.end() && IsSuppressed(finding, *it->second)) continue;
    out.push_back(std::move(finding));
  }

  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dufs::lint
