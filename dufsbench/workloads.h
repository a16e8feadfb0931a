// The benchmark's workloads: seeded generators that turn (workload, seed,
// seconds) into the namespace to pre-create and the per-process op streams
// the simulated clients replay. The generator tracks the namespace state of
// every path a process owns, so each op carries the status it must return;
// the program under test only ever sees the generated ops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace dufsbench {

enum class OpKind : std::uint8_t {
  kStat,
  kReadDir,
  kMkdir,
  kRmdir,
  kCreate,
  kUnlink,
  kRename,
};

// stat and readdir are reads; every other kind mutates the namespace.
bool IsRead(OpKind kind);
const char* OpKindName(OpKind kind);

// The status an op must return. kOkOrNotFound is for reads of a path that
// another process may be creating, removing or renaming at the same moment.
enum class Expect : std::uint8_t { kOk, kNotFound, kOkOrNotFound };

struct GenOp {
  OpKind kind = OpKind::kStat;
  Expect expect = Expect::kOk;
  std::string path;
  std::string to;                // kRename: destination
  dufs::sim::Duration due = 0;   // open loop: offset from the window start
};

// One simulated client process. Processes are spread round-robin over the
// client nodes, as mdtest spreads MPI ranks.
struct Proc {
  std::size_t node = 0;
  std::vector<GenOp> ops;  // the first Plan::warmup ops run before the window
};

struct Fault {
  enum class Kind { kPartition, kLeaderCrash };
  Kind kind = Kind::kPartition;
  dufs::sim::Duration at = 0;      // offset from the window start
  dufs::sim::Duration length = 0;  // until heal / restart
  std::size_t client = 0;          // kPartition: cut from its session server
};

struct Plan {
  std::string workload;
  std::size_t client_nodes = 8;
  // Namespace pre-created during set-up (parents before children).
  std::vector<std::string> dirs;
  std::vector<std::string> files;
  std::vector<Proc> procs;
  std::size_t warmup = 0;     // untimed ops per process (caches fill)
  std::size_t phase_len = 0;  // closed loop: all processes barrier after
                              // every phase_len timed ops (0 = never)
  bool open_loop = false;     // ops are issued at GenOp::due, not on reply
  // Open loop: the fault schedule repeats every `cycle` of due time, and an
  // op belongs to the cycle its due time falls in (0 = one cycle).
  dufs::sim::Duration cycle = 0;
  bool failure_detection = false;
  std::vector<Fault> faults;
};

// The workloads this generator knows, in the order BENCHMARK.json lists
// them.
const std::vector<std::string>& WorkloadNames();

// Builds the plan of `workload` for `seed`, sized to take about `seconds`
// of host time on a 4-core x86 box. Returns false for an unknown name.
bool MakePlan(const std::string& workload, std::uint64_t seed, int seconds,
              Plan* out);

}  // namespace dufsbench
