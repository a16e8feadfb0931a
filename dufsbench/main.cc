// dufsbench — runs one workload of the DUFS benchmark in one process.
//
//   dufsbench --workload=NAME --seed=N --seconds=S [--layers]
//             [--trace-out=PATH] [--profile-out=PATH]
//
// Builds the paper's testbed (DUFS over 2x Lustre, 8 ZooKeeper servers, 8
// client nodes), pre-creates the workload's namespace, replays the
// generated ops through each client's FuseMount and prints every metric as
//
//   metric <sim|host> <name> <value> <unit>
//   absent <name> <reason>
//
// `sim` values are simulated and byte-identical for one seed; `host`
// values are wall time and memory of this process. The last line is
//
//   result correct=<0|1> attempted=<timed ops> failed=<mismatched ops>
//
// --layers adds host-time replays of the workload's own requests into a
// standalone MetaCache, zk::Database and the wire codec. --trace-out turns
// the span log on for a sample of the timed window and writes it as Chrome
// JSON; --profile-out samples the count-mode profiler (every kProfileEvery-th
// dispatch) over the whole window.
//
// Exit status: 0 when every check passed, 1 on a failed check, 2 on bad
// arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fsck.h"
#include "core/meta_cache.h"
#include "mdtest/testbed.h"
#include "sim/gather.h"
#include "sim/task.h"
#include "workloads.h"
#include "zk/database.h"

namespace dufsbench {
namespace {

namespace sim = dufs::sim;
namespace zk = dufs::zk;
namespace core = dufs::core;
namespace obs = dufs::obs;
namespace bench = dufs::bench;
using Clock = std::chrono::steady_clock;
using dufs::StatusCode;
using dufs::mdtest::Testbed;

// setup_s is the median of at least kMinSetupReps set-ups, repeated until
// they took kSetupBudgetS in all (at most kMaxSetupReps): a 0.1 s set-up
// needs many repetitions before one slow moment of the machine stops
// moving the median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 1.5;
constexpr std::size_t kHostSamples = 200;  // host_ns_per_op samples per run
constexpr std::size_t kHostRounds = 20;    // windows summed into one sample
constexpr std::size_t kReplayOps = 100000;  // cap on each --layers replay
// --trace-out records spans in one host window of every kTraceEvery: a
// sample spread over the whole run (every mdtest phase) that keeps the span
// log to tens of MB.
constexpr std::size_t kTraceEvery = 16;
constexpr long kProfileEvery = 64;
constexpr const char* kMetaPrefix = "/dufs/ns";  // DufsConfig defaults
constexpr auto kDirTag =
    static_cast<std::uint8_t>(dufs::vfs::FileType::kDirectory);

std::int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --- printing -------------------------------------------------------------

void Metric(bool simulated, const std::string& name, double value,
            const char* unit) {
  std::printf("metric %s %s %.17g %s\n", simulated ? "sim" : "host",
              name.c_str(), value, unit);
}

void Absent(const std::string& name, const char* reason) {
  std::printf("absent %s %s\n", name.c_str(), reason);
}

// A rate or ratio; a zero denominator is reported absent, never as 0.
void Ratio(bool simulated, const std::string& name, double num, double den,
           const char* unit, const char* zero_den_reason) {
  if (den > 0) {
    Metric(simulated, name, num / den, unit);
  } else {
    Absent(name, zero_den_reason);
  }
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<std::int64_t>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

// True when at least 10 samples lie beyond the p-th percentile.
bool Supported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0;
}

std::string PercentileName(double p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The median over `cycles` of each cycle's p-th percentile; absent unless
// there are at least three cycles and each supports p.
std::optional<double> CycleMedian(std::vector<std::vector<std::int64_t>> cycles,
                                  double p) {
  if (cycles.size() < 3) return std::nullopt;
  std::vector<double> per_cycle;
  for (std::vector<std::int64_t>& c : cycles) {
    if (!Supported(c.size(), p)) return std::nullopt;
    std::sort(c.begin(), c.end());
    per_cycle.push_back(Percentile(c, p));
  }
  return Median(std::move(per_cycle));
}

// Median, the named upper percentile, the highest percentile the sample
// supports beyond it, and the sample count. Samples are ns; `scale`
// converts to `unit`. When `cycles` splits the sample into repeats of one
// fault schedule, the upper percentile is the median of the cycles' own:
// each cycle's tail is decided by one leader crash, and the median keeps a
// single crash's outcome from deciding the run's.
void Timing(bool simulated, const std::string& name,
            std::vector<std::int64_t> samples, double upper, double scale,
            const char* unit,
            const std::vector<std::vector<std::int64_t>>& cycles = {}) {
  Metric(simulated, name + ".samples", static_cast<double>(samples.size()),
         "count");
  if (samples.empty()) {
    Absent(name + ".p50", "no samples");
    Absent(name + "." + PercentileName(upper), "no samples");
    return;
  }
  std::sort(samples.begin(), samples.end());
  Metric(simulated, name + ".p50", Percentile(samples, 50) / scale, unit);
  if (!Supported(samples.size(), upper)) {
    Absent(name + "." + PercentileName(upper),
           "fewer than 10 samples beyond it");
    return;
  }
  if (cycles.empty()) {
    Metric(simulated, name + "." + PercentileName(upper),
           Percentile(samples, upper) / scale, unit);
  } else if (const auto median = CycleMedian(cycles, upper)) {
    Metric(simulated, name + "." + PercentileName(upper), *median / scale,
           unit);
    Metric(simulated, name + ".cycles", static_cast<double>(cycles.size()),
           "count");
  } else {
    Absent(name + "." + PercentileName(upper),
           "fewer than 3 fault cycles, or one with fewer than 10 samples "
           "beyond it");
  }
  double tail = upper;
  for (double p : {99.9, 99.99, 99.999}) {
    if (p > tail && Supported(samples.size(), p)) tail = p;
  }
  if (tail > upper) {
    Metric(simulated, name + "." + PercentileName(tail),
           Percentile(samples, tail) / scale, unit);
  }
}

// --- counters read from the modules' public accessors -----------------------

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t zk_requests = 0;
  std::uint64_t zk_failovers = 0;
  std::uint64_t fuse_ops = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t lustre_ops = 0;
  std::uint64_t server_reads = 0;
  std::uint64_t server_writes = 0;
  std::uint64_t batch_rounds = 0;
  std::uint64_t proposals_batched = 0;
  core::MetaCache::Stats cache;
};

Counters ReadCounters(Testbed& tb) {
  Counters c;
  c.events = tb.sim().events_processed();
  for (std::size_t i = 0; i < tb.client_count(); ++i) {
    auto& node = tb.client(i);
    c.zk_requests += node.zk->requests_sent();
    c.zk_failovers += node.zk->failovers();
    c.fuse_ops += node.fuse->ops_dispatched();
    c.rpc_calls += node.endpoint->calls_sent();
    const auto& s = node.dufs->meta_cache().stats();
    c.cache.hits += s.hits;
    c.cache.misses += s.misses;
    c.cache.negative_hits += s.negative_hits;
    c.cache.expirations += s.expirations;
    c.cache.invalidations += s.invalidations;
    c.cache.evictions += s.evictions;
  }
  for (std::size_t id = 0; id < tb.net().size(); ++id) {
    const auto& node = tb.net().node(static_cast<dufs::net::NodeId>(id));
    c.msgs_sent += node.messages_sent;
    c.bytes_sent += node.bytes_sent;
  }
  c.msgs_dropped = tb.net().messages_dropped();
  for (std::size_t i = 0; tb.lustre(i) != nullptr; ++i) {
    c.lustre_ops += tb.lustre(i)->mds().ops_served();
  }
  for (std::size_t i = 0; i < tb.zk_server_count(); ++i) {
    c.server_reads += tb.zk_server(i).reads_served();
    c.server_writes += tb.zk_server(i).writes_committed();
    c.batch_rounds += tb.zk_server(i).batch_rounds();
    c.proposals_batched += tb.zk_server(i).proposals_batched();
  }
  return c;
}

// Histograms and gauge watermarks have no delta form, so the window starts
// them afresh; counters are differenced instead.
void ResetRegistryWindow(obs::MetricsRegistry& registry) {
  for (const auto& [node, scope] : registry.scopes()) {
    for (const auto& [key, cell] : scope->histograms()) {
      cell->hist = dufs::LatencyHistogram();
    }
    for (const auto& [key, cell] : scope->gauges()) {
      cell->max = cell->value;
      cell->min_seen = false;
    }
  }
}

// --- the timed run ----------------------------------------------------------

struct Run {
  const Plan* plan = nullptr;
  Testbed* tb = nullptr;
  std::string trace_out;
  bench::ObsOptions profile;

  // Warm-up done -> window opens -> every process done.
  std::unique_ptr<sim::Barrier> ready, go, done, phase;
  std::unique_ptr<bench::ProfileSession> profiler;
  bool restart_pending = false;

  sim::SimTime start = 0, end = 0;
  Clock::time_point host_start, host_end, host_mark;
  Counters before, after;
  obs::MetricsRegistry::Snapshot registry;

  // host_ns_per_op: completed ops are cut into windows of window_ops, and
  // sample i sums windows i, i + kHostSamples, i + 2 * kHostSamples, ...:
  // kHostRounds windows spread evenly over the run. Every sample so holds
  // the whole op mix (mdtest's phases differ tenfold in host cost per op)
  // and the whole run's share of the machine's bursty slow periods, which a
  // single contiguous window would either miss or sit inside.
  std::size_t window_ops = 1;
  std::uint64_t completed = 0;
  std::uint64_t windows_closed = 0;
  std::vector<std::int64_t> sample_ns, sample_ops;
  std::vector<std::int64_t> read_lat, write_lat;
  // Plan::cycle > 0: the same latencies split by the due time's cycle.
  std::vector<std::vector<std::int64_t>> cycle_read_lat, cycle_write_lat;
  sim::SimTime last_completion = 0;
  sim::Duration max_gap = 0;
  sim::Duration max_lateness = 0;

  std::uint64_t attempted = 0, failed = 0, writes = 0;
  std::uint64_t warmup_failed = 0;
  std::uint64_t spurious_exists = 0, spurious_not_found = 0, timeouts = 0;
  std::vector<std::string> failures;  // the first few, for the log

  void NoteFailure(const GenOp& op, StatusCode code, bool warmup) {
    if (failures.size() >= 8) return;
    failures.push_back(std::string(warmup ? "warmup " : "") +
                       OpKindName(op.kind) + " " + op.path + " -> " +
                       std::string(dufs::StatusCodeName(code)));
  }

  void BeginWindow() {
    start = last_completion = tb->sim().now();
    before = ReadCounters(*tb);
    ResetRegistryWindow(tb->obs().metrics());
    if (!trace_out.empty()) tb->obs().tracer().SetEnabled(true);
    if (profile.profile_enabled()) {
      profiler = std::make_unique<bench::ProfileSession>(profile);
    }
    host_start = host_mark = Clock::now();
  }

  void EndWindow() {
    host_end = Clock::now();
    if (profiler) profiler->Finish();
    tb->obs().tracer().SetEnabled(false);
    end = tb->sim().now();
    after = ReadCounters(*tb);
    registry = tb->obs().metrics().Merged();
  }

  void Complete(const GenOp& op, StatusCode code, sim::Duration latency,
                sim::Duration service) {
    const sim::SimTime now = tb->sim().now();
    max_gap = std::max(max_gap, now - last_completion);
    last_completion = now;
    ++attempted;
    (IsRead(op.kind) ? read_lat : write_lat).push_back(latency);
    if (plan->cycle > 0) {
      auto& by_cycle = IsRead(op.kind) ? cycle_read_lat : cycle_write_lat;
      const auto c = static_cast<std::size_t>(op.due / plan->cycle);
      if (by_cycle.size() <= c) by_cycle.resize(c + 1);
      by_cycle[c].push_back(latency);
    }
    if (!IsRead(op.kind)) ++writes;
    if (service >= zk::ZkClientConfig{}.request_timeout) ++timeouts;
    if (!Matches(op.expect, code)) {
      ++failed;
      NoteFailure(op, code, false);
      if (op.expect == Expect::kOk && code == StatusCode::kAlreadyExists &&
          (op.kind == OpKind::kCreate || op.kind == OpKind::kMkdir)) {
        ++spurious_exists;
      }
      if (op.expect == Expect::kOk && code == StatusCode::kNotFound &&
          (op.kind == OpKind::kUnlink || op.kind == OpKind::kRmdir)) {
        ++spurious_not_found;
      }
    }
    if (++completed % window_ops == 0) {
      const Clock::time_point t = Clock::now();
      const std::size_t sample = windows_closed++ % kHostSamples;
      sample_ns[sample] += NsBetween(host_mark, t);
      sample_ops[sample] += static_cast<std::int64_t>(window_ops);
      host_mark = t;
      if (!trace_out.empty()) {
        tb->obs().tracer().SetEnabled(windows_closed % kTraceEvery == 0);
      }
    }
  }

  static bool Matches(Expect expect, StatusCode code) {
    switch (expect) {
      case Expect::kOk: return code == StatusCode::kOk;
      case Expect::kNotFound: return code == StatusCode::kNotFound;
      case Expect::kOkOrNotFound:
        return code == StatusCode::kOk || code == StatusCode::kNotFound;
    }
    return false;
  }
};

sim::Task<StatusCode> Execute(dufs::vfs::FuseMount* mount, const GenOp* op) {
  switch (op->kind) {
    case OpKind::kStat: co_return (co_await mount->Stat(op->path)).code();
    case OpKind::kReadDir: co_return (co_await mount->ReadDir(op->path)).code();
    case OpKind::kMkdir: co_return (co_await mount->Mkdir(op->path)).code();
    case OpKind::kRmdir: co_return (co_await mount->Rmdir(op->path)).code();
    case OpKind::kCreate: co_return (co_await mount->Mknod(op->path)).code();
    case OpKind::kUnlink: co_return (co_await mount->Unlink(op->path)).code();
    case OpKind::kRename:
      co_return (co_await mount->Rename(op->path, op->to)).code();
  }
  co_return StatusCode::kInternal;
}

sim::Task<void> RunProc(Run* run, std::size_t p) {
  const Plan& plan = *run->plan;
  const Proc& proc = plan.procs[p];
  dufs::vfs::FuseMount* mount = run->tb->client(proc.node).fuse.get();
  sim::Simulation& s = run->tb->sim();
  const std::size_t warmup = std::min(plan.warmup, proc.ops.size());
  for (std::size_t i = 0; i < warmup; ++i) {
    const StatusCode code = co_await Execute(mount, &proc.ops[i]);
    if (!Run::Matches(proc.ops[i].expect, code)) {
      ++run->warmup_failed;
      run->NoteFailure(proc.ops[i], code, true);
    }
  }
  co_await run->ready->Arrive();
  co_await run->go->Arrive();
  for (std::size_t i = warmup; i < proc.ops.size(); ++i) {
    const GenOp& op = proc.ops[i];
    // Open loop: latency runs from when the op was due, so a stall also
    // charges the ops queued behind it.
    sim::SimTime due = s.now();
    if (plan.open_loop) {
      due = run->start + op.due;
      if (s.now() < due) {
        co_await s.Delay(due - s.now());
      } else {
        run->max_lateness = std::max(run->max_lateness, s.now() - due);
      }
    }
    const sim::SimTime issued = s.now();
    const StatusCode code = co_await Execute(mount, &op);
    run->Complete(op, code, s.now() - due, s.now() - issued);
    const std::size_t done = i + 1 - warmup;
    if (plan.phase_len > 0 && done % plan.phase_len == 0 &&
        i + 1 < proc.ops.size()) {
      co_await run->phase->Arrive();
    }
  }
  co_await run->done->Arrive();
}

sim::Task<void> CrashLeader(Run* run, sim::Duration down) {
  Testbed& tb = *run->tb;
  std::size_t leader = tb.zk_server_count();
  for (std::size_t i = 0; i < tb.zk_server_count(); ++i) {
    if (tb.net().node(tb.zk_nodes()[i]).up() && tb.zk_server(i).is_leader()) {
      leader = i;
    }
  }
  if (leader == tb.zk_server_count()) co_return;  // mid-election: no leader
  run->restart_pending = true;
  const auto snapshot = tb.zk_server(leader).TakeSnapshot();
  tb.net().node(tb.zk_nodes()[leader]).Crash();
  co_await tb.sim().Delay(down);
  tb.net().node(tb.zk_nodes()[leader]).Restart();
  DUFS_CHECK(tb.zk_server(leader).RestoreSnapshot(snapshot).ok());
  tb.zk_server(leader).OnRestart();
  run->restart_pending = false;
}

sim::Task<void> InjectFaults(Run* run) {
  Testbed& tb = *run->tb;
  sim::Simulation& s = tb.sim();
  for (const Fault& f : run->plan->faults) {
    const sim::SimTime at = run->start + f.at;
    if (s.now() < at) co_await s.Delay(at - s.now());
    if (f.kind == Fault::Kind::kLeaderCrash) {
      s.Spawn(CrashLeader(run, f.length));
      continue;
    }
    // Client i's session server is zk i (ZkClientConfig::attach_index).
    const dufs::net::NodeId client = tb.client(f.client).node;
    const dufs::net::NodeId server =
        tb.zk_nodes()[f.client % tb.zk_server_count()];
    tb.net().Partition(client, server);
    s.ScheduleFn(f.length,
                 [&tb, client, server] { tb.net().Heal(client, server); });
  }
}

sim::Task<void> Drive(Run* run) {
  sim::Simulation& s = run->tb->sim();
  for (std::size_t p = 0; p < run->plan->procs.size(); ++p) {
    s.Spawn(RunProc(run, p));
  }
  co_await run->ready->Arrive();
  run->BeginWindow();
  if (!run->plan->faults.empty()) s.Spawn(InjectFaults(run));
  co_await run->go->Arrive();
  co_await run->done->Arrive();
  run->EndWindow();
}

// --- set-up ----------------------------------------------------------------

std::size_t Depth(const std::string& path) {
  return static_cast<std::size_t>(std::count(path.begin(), path.end(), '/'));
}

sim::Task<void> CreateSlice(Testbed* tb, const std::vector<std::string>* paths,
                            bool files, std::size_t first, std::size_t stride,
                            std::size_t* failures) {
  dufs::vfs::FuseMount* mount =
      tb->client(first % tb->client_count()).fuse.get();
  for (std::size_t i = first; i < paths->size(); i += stride) {
    // if/else, not ?: — GCC mis-destroys temporaries of co_await operands
    // of the conditional operator.
    dufs::Status st;
    if (files) {
      st = co_await mount->Mknod((*paths)[i]);
    } else {
      st = co_await mount->Mkdir((*paths)[i]);
    }
    if (!st.ok()) ++*failures;
  }
}

// Pre-creates the plan's namespace through the mounts, 64 creators at a
// time, one directory level after another.
sim::Task<void> CreateNamespace(Testbed* tb, const Plan* plan,
                                std::size_t* failures) {
  constexpr std::size_t kCreators = 64;
  std::vector<std::vector<std::string>> levels;
  for (const std::string& dir : plan->dirs) {
    const std::size_t d = Depth(dir);
    if (levels.size() < d) levels.resize(d);
    levels[d - 1].push_back(dir);
  }
  levels.push_back(plan->files);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const bool files = l + 1 == levels.size();
    std::vector<sim::Task<void>> slices;
    for (std::size_t c = 0; c < kCreators && c < levels[l].size(); ++c) {
      slices.push_back(
          CreateSlice(tb, &levels[l], files, c, kCreators, failures));
    }
    co_await sim::WhenAll(std::move(slices));
  }
}

// --- correctness checks ----------------------------------------------------

struct Checks {
  bool replicas_agree = true;
  std::size_t live_replicas = 0;
  bool fsck_ran = false;
  core::FsckReport fsck;
};

sim::Task<void> RunFsck(Testbed* tb, Checks* out) {
  std::vector<dufs::vfs::FileSystem*> backends;
  for (auto& mount : tb->client(0).backend_mounts) {
    backends.push_back(mount.get());
  }
  core::DufsFsck fsck(*tb->client(0).dufs, *tb->client(0).zk,
                      std::move(backends));
  auto report = co_await fsck.Check();
  if (report.ok()) {
    out->fsck_ran = true;
    out->fsck = std::move(*report);
  }
}

Checks CheckCluster(Run& run) {
  Testbed& tb = *run.tb;
  tb.net().HealAll();
  // Let a pending restart, follower catch-up and in-flight commits finish.
  while (run.restart_pending) tb.sim().Run(tb.sim().now() + sim::Ms(100));
  tb.sim().Run(tb.sim().now() + sim::Sec(2));
  Checks checks;
  bool first = true;
  std::uint64_t fingerprint = 0;
  for (std::size_t i = 0; i < tb.zk_server_count(); ++i) {
    if (!tb.net().node(tb.zk_nodes()[i]).up()) continue;
    ++checks.live_replicas;
    const std::uint64_t fp = tb.zk_server(i).db().Fingerprint();
    if (!first && fp != fingerprint) checks.replicas_agree = false;
    fingerprint = fp;
    first = false;
  }
  sim::RunTask(tb.sim(), RunFsck(&tb, &checks));
  return checks;
}

// --- per-layer replays (host time of single layers, --layers) ----------------

std::string Znode(const std::string& path) { return kMetaPrefix + path; }

std::string Parent(const std::string& path) {
  return path.substr(0, std::max<std::size_t>(1, path.rfind('/')));
}

// The ops of the given processes, interleaved round-robin (the order
// concurrent processes reach a shared layer), capped at kReplayOps.
std::vector<const GenOp*> Interleave(const Plan& plan,
                                     const std::vector<std::size_t>& procs) {
  std::vector<const GenOp*> out;
  for (std::size_t i = 0; out.size() < kReplayOps; ++i) {
    bool any = false;
    for (std::size_t p : procs) {
      if (i < plan.procs[p].ops.size() && out.size() < kReplayOps) {
        out.push_back(&plan.procs[p].ops[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

std::vector<std::size_t> ProcsOn(const Plan& plan, bool node0_only) {
  std::vector<std::size_t> procs;
  for (std::size_t p = 0; p < plan.procs.size(); ++p) {
    if (!node0_only || plan.procs[p].node == 0) procs.push_back(p);
  }
  return procs;
}

std::vector<std::uint8_t> DirRecord() {
  return core::MetaRecord::Dir(dufs::vfs::kDefaultDirMode).Encode();
}

std::vector<std::uint8_t> FileRecord(std::uint64_t n) {
  return core::MetaRecord::File(dufs::Fid{1, n}, dufs::vfs::kDefaultFileMode)
      .Encode();
}

// The coordination-service request the DUFS client sends for an op on a
// cache miss (DufsClient, compound ops on). Rename is a client-side multi
// of several requests and is left out.
bool RequestFor(const GenOp& op, std::uint64_t n, zk::Op* out) {
  const std::string z = Znode(op.path);
  switch (op.kind) {
    case OpKind::kStat:
      *out = zk::Op::ResolvePath(z, true, kDirTag);
      return true;
    case OpKind::kReadDir:
      *out = zk::Op::ReadDirPlus(z, true, kDirTag);
      return true;
    case OpKind::kMkdir: *out = zk::Op::Create(z, DirRecord()); return true;
    case OpKind::kRmdir: *out = zk::Op::Delete(z); return true;
    case OpKind::kCreate:
      *out = zk::Op::ResolveCreate(z, FileRecord(n),
                                   zk::CreateMode::kPersistent, kDirTag, true);
      return true;
    case OpKind::kUnlink:
      *out = zk::Op::ResolveDelete(z, zk::kAnyVersion, kDirTag, true);
      return true;
    case OpKind::kRename: return false;
  }
  return false;
}

// One sample per batch of kBatch consecutive calls of a layer: a single
// call takes tens of ns, near the clock's resolution. Samples hold the
// batch's ns; report them with scale kBatch for ns per call.
constexpr std::size_t kBatch = 16;

template <typename Fn>
void TimeBatch(std::vector<std::int64_t>* samples, Fn&& batch) {
  const Clock::time_point t0 = Clock::now();
  batch();
  samples->push_back(NsBetween(t0, Clock::now()));
}

struct DbReplay {
  double heap_bytes_per_znode = 0;
  double model_bytes_per_znode = 0;
  std::vector<std::int64_t> apply_ns, read_ns;  // per kBatch calls
};

std::size_t HeapInUse() { return mallinfo2().uordblks; }

// Populates a standalone Database with the workload's namespace (its heap
// growth per znode), then replays the workload's requests into it: writes
// in stream order, reads batched up to kBatch behind them.
DbReplay ReplayDatabase(const Plan& plan) {
  DbReplay out;
  const std::size_t heap_before = HeapInUse();
  auto db = std::make_unique<zk::Database>();
  zk::Zxid zxid = 0;
  auto apply = [&](zk::Op op) {
    zk::Txn txn;
    txn.session = 1;
    txn.time = static_cast<std::int64_t>(zxid);
    txn.op = std::move(op);
    db->Apply(txn, ++zxid, txn.time);
  };
  zk::Op session;
  session.type = zk::OpType::kCreateSession;
  apply(session);
  const std::size_t nodes_before = db->tree().node_count();
  apply(zk::Op::Create("/dufs", DirRecord()));
  apply(zk::Op::Create(kMetaPrefix, DirRecord()));
  for (const std::string& d : plan.dirs) {
    apply(zk::Op::Create(Znode(d), DirRecord()));
  }
  std::uint64_t n = 0;
  for (const std::string& f : plan.files) {
    apply(zk::Op::Create(Znode(f), FileRecord(++n)));
  }
  const double znodes =
      static_cast<double>(db->tree().node_count() - nodes_before);
  out.heap_bytes_per_znode =
      static_cast<double>(HeapInUse() - heap_before) / znodes;
  out.model_bytes_per_znode =
      static_cast<double>(db->EstimateMemoryBytes()) / db->tree().node_count();

  std::vector<zk::Op> writes, reads;
  std::size_t misses = 0;  // keeps the reads observable
  for (const GenOp* op : Interleave(plan, ProcsOn(plan, false))) {
    zk::Op request;
    if (!RequestFor(*op, ++n, &request)) continue;
    std::vector<zk::Op>& pending = zk::IsWrite(request.type) ? writes : reads;
    pending.push_back(std::move(request));
    if (writes.size() == kBatch) {
      TimeBatch(&out.apply_ns, [&] {
        for (zk::Op& w : writes) apply(std::move(w));
      });
      writes.clear();
    }
    if (reads.size() == kBatch) {
      TimeBatch(&out.read_ns, [&] {
        for (const zk::Op& r : reads) misses += db->Read(r).ok() ? 0 : 1;
      });
      reads.clear();
    }
  }
  std::printf("replay db ops=%llu read_misses=%zu\n",
              static_cast<unsigned long long>(n), misses);
  return out;
}

struct CacheReplay {
  std::vector<std::int64_t> lookup_ns;             // per kBatch lookups
  std::vector<std::int64_t> invalidate_subtree_ns;  // per call
};

// Node 0's lookup/put/invalidate stream, as DufsClient drives its cache,
// replayed into a standalone MetaCache with the default configuration.
// Lookups run in batches of kBatch; the fills and invalidations of the ops
// in between follow each batch, in stream order.
CacheReplay ReplayCache(const Plan& plan) {
  CacheReplay out;
  sim::Simulation clock(1);  // now() stays 0: TTLs never lapse in a replay
  core::MetaCache cache(clock);
  const core::MetaRecord dir =
      core::MetaRecord::Dir(dufs::vfs::kDefaultDirMode);
  auto invalidate_subtree = [&](const std::string& z) {
    TimeBatch(&out.invalidate_subtree_ns, [&] { cache.InvalidateSubtree(z); });
  };
  std::vector<const GenOp*> pending;
  std::vector<bool> hit;
  std::size_t lookups = 0;
  std::vector<std::string> keys;
  auto flush = [&] {
    hit.assign(pending.size(), false);
    keys.clear();
    for (const GenOp* op : pending) keys.push_back(Znode(op->path));
    TimeBatch(&out.lookup_ns, [&] {
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (IsRead(pending[i]->kind)) hit[i] = cache.Lookup(keys[i]) != nullptr;
      }
    });
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const GenOp& op = *pending[i];
      const std::string& z = keys[i];
      const std::string parent = Znode(Parent(op.path));
      switch (op.kind) {
        case OpKind::kStat:
        case OpKind::kReadDir:
          if (hit[i]) break;
          if (op.expect == Expect::kNotFound) {
            cache.PutNegative(z);
          } else {
            cache.PutPositive(z, dir, zk::ZnodeStat{});
          }
          break;
        case OpKind::kMkdir:
        case OpKind::kCreate:
          cache.PutPositive(z, dir, zk::ZnodeStat{});
          cache.Invalidate(parent);
          break;
        case OpKind::kUnlink:
          cache.Invalidate(z);
          cache.Invalidate(parent);
          break;
        case OpKind::kRmdir:
          invalidate_subtree(z);
          cache.Invalidate(parent);
          break;
        case OpKind::kRename:
          invalidate_subtree(z);
          invalidate_subtree(Znode(op.to));
          cache.Invalidate(parent);
          break;
      }
    }
    pending.clear();
    lookups = 0;
  };
  for (const GenOp* op : Interleave(plan, ProcsOn(plan, true))) {
    pending.push_back(op);
    if (IsRead(op->kind) && ++lookups == kBatch) flush();
  }
  return out;
}

struct WireReplay {
  std::vector<std::int64_t> encode_ns, decode_ns;  // per kBatch calls
};

// Encode/Decode of the workload's client requests and of the replicated Txn
// the leader builds from each write, kBatch messages of a kind at a time.
WireReplay ReplayWire(const Plan& plan) {
  WireReplay out;
  std::vector<zk::ClientRequest> requests;
  std::vector<zk::Txn> txns;
  std::vector<std::vector<std::uint8_t>> bytes(kBatch);
  std::vector<dufs::wire::BufferWriter> writers(kBatch);
  std::size_t bad = 0;
  std::uint64_t n = 0;
  for (const GenOp* op : Interleave(plan, ProcsOn(plan, false))) {
    zk::ClientRequest req;
    req.session = 1;
    if (!RequestFor(*op, ++n, &req.op)) continue;
    if (zk::IsWrite(req.op.type)) {
      zk::Txn txn;
      txn.session = req.session;
      txn.time = static_cast<std::int64_t>(n);
      txn.op = req.op;
      txns.push_back(std::move(txn));
    }
    requests.push_back(std::move(req));
    if (requests.size() == kBatch) {
      TimeBatch(&out.encode_ns, [&] {
        for (std::size_t i = 0; i < kBatch; ++i) {
          bytes[i] = requests[i].Encode();
        }
      });
      TimeBatch(&out.decode_ns, [&] {
        for (const auto& b : bytes) {
          bad += zk::ClientRequest::Decode(b).ok() ? 0 : 1;
        }
      });
      requests.clear();
    }
    if (txns.size() == kBatch) {
      TimeBatch(&out.encode_ns, [&] {
        for (std::size_t i = 0; i < kBatch; ++i) {
          writers[i] = dufs::wire::BufferWriter();
          txns[i].Encode(writers[i]);
        }
      });
      TimeBatch(&out.decode_ns, [&] {
        for (const auto& w : writers) {
          dufs::wire::BufferReader r(w.data());
          bad += zk::Txn::Decode(r).ok() ? 0 : 1;
        }
      });
      txns.clear();
    }
  }
  if (bad > 0) std::printf("replay wire: %zu messages failed to decode\n", bad);
  return out;
}

// --- report ----------------------------------------------------------------

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

void ReportEndToEnd(const Run& run, const std::vector<double>& setup_s) {
  const double sim_s = static_cast<double>(run.end - run.start) / 1e9;
  Metric(true, "ops", static_cast<double>(run.attempted), "count");
  Ratio(true, "sim_ops_per_s", static_cast<double>(run.attempted), sim_s,
        "ops/s", "zero simulated seconds in the window");
  Timing(true, "sim_lat_us.read", run.read_lat, 99, 1e3, "us",
         run.cycle_read_lat);
  Timing(true, "sim_lat_us.write", run.write_lat, 99, 1e3, "us",
         run.cycle_write_lat);
  Ratio(true, "op_fail_ratio", static_cast<double>(run.failed),
        static_cast<double>(run.attempted), "ratio", "no ops attempted");
  if (run.plan->open_loop) {
    Metric(true, "sim_unavail_ms", static_cast<double>(run.max_gap) / 1e6,
           "ms");
  }
  std::vector<std::int64_t> host_ps_per_op;
  for (std::size_t i = 0; i < kHostSamples; ++i) {
    if (run.sample_ops[i] > 0) {
      host_ps_per_op.push_back(run.sample_ns[i] * 1000 / run.sample_ops[i]);
    }
  }
  Timing(false, "host_ns_per_op", std::move(host_ps_per_op), 90, 1e3, "ns");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Metric(false, "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB");
  Metric(false, "setup_s", Median(setup_s), "s");
  Metric(false, "setup_s.samples", static_cast<double>(setup_s.size()),
         "count");
}

void ReportLayers(const Run& run) {
  const Counters& a = run.before;
  const Counters& b = run.after;
  const double ops = static_cast<double>(run.attempted);
  const double writes = static_cast<double>(run.writes);
  const char* no_ops = "no ops in the window";
  auto per_op = [&](const std::string& name, std::uint64_t hi, std::uint64_t lo,
                    const char* unit) {
    Ratio(true, name, static_cast<double>(hi - lo), ops, unit, no_ops);
  };
  auto hist = [&](const std::string& key) -> const dufs::LatencyHistogram* {
    const auto it = run.registry.histograms.find(key);
    return it == run.registry.histograms.end() || it->second.count() == 0
               ? nullptr
               : &it->second;
  };
  // Registry percentiles are bucket upper bounds (LatencyHistogram).
  auto hist_us = [&](const std::string& name, const std::string& key,
                     double p) {
    if (const auto* h = hist(key)) {
      Metric(true, name, Us(h->Percentile(p)), "us");
    } else {
      Absent(name, "no samples in the window");
    }
  };
  auto gauge_max = [&](const std::string& name, const std::string& key) {
    const auto it = run.registry.gauge_maxes.find(key);
    if (it == run.registry.gauge_maxes.end()) {
      Absent(name, "gauge not registered");
    } else {
      Metric(true, name, static_cast<double>(it->second), "count");
    }
  };

  // sim
  per_op("sim.events_per_op", b.events, a.events, "events/op");
  Ratio(false, "sim.host_ns_per_event",
        static_cast<double>(NsBetween(run.host_start, run.host_end)),
        static_cast<double>(b.events - a.events), "ns", "no events");
  // mdtest (the generator)
  if (run.plan->open_loop) {
    Metric(true, "mdtest.gen_lateness_us.max", Us(run.max_lateness), "us");
  } else {
    Absent("mdtest.gen_lateness_us.max",
           "closed loop: ops are issued on reply");
  }
  // vfs
  Metric(true, "vfs.ops_dispatched",
         static_cast<double>(b.fuse_ops - a.fuse_ops), "count");
  // core
  per_op("core.zk_req_per_op", b.zk_requests, a.zk_requests, "req/op");
  const std::uint64_t hits = b.cache.hits - a.cache.hits;
  const std::uint64_t probes = hits + b.cache.misses - a.cache.misses;
  Ratio(true, "core.cache.hit_ratio", static_cast<double>(hits),
        static_cast<double>(probes), "ratio", "no cache probes");
  Metric(true, "core.cache.negative_hits",
         static_cast<double>(b.cache.negative_hits - a.cache.negative_hits),
         "count");
  Metric(true, "core.cache.expirations",
         static_cast<double>(b.cache.expirations - a.cache.expirations),
         "count");
  per_op("core.cache.evictions_per_op", b.cache.evictions, a.cache.evictions,
         "evictions/op");
  Ratio(true, "core.cache.invalidations_per_write",
        static_cast<double>(b.cache.invalidations - a.cache.invalidations),
        writes, "inval/write", "no writes in the window");
  // zk
  per_op("zk.server.writes_per_op", b.server_writes, a.server_writes, "txn/op");
  per_op("zk.server.reads_per_op", b.server_reads, a.server_reads, "reads/op");
  Ratio(true, "zk.server.proposals_per_round",
        static_cast<double>(b.proposals_batched - a.proposals_batched),
        static_cast<double>(b.batch_rounds - a.batch_rounds), "txn/round",
        "no group-commit rounds (group commit is off)");
  hist_us("zk.rpc_us.p50", "zk.rpc_ns", 50);
  hist_us("zk.rpc_us.p99", "zk.rpc_ns", 99);
  gauge_max("zk.write_queue.max", "zk.write_queue");
  gauge_max("zk.read_queue.max", "zk.read_queue");
  if (const auto* h = hist("zk.resolve_depth")) {
    Metric(true, "zk.resolve_depth.mean",
           static_cast<double>(h->sum()) / static_cast<double>(h->count()),
           "components");
  } else {
    Absent("zk.resolve_depth.mean", "no compound reads in the window");
  }
  Metric(true, "zk.client.failovers",
         static_cast<double>(b.zk_failovers - a.zk_failovers), "count");
  Metric(true, "zk.client.spurious_exists",
         static_cast<double>(run.spurious_exists), "count");
  Metric(true, "zk.client.spurious_not_found",
         static_cast<double>(run.spurious_not_found), "count");
  Metric(true, "zk.client.timeouts", static_cast<double>(run.timeouts),
         "count");
  // net
  per_op("net.msgs_per_op", b.msgs_sent, a.msgs_sent, "msgs/op");
  per_op("net.bytes_per_op", b.bytes_sent, a.bytes_sent, "B/op");
  per_op("net.rpc_calls_per_op", b.rpc_calls, a.rpc_calls, "calls/op");
  hist_us("net.nic_tx_wait_us.p99", "nic.tx_wait_ns", 99);
  Metric(true, "net.msgs_dropped",
         static_cast<double>(b.msgs_dropped - a.msgs_dropped), "count");
  // pfs
  per_op("pfs.lustre.ops_per_op", b.lustre_ops, a.lustre_ops, "ops/op");
  hist_us("pfs.lustre.mds_us.p50", "lustre.mds_ns", 50);
  hist_us("pfs.lustre.oss_us.p50", "lustre.oss_ns", 50);
}

void ReportReplays(const DbReplay& db, const CacheReplay& cache,
                   const WireReplay& wire) {
  Metric(false, "zk.db.heap_bytes_per_znode", db.heap_bytes_per_znode, "B");
  Metric(true, "zk.db.model_bytes_per_znode", db.model_bytes_per_znode, "B");
  // Batched samples: these percentiles are over batches of kBatch calls.
  Timing(false, "zk.db.apply_ns", db.apply_ns, 99, kBatch, "ns");
  Timing(false, "zk.db.read_ns", db.read_ns, 99, kBatch, "ns");
  Timing(false, "core.cache.lookup_ns", cache.lookup_ns, 99, kBatch, "ns");
  Timing(false, "core.cache.invalidate_subtree_ns", cache.invalidate_subtree_ns,
         99, 1, "ns");
  Timing(false, "wire.encode_ns", wire.encode_ns, 99, kBatch, "ns");
  Timing(false, "wire.decode_ns", wire.decode_ns, 99, kBatch, "ns");
}

int Main(int argc, char** argv) {
  const bench::Flags flags(
      argc, argv,
      "dufsbench --workload=NAME --seed=N --seconds=S [--layers] "
      "[--trace-out=PATH] [--profile-out=PATH]");
  const std::string workload = flags.Str("workload", "");
  const long seed = flags.Int("seed", 1);
  const long seconds = flags.Int("seconds", 10);
  Plan plan;
  if (seconds < 1 || seconds > 600 ||
      !MakePlan(workload, static_cast<std::uint64_t>(seed),
                static_cast<int>(seconds), &plan)) {
    std::fprintf(stderr, "dufsbench: need --workload=<");
    for (const auto& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " > and 1 <= --seconds <= 600\n");
    return 2;
  }
  const bool layers = flags.Bool("layers");
  std::printf("workload %s seed %ld seconds %ld\n", workload.c_str(), seed,
              seconds);

  // Heap growth per znode is measured first, on a heap no testbed has used.
  DbReplay db_replay;
  if (layers) db_replay = ReplayDatabase(plan);

  Run run;
  run.plan = &plan;
  run.trace_out = flags.Str("trace-out", "");
  run.profile.profile_path = flags.Str("profile-out", "");
  run.profile.profile_every = kProfileEvery;
  std::size_t timed_ops = 0;
  for (const Proc& proc : plan.procs) {
    timed_ops += proc.ops.size() - std::min(plan.warmup, proc.ops.size());
  }
  run.window_ops =
      std::max<std::size_t>(1, timed_ops / (kHostSamples * kHostRounds));
  run.sample_ns.assign(kHostSamples, 0);
  run.sample_ops.assign(kHostSamples, 0);

  dufs::mdtest::TestbedConfig config;
  config.seed = static_cast<std::uint64_t>(seed);
  config.client_nodes = plan.client_nodes;
  config.zk_failure_detection = plan.failure_detection;
  std::unique_ptr<Testbed> tb;
  std::vector<double> setup_s;
  std::size_t setup_failures = 0;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetupReps)) {
    tb.reset();
    const Clock::time_point t0 = Clock::now();
    tb = std::make_unique<Testbed>(config);
    tb->MountAll();
    sim::RunTask(tb->sim(), CreateNamespace(tb.get(), &plan, &setup_failures));
    setup_s.push_back(static_cast<double>(NsBetween(t0, Clock::now())) / 1e9);
    setup_total_s += setup_s.back();
  }
  run.tb = tb.get();
  const std::size_t procs = plan.procs.size();
  run.ready = std::make_unique<sim::Barrier>(tb->sim(), procs + 1);
  run.go = std::make_unique<sim::Barrier>(tb->sim(), procs + 1);
  run.done = std::make_unique<sim::Barrier>(tb->sim(), procs + 1);
  run.phase = std::make_unique<sim::Barrier>(tb->sim(), procs);
  sim::RunTask(tb->sim(), Drive(&run));

  if (!run.trace_out.empty() &&
      !tb->obs().tracer().WriteChromeJson(run.trace_out)) {
    std::fprintf(stderr, "dufsbench: cannot write %s\n", run.trace_out.c_str());
    return 1;
  }
  const bool profile_ok = run.profiler == nullptr || run.profiler->ok();

  ReportEndToEnd(run, setup_s);
  ReportLayers(run);
  if (layers) ReportReplays(db_replay, ReplayCache(plan), ReplayWire(plan));

  const Checks checks = CheckCluster(run);
  const std::size_t fsck_issues = checks.fsck.dangling.size() +
                                  checks.fsck.orphans.size() +
                                  checks.fsck.corrupt_records.size();
  Metric(true, "check.live_replicas", static_cast<double>(checks.live_replicas),
         "count");
  Metric(true, "check.fsck_issues", static_cast<double>(fsck_issues), "count");
  for (const std::string& f : run.failures) {
    std::printf("mismatch %s\n", f.c_str());
  }

  // Under faults, the known blind-retry defect (ROADMAP item 1) returns
  // wrong statuses, and each such op can leave one dangling znode or
  // orphaned file behind; fsck findings beyond that are a violation. A
  // fault-free workload must match every expectation and fsck clean.
  const bool faults = !plan.faults.empty();
  bool correct = checks.replicas_agree && checks.fsck_ran &&
                 checks.fsck.corrupt_records.empty() && setup_failures == 0 &&
                 profile_ok;
  if (faults) {
    correct = correct && fsck_issues <= run.failed + run.warmup_failed;
  } else {
    correct = correct && fsck_issues == 0 && run.failed == 0 &&
              run.warmup_failed == 0;
  }
  std::printf("check replicas_agree=%d fsck_ran=%d fsck_issues=%zu "
              "setup_failures=%zu warmup_failed=%llu\n",
              checks.replicas_agree ? 1 : 0, checks.fsck_ran ? 1 : 0,
              fsck_issues, setup_failures,
              static_cast<unsigned long long>(run.warmup_failed));
  std::printf("result correct=%d attempted=%llu failed=%llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dufsbench

int main(int argc, char** argv) { return dufsbench::Main(argc, argv); }
