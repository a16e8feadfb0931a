// Micro-benchmarks for the hot paths everything else is built on, in two
// modes:
//
//  * default: the google-benchmark suite (MD5, wire codec, znode tree,
//    event queue, FID codec) — comparative micro numbers.
//  * --selfbench: the wall-clock engine self-bench. Drives the
//    discrete-event core (timing wheel + arena) through three phases —
//    timer churn, coroutine delay loops, spawn/teardown — and reports
//    events/sec and spawns/sec. `--baseline` writes the headline JSON that
//    rides the tracestats --compare perf gate (bench/baselines/
//    BENCH_micro_core.json); `--metrics-json` writes only *deterministic*
//    values (event counts, final sim clocks) so the determinism gate can
//    byte-compare two runs; `--audit-check` fails the process if the
//    DUFS_AUDIT registry is not clean after the phases (proof the arena
//    does not break frame-leak detection).
#include <benchmark/benchmark.h>

#include <chrono>  // dufs-lint: allow(sim-time-source) wall-clock self-bench measures real time by definition
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/md5.h"
#include "obs/prof.h"
#include "core/physical_path.h"
#include "sim/audit.h"
#include "sim/task.h"
#include "wire/buffer.h"
#include "zk/database.h"

namespace dufs {
namespace {

// ---------------------------------------------------------------------------
// Engine self-bench (--selfbench)
// ---------------------------------------------------------------------------

double WallSeconds() {
  using clock = std::chrono::steady_clock;  // dufs-lint: allow(sim-time-source) self-bench wall timer, never feeds sim state
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Phase 1: timer churn. `timers` self-rescheduling callbacks are kept in
// flight until `budget` events have been scheduled, with delays drawn from
// the sim Rng across every wheel level (1ns .. ~1ms, and 1/64 of them
// 1s..90s to exercise the far-future overflow path and wheel reload).
struct ChurnState {
  sim::Simulation* sim = nullptr;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
};

sim::Duration ChurnDelay(sim::Simulation& sim) {
  const std::uint64_t r = sim.rng().NextBelow(64);
  if (r == 0) {
    // Far future: beyond the wheel span, lands in the overflow level.
    return sim::Sec(1) + static_cast<sim::Duration>(
                             sim.rng().NextBelow(89) * sim::kSecond);
  }
  // 1ns .. ~1ms spread across all wheel levels.
  return 1 + static_cast<sim::Duration>(sim.rng().NextBelow(sim::Ms(1)));
}

void ChurnArm(ChurnState* st) {
  ++st->scheduled;
  st->sim->ScheduleFn(ChurnDelay(*st->sim), [st] {
    ++st->fired;
    if (st->scheduled < st->budget) ChurnArm(st);
  });
}

// Phase 2: coroutine delay loops — `procs` detached actors each awaiting
// `rounds` delays, like client processes pacing requests.
sim::Task<void> DelayLoop(sim::Simulation* sim, long rounds,
                          std::uint64_t salt) {
  for (long i = 0; i < rounds; ++i) {
    co_await sim->Delay(1 + static_cast<sim::Duration>(
                                (salt + static_cast<std::uint64_t>(i) * 31) %
                                977));
  }
}

// Phase 3: spawn/teardown churn — frames that complete at first resume,
// measuring coroutine frame allocation + registry cost.
sim::Task<void> NoopTask() { co_return; }

struct PhaseResult {
  std::uint64_t items = 0;      // events or spawns
  double best_seconds = 0;      // min over reps
  std::uint64_t end_ns = 0;     // final sim clock (deterministic)
  std::uint64_t events = 0;     // engine events processed (deterministic)
};

PhaseResult RunChurn(std::uint64_t seed, std::uint64_t budget, long timers) {
  prof::ProfScope phase_scope("selfbench.churn", prof::FrameKind::kComponent);
  PhaseResult out;
  out.best_seconds = 1e100;
  sim::Simulation sim(seed);
  ChurnState st;
  st.sim = &sim;
  st.budget = budget;
  for (long i = 0; i < timers && st.scheduled < st.budget; ++i) ChurnArm(&st);
  const double t0 = WallSeconds();
  const std::uint64_t processed = sim.Run();
  const double dt = WallSeconds() - t0;
  out.best_seconds = dt;
  out.items = st.fired;
  out.events = processed;
  out.end_ns = static_cast<std::uint64_t>(sim.now());
  return out;
}

PhaseResult RunCoro(std::uint64_t seed, long procs, long rounds) {
  prof::ProfScope phase_scope("selfbench.coro", prof::FrameKind::kComponent);
  PhaseResult out;
  sim::Simulation sim(seed);
  {
    sim::CurrentSimulationScope scope(&sim);
    for (long p = 0; p < procs; ++p) {
      sim.Spawn(DelayLoop(&sim, rounds,
                          static_cast<std::uint64_t>(p) * 1099511628211ull));
    }
  }
  const double t0 = WallSeconds();
  const std::uint64_t processed = sim.Run();
  out.best_seconds = WallSeconds() - t0;
  out.items = static_cast<std::uint64_t>(procs) *
              static_cast<std::uint64_t>(rounds);
  out.events = processed;
  out.end_ns = static_cast<std::uint64_t>(sim.now());
  return out;
}

PhaseResult RunSpawn(std::uint64_t seed, std::uint64_t spawns) {
  prof::ProfScope phase_scope("selfbench.spawn", prof::FrameKind::kComponent);
  PhaseResult out;
  sim::Simulation sim(seed);
  const double t0 = WallSeconds();
  {
    sim::CurrentSimulationScope scope(&sim);
    for (std::uint64_t i = 0; i < spawns; ++i) sim.Spawn(NoopTask());
  }
  out.best_seconds = WallSeconds() - t0;
  out.items = spawns;
  out.events = sim.events_processed();
  out.end_ns = static_cast<std::uint64_t>(sim.now());
  return out;
}

// Repeat `reps` times, keep the fastest wall time (the deterministic fields
// are identical across reps by construction — same seed, same engine).
template <typename Fn>
PhaseResult Best(long reps, Fn run) {
  PhaseResult best = run();
  for (long r = 1; r < reps; ++r) {
    PhaseResult next = run();
    if (next.best_seconds < best.best_seconds) best.best_seconds =
        next.best_seconds;
  }
  return best;
}

int SelfBenchMain(int argc, char** argv) {
  // Constructed before the phases so the profiler covers them.
  bench::Harness h(argc, argv, "micro_core",
                   "--selfbench [--seed=N] [--reps=N] [--churn-events=N] "
                   "[--churn-timers=N] [--coro-procs=N] [--coro-rounds=N] "
                   "[--spawns=N] [--audit-check]");
  const bench::Flags& flags = h.flags();
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const long reps = flags.Int("reps", 3);
  const auto churn_events =
      static_cast<std::uint64_t>(flags.Int("churn-events", 2'000'000));
  const long churn_timers = flags.Int("churn-timers", 1024);
  const long coro_procs = flags.Int("coro-procs", 256);
  const long coro_rounds = flags.Int("coro-rounds", 2000);
  const auto spawns = static_cast<std::uint64_t>(flags.Int("spawns", 500'000));

  sim::audit::Reset();

  const PhaseResult churn = Best(reps, [seed, churn_events, churn_timers] {
    return RunChurn(seed, churn_events, churn_timers);
  });
  const PhaseResult coro = Best(reps, [seed, coro_procs, coro_rounds] {
    return RunCoro(seed, coro_procs, coro_rounds);
  });
  const PhaseResult spawn = Best(reps, [seed, spawns] {
    return RunSpawn(seed, spawns);
  });

  const double churn_eps =
      static_cast<double>(churn.events) / churn.best_seconds;
  const double coro_eps = static_cast<double>(coro.events) / coro.best_seconds;
  const double spawn_ps =
      static_cast<double>(spawn.items) / spawn.best_seconds;

  std::printf("%-16s %14s %14s %12s %16s\n", "phase", "items", "events",
              "best-ms", "rate/s");
  std::printf("%-16s %14llu %14llu %12.2f %16.0f\n", "timer_churn",
              static_cast<unsigned long long>(churn.items),
              static_cast<unsigned long long>(churn.events),
              churn.best_seconds * 1e3, churn_eps);
  std::printf("%-16s %14llu %14llu %12.2f %16.0f\n", "coro_delay",
              static_cast<unsigned long long>(coro.items),
              static_cast<unsigned long long>(coro.events),
              coro.best_seconds * 1e3, coro_eps);
  std::printf("%-16s %14llu %14llu %12.2f %16.0f\n", "spawn",
              static_cast<unsigned long long>(spawn.items),
              static_cast<unsigned long long>(spawn.events),
              spawn.best_seconds * 1e3, spawn_ps);

  bench::BaselineWriter& baseline = h.baseline();
  baseline.AddHigherBetter("engine.timer_churn.events_per_s", churn_eps);
  baseline.AddHigherBetter("engine.coro_delay.events_per_s", coro_eps);
  baseline.AddHigherBetter("engine.spawn.spawns_per_s", spawn_ps);
  // Deterministic values only: two identically-seeded runs must produce a
  // byte-identical file (the determinism gate compares it), so wall-clock
  // rates stay out.
  bench::MetricsJsonWriter& metrics = h.metrics();
  metrics.AddValue("timer_churn.events", static_cast<double>(churn.events));
  metrics.AddValue("timer_churn.fired", static_cast<double>(churn.items));
  metrics.AddValue("timer_churn.end_ns", static_cast<double>(churn.end_ns));
  metrics.AddValue("coro_delay.events", static_cast<double>(coro.events));
  metrics.AddValue("coro_delay.end_ns", static_cast<double>(coro.end_ns));
  metrics.AddValue("spawn.events", static_cast<double>(spawn.events));
  metrics.AddValue("spawn.spawns", static_cast<double>(spawn.items));
  const int status = h.Finish();

  if (flags.Bool("audit-check")) {
    const sim::audit::Report report = sim::audit::Snapshot();
    std::printf(
        "audit: enabled=%d frames_allocated=%llu frames_freed=%llu "
        "live=%llu clean=%d\n",
        sim::audit::Enabled() ? 1 : 0,
        static_cast<unsigned long long>(report.frames_allocated),
        static_cast<unsigned long long>(report.frames_freed),
        static_cast<unsigned long long>(report.live_frames),
        report.clean() ? 1 : 0);
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "audit violation: %s\n", v.c_str());
    }
    if (!report.clean()) return 1;
  }
  return status;
}

// ---------------------------------------------------------------------------
// google-benchmark suite (default mode)
// ---------------------------------------------------------------------------

void BM_Md5Small(benchmark::State& state) {
  const std::array<std::uint8_t, 16> fid_bytes{1, 2, 3, 4, 5, 6, 7, 8,
                                               9, 10, 11, 12, 13, 14, 15, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(fid_bytes.data(), fid_bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Md5Small);

void BM_Md5Bulk(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Bulk)->Arg(1024)->Arg(64 * 1024);

void BM_WireRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    wire::BufferWriter w;
    w.WriteU64(0x123456789abcdef0ull);
    w.WriteString("/dufs/ns/some/virtual/path");
    w.WriteVarint(12345);
    wire::BufferReader r(w.data());
    benchmark::DoNotOptimize(r.ReadU64());
    benchmark::DoNotOptimize(r.ReadString());
    benchmark::DoNotOptimize(r.ReadVarint());
  }
}
BENCHMARK(BM_WireRoundTrip);

void BM_ZnodeCreate(benchmark::State& state) {
  zk::DataTree tree;
  zk::Zxid zxid = 0;
  (void)tree.Create("/d", {}, zk::CreateMode::kPersistent, 0, ++zxid, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Create("/d/n" + std::to_string(i++), {},
                                         zk::CreateMode::kPersistent, 0,
                                         ++zxid, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZnodeCreate);

void BM_ZnodeLookup(benchmark::State& state) {
  zk::DataTree tree;
  zk::Zxid zxid = 0;
  (void)tree.Create("/a", {}, zk::CreateMode::kPersistent, 0, ++zxid, 0);
  (void)tree.Create("/a/b", {}, zk::CreateMode::kPersistent, 0, ++zxid, 0);
  (void)tree.Create("/a/b/c", {}, zk::CreateMode::kPersistent, 0, ++zxid, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find("/a/b/c"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZnodeLookup);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleFn(i % 97, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    auto result = sim::RunTask(
        sim, [](sim::Simulation& s) -> sim::Task<int> {
          int sum = 0;
          for (int i = 0; i < 100; ++i) {
            co_await s.Delay(1);
            sum += i;
          }
          co_return sum;
        }(sim));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_PhysicalPathCodec(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    const Fid fid{42, ++counter};
    auto path = core::PhysicalPathForFid(fid);
    benchmark::DoNotOptimize(core::FidFromPhysicalPath(path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhysicalPathCodec);

}  // namespace
}  // namespace dufs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selfbench") == 0) {
      return dufs::SelfBenchMain(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
