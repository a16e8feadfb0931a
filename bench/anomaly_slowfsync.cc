// Anomaly injection — a ZooKeeper journal disk that degrades mid-run.
//
// A standalone (1-server) ensemble runs a steady stream of creates; at
// --degrade-at-us the server's journal fsync latency is multiplied by
// --degrade-factor. With one server the leader's self-ack keeps its own
// fsync on the commit critical path (a quorum majority of faster peers
// would mask it), so the fault surfaces directly in create latency.
//
// This is the incident-observability gate's workload: the fsync-stall
// detector must fire, dump the flight recorder, and
// `tracestats --explain-dump` must attribute the latency growth to fsync —
// byte-identically across runs (tests/determinism/slo_gate.cmake).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "mdtest/testbed.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "anomaly_slowfsync",
                   "[--seed=N] [--files=120] [--degrade-at-us=150000] "
                   "[--degrade-factor=15] [--expect-anomaly=TYPE]");
  const bench::Flags& flags = h.flags();
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  // Creates per client; sized so the run extends well past the fault.
  const auto files = static_cast<std::size_t>(flags.Int("files", 120));
  const auto degrade_at = sim::Us(flags.Int("degrade-at-us", 150000));
  const double factor = flags.Double("degrade-factor", 15.0);
  const std::string expect = flags.Str("expect-anomaly", "");

  TestbedConfig config;
  config.seed = seed;
  config.zk_servers = 1;
  // One client stream: concurrent writers would queue behind each other's
  // journal batch and smear the attribution across quorum wait; a single
  // stream pins the injected latency on the fsync category itself.
  config.client_nodes = 1;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 1;
  config.zk_group_commit = false;  // one fsync per create
  const auto testbed = h.Mount(config, /*observed=*/true);
  Testbed& tb = *testbed;

  // The fault: DiskWrite reads the node model at call time, so mutating it
  // mid-run takes effect on the next journal batch.
  tb.sim().Spawn([](Testbed& t, sim::Duration at,
                    double mult) -> sim::Task<void> {
    co_await t.sim().Delay(at);
    auto& disk = t.net().node(t.zk_nodes()[0]).mutable_model().disk;
    disk.sync_latency = static_cast<sim::Duration>(
        static_cast<double>(disk.sync_latency) * mult);
    std::printf("[anomaly] t=%lldns zk0 fsync degraded %.1fx\n",
                static_cast<long long>(t.sim().now()), mult);
  }(tb, degrade_at, factor));

  const auto start = tb.sim().now();
  sim::RunTask(tb.sim(), [](Testbed& t, std::size_t n) -> sim::Task<void> {
    sim::Barrier done(t.sim(), t.client_count() + 1);
    for (std::size_t c = 0; c < t.client_count(); ++c) {
      t.sim().Spawn([](Testbed& t2, std::size_t client, std::size_t n2,
                       sim::Barrier b) -> sim::Task<void> {
        auto& dufs = *t2.client(client).dufs;
        const std::string dir = "/c" + std::to_string(client);
        DUFS_CHECK((co_await dufs.Mkdir(dir, 0755)).ok());
        for (std::size_t i = 0; i < n2; ++i) {
          auto r = co_await dufs.Create(dir + "/f" + std::to_string(i), 0644);
          DUFS_CHECK(r.ok());
        }
        co_await b.Arrive();
      }(t, c, n, done));
    }
    co_await done.Arrive();
  }(tb, files));
  const double secs =
      static_cast<double>(tb.sim().now() - start) / sim::kSecond;
  const double ops = static_cast<double>(files * tb.client_count());
  std::printf("creates: %.0f in %.3f s sim (%.0f ops/s)\n", ops, secs,
              ops / secs);

  h.Capture(tb.obs(), tb.timeline());
  h.metrics().AddValue("create_ops_per_s", ops / secs);
  const int status = h.Finish();

  if (!expect.empty()) {
    bool fired = false;
    for (const auto& a : tb.obs().incidents().anomalies()) {
      if (expect == a.type) fired = true;
    }
    if (!fired) {
      std::fprintf(stderr,
                   "anomaly_slowfsync: expected a %s anomaly; none fired\n",
                   expect.c_str());
      return 1;
    }
    std::printf("expected anomaly fired: %s\n", expect.c_str());
  }
  return status;
}
