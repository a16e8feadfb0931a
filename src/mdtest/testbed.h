// One-stop cluster builder reproducing the paper's experimental setup
// (§V): a set of client nodes (each running a DUFS client + FUSE mount and
// co-located with the ZooKeeper ensemble clients), N back-end parallel
// filesystem instances (Lustre or PVFS, each with its own servers), and the
// ZooKeeper ensemble. Used by integration tests, the mdtest harness, every
// bench, and the examples.
#pragma once

#include <memory>
#include <vector>

#include "core/dufs_client.h"
#include "net/rpc.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "pfs/lustre.h"
#include "pfs/pvfs.h"
#include "vfs/fuse_mount.h"
#include "vfs/memfs.h"
#include "zk/client.h"
#include "zk/server.h"

namespace dufs::mdtest {

enum class BackendKind { kMemFs, kLustre, kPvfs };

struct TestbedConfig {
  std::uint64_t seed = 1;
  std::size_t zk_servers = 8;       // the paper's default ensemble
  std::size_t client_nodes = 8;     // the paper's 8 client nodes
  BackendKind backend = BackendKind::kLustre;
  std::size_t backend_instances = 2;  // physical mounts DUFS merges
  std::size_t oss_per_lustre = 2;
  std::size_t servers_per_pvfs = 2;
  std::string placement = "md5-mod-n";
  // Per-client DUFS knobs (metadata cache, fan-out); `placement` above
  // overrides `dufs.placement` for backward compatibility.
  core::DufsConfig dufs{};
  bool zk_failure_detection = false;
  bool zk_group_commit = false;  // leader group commit (metadata fast path)
  // Record trace spans (op → zk-rpc → quorum-round → fsync-batch). Metrics
  // counters/histograms are always collected; only span recording is gated
  // (it allocates per event).
  bool enable_trace = false;
  zk::ZkPerfModel zk_perf{};
  pfs::LustrePerfModel lustre_perf{};
  pfs::PvfsPerfModel pvfs_perf{};
  vfs::FuseConfig fuse{};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& sim() { return *sim_; }
  net::Network& net() { return *net_; }
  const TestbedConfig& config() const { return config_; }

  // Cluster-wide metrics registry + tracer. Every node (ZK servers, clients,
  // NICs) registers its scope here; snapshot with obs().metrics().ToJson()
  // or export spans with obs().tracer().WriteChromeJson(path).
  obs::Observability& obs() { return obs_; }

  struct ClientNode {
    net::NodeId node = net::kInvalidNode;
    std::unique_ptr<net::RpcEndpoint> endpoint;
    std::unique_ptr<zk::ZkClient> zk;
    // One client stub per back-end instance (the "mount points").
    std::vector<std::unique_ptr<vfs::FileSystem>> backend_mounts;
    std::unique_ptr<core::DufsClient> dufs;
    std::unique_ptr<vfs::FuseMount> fuse;  // applications enter here
  };

  std::size_t client_count() const { return clients_.size(); }
  ClientNode& client(std::size_t i) { return *clients_[i]; }

  // The native-filesystem baseline ("Basic Lustre"/"Basic PVFS"): instance 0
  // accessed directly from client node i, no DUFS, no FUSE.
  vfs::FileSystem& baseline(std::size_t i) {
    return *clients_[i]->backend_mounts[0];
  }

  zk::ZkServer& zk_server(std::size_t i) { return *zk_servers_[i]; }
  std::size_t zk_server_count() const { return zk_servers_.size(); }
  const std::vector<net::NodeId>& zk_nodes() const { return zk_nodes_; }

  pfs::LustreInstance* lustre(std::size_t i) {
    return i < lustre_.size() ? lustre_[i].get() : nullptr;
  }

  // Connects every ZK session and mounts every DUFS client (runs the sim).
  void MountAll();

  // Idle until started over every registered gauge — after MountAll, so all
  // components have attached their observability (bench::Harness does this
  // for --timeline). Export with timeline().ToJson().
  obs::TimelineSampler& timeline() { return timeline_; }

  // Sum of EstimateMemoryBytes over live ZK replicas (Fig. 11 input).
  std::size_t ZkMemoryBytes() const;

 private:
  TestbedConfig config_;
  // Declared before everything that holds metric/span handles into it, so it
  // is destroyed last.
  obs::Observability obs_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  // After sim_: its pump coroutine is reclaimed by sim_->Shutdown() in the
  // destructor body, before members are torn down.
  obs::TimelineSampler timeline_;

  std::vector<net::NodeId> zk_nodes_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> zk_endpoints_;
  std::vector<std::unique_ptr<zk::ZkServer>> zk_servers_;
  zk::ZkEnsembleConfig zk_config_;

  std::vector<std::unique_ptr<pfs::LustreInstance>> lustre_;
  std::vector<std::unique_ptr<pfs::PvfsInstance>> pvfs_;
  std::vector<std::unique_ptr<vfs::MemFs>> memfs_;

  std::vector<std::unique_ptr<ClientNode>> clients_;
};

}  // namespace dufs::mdtest
