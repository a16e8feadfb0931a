#include "mdtest/testbed.h"

namespace dufs::mdtest {

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  sim_ = std::make_unique<sim::Simulation>(config_.seed);
  net_ = std::make_unique<net::Network>(*sim_);

  // --- observability -------------------------------------------------------
  // Metrics and the flight recorder are always on (handle updates and ring
  // admissions are cheap); the full span log only when asked — it allocates
  // one Event per span.
  obs_.tracer().Bind(sim_.get());
  obs_.tracer().SetEnabled(config_.enable_trace);
  obs_.BindIncidents(sim_.get());
  net_->AttachObs(&obs_);

  // --- coordination service ----------------------------------------------
  // The paper co-locates ZooKeeper servers with client nodes; modeling them
  // as separate nodes on the same switch keeps NIC accounting explicit.
  for (std::size_t i = 0; i < config_.zk_servers; ++i) {
    zk_nodes_.push_back(net_->AddNode("zk" + std::to_string(i)));
  }
  zk_config_.servers = zk_nodes_;
  zk_config_.perf = config_.zk_perf;
  zk_config_.group_commit = config_.zk_group_commit;
  zk_config_.enable_failure_detection = config_.zk_failure_detection;
  for (std::size_t i = 0; i < config_.zk_servers; ++i) {
    zk_endpoints_.push_back(
        std::make_unique<net::RpcEndpoint>(*net_, zk_nodes_[i]));
    zk_servers_.push_back(
        std::make_unique<zk::ZkServer>(*zk_endpoints_[i], zk_config_, i));
    zk_servers_[i]->AttachObs(obs_.Node("zk" + std::to_string(i)));
    zk_servers_[i]->Start();
  }

  // --- back-end filesystem instances --------------------------------------
  for (std::size_t i = 0; i < config_.backend_instances; ++i) {
    const std::string name = "fs" + std::to_string(i);
    switch (config_.backend) {
      case BackendKind::kLustre:
        lustre_.push_back(std::make_unique<pfs::LustreInstance>(
            *net_, name, config_.oss_per_lustre, config_.lustre_perf));
        break;
      case BackendKind::kPvfs:
        pvfs_.push_back(std::make_unique<pfs::PvfsInstance>(
            *net_, name, config_.servers_per_pvfs, config_.pvfs_perf));
        break;
      case BackendKind::kMemFs:
        memfs_.push_back(std::make_unique<vfs::MemFs>(*sim_, name));
        break;
    }
  }

  // --- client nodes --------------------------------------------------------
  for (std::size_t i = 0; i < config_.client_nodes; ++i) {
    auto client = std::make_unique<ClientNode>();
    client->node = net_->AddNode("client" + std::to_string(i));
    client->endpoint =
        std::make_unique<net::RpcEndpoint>(*net_, client->node);
    // All of this node's components (ZK session, DUFS, backend stubs) share
    // one metric scope and one trace track.
    const obs::NodeObs node_obs = obs_.Node("client" + std::to_string(i));

    zk::ZkClientConfig zkc;
    zkc.servers = zk_nodes_;
    zkc.attach_index = i;  // sessions pinned round-robin, as in the paper
    client->zk = std::make_unique<zk::ZkClient>(*client->endpoint, zkc);
    client->zk->AttachObs(node_obs);

    std::vector<vfs::FileSystem*> backends;
    for (std::size_t b = 0; b < config_.backend_instances; ++b) {
      switch (config_.backend) {
        case BackendKind::kLustre: {
          auto mount = std::make_unique<pfs::LustreClient>(*client->endpoint,
                                                           *lustre_[b]);
          mount->AttachObs(node_obs);
          client->backend_mounts.push_back(std::move(mount));
          break;
        }
        case BackendKind::kPvfs: {
          auto mount = std::make_unique<pfs::PvfsClient>(*client->endpoint,
                                                         *pvfs_[b]);
          mount->AttachObs(node_obs);
          client->backend_mounts.push_back(std::move(mount));
          break;
        }
        case BackendKind::kMemFs: {
          // MemFs is process-local; every node shares the instance (a stand-
          // in used only by correctness tests).
          struct SharedMemFs : vfs::FileSystem {
            explicit SharedMemFs(vfs::MemFs& fs) : fs_(fs) {}
            vfs::MemFs& fs_;
            std::string name() const override { return fs_.name(); }
            sim::Task<Result<vfs::FileAttr>> GetAttr(std::string p) override {
              co_return co_await fs_.GetAttr(std::move(p));
            }
            sim::Task<Status> Mkdir(std::string p, vfs::Mode m) override {
              co_return co_await fs_.Mkdir(std::move(p), m);
            }
            sim::Task<Status> Rmdir(std::string p) override {
              co_return co_await fs_.Rmdir(std::move(p));
            }
            sim::Task<Result<vfs::FileAttr>> Create(std::string p,
                                                    vfs::Mode m) override {
              co_return co_await fs_.Create(std::move(p), m);
            }
            sim::Task<Status> Unlink(std::string p) override {
              co_return co_await fs_.Unlink(std::move(p));
            }
            sim::Task<Result<std::vector<vfs::DirEntry>>> ReadDir(
                std::string p) override {
              co_return co_await fs_.ReadDir(std::move(p));
            }
            sim::Task<Status> Rename(std::string f, std::string t) override {
              co_return co_await fs_.Rename(std::move(f), std::move(t));
            }
            sim::Task<Status> Chmod(std::string p, vfs::Mode m) override {
              co_return co_await fs_.Chmod(std::move(p), m);
            }
            sim::Task<Status> Utimens(std::string p, std::int64_t a,
                                      std::int64_t mt) override {
              co_return co_await fs_.Utimens(std::move(p), a, mt);
            }
            sim::Task<Status> Truncate(std::string p,
                                       std::uint64_t s) override {
              co_return co_await fs_.Truncate(std::move(p), s);
            }
            sim::Task<Status> Symlink(std::string t, std::string l) override {
              co_return co_await fs_.Symlink(std::move(t), std::move(l));
            }
            sim::Task<Result<std::string>> ReadLink(std::string p) override {
              co_return co_await fs_.ReadLink(std::move(p));
            }
            sim::Task<Status> Access(std::string p, vfs::Mode m) override {
              co_return co_await fs_.Access(std::move(p), m);
            }
            sim::Task<Result<vfs::FileHandle>> Open(
                std::string p, std::uint32_t f) override {
              co_return co_await fs_.Open(std::move(p), f);
            }
            sim::Task<Status> Release(vfs::FileHandle h) override {
              co_return co_await fs_.Release(h);
            }
            sim::Task<Result<vfs::Bytes>> Read(vfs::FileHandle h,
                                               std::uint64_t o,
                                               std::uint64_t l) override {
              co_return co_await fs_.Read(h, o, l);
            }
            sim::Task<Result<std::uint64_t>> Write(vfs::FileHandle h,
                                                   std::uint64_t o,
                                                   vfs::Bytes d) override {
              co_return co_await fs_.Write(h, o, std::move(d));
            }
            sim::Task<Result<vfs::FsStats>> StatFs() override {
              co_return co_await fs_.StatFs();
            }
          };
          client->backend_mounts.push_back(
              std::make_unique<SharedMemFs>(*memfs_[b]));
          break;
        }
      }
    }
    for (auto& mount : client->backend_mounts) {
      backends.push_back(mount.get());
    }

    core::DufsConfig dufs_config = config_.dufs;
    dufs_config.placement = config_.placement;
    client->dufs = std::make_unique<core::DufsClient>(
        *client->zk, std::move(backends), dufs_config);
    client->dufs->AttachObs(node_obs);
    client->fuse = std::make_unique<vfs::FuseMount>(
        net_->node(client->node), *client->dufs, config_.fuse);
    clients_.push_back(std::move(client));
  }
}

Testbed::~Testbed() {
  // Reclaim suspended coroutines before servers/endpoints are destroyed.
  sim_->Shutdown();
}

void Testbed::MountAll() {
  sim::RunTask(*sim_, [](Testbed& tb) -> sim::Task<void> {
    for (std::size_t i = 0; i < tb.client_count(); ++i) {
      auto st = co_await tb.client(i).dufs->Mount();
      DUFS_CHECK(st.ok());
    }
    // mkfs-style one-time preparation of the static FID hierarchy
    // (paper §IV-G); the other clients just learn that it exists.
    auto st = co_await tb.client(0).dufs->FormatBackends();
    DUFS_CHECK(st.ok());
    for (std::size_t i = 1; i < tb.client_count(); ++i) {
      tb.client(i).dufs->AssumeFormatted();
    }
  }(*this));
}

std::size_t Testbed::ZkMemoryBytes() const {
  std::size_t total = 0;
  for (const auto& server : zk_servers_) {
    total += server->db().EstimateMemoryBytes();
  }
  return total;
}

}  // namespace dufs::mdtest
