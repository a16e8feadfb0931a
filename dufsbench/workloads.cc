#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace dufsbench {

namespace {

using dufs::Rng;
namespace sim = dufs::sim;

// Host ops per second each workload sustains on a 4-core x86 box (measured
// with this benchmark, RelWithDebInfo). They only size a run to --seconds;
// every simulated metric is a pure function of (workload, seed, seconds).
constexpr double kMdtestOpsPerSecond = 13000;
constexpr double kStatHotOpsPerSecond = 70000;
constexpr double kChurnDeepOpsPerSecond = 5600;
constexpr double kFailoverOpsPerSecond = 6200;

constexpr std::size_t kClientNodes = 8;  // the Testbed default

std::size_t Scaled(int seconds, double ops_per_second, std::size_t per) {
  const double ops = static_cast<double>(seconds) * ops_per_second;
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(ops / static_cast<double>(per))));
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Seeded name component of 1-8 characters, so message sizes (and with them
// NIC and quorum timings) differ between seeds.
std::string Tag(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string tag(1 + rng.NextBelow(8), 'a');
  for (char& c : tag) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  return tag;
}

// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

GenOp Op(OpKind kind, std::string path, Expect expect = Expect::kOk) {
  GenOp op;
  op.kind = kind;
  op.expect = expect;
  op.path = std::move(path);
  return op;
}

Expect Exists(bool exists) {
  return exists ? Expect::kOk : Expect::kNotFound;
}

// mdtest's per-process tree: <root>/p<i>/t<0..fanout-1>.
void MdtestSkeleton(const std::string& root, std::size_t procs, Plan* plan) {
  plan->dirs.push_back(root);
  for (std::size_t p = 0; p < procs; ++p) {
    const std::string dir = root + "/p" + std::to_string(p);
    plan->dirs.push_back(dir);
    for (int t = 0; t < 10; ++t) {
      plan->dirs.push_back(dir + "/t" + std::to_string(t));
    }
  }
}

// Fig. 10: 256 processes, mdtest -u, fan-out 10, six barrier-separated
// phases on unique names, closed loop.
void MdtestPaper(Rng& rng, int seconds, Plan* plan) {
  constexpr std::size_t kProcs = 256;
  const std::size_t n = Scaled(seconds, kMdtestOpsPerSecond, kProcs * 6);
  MdtestSkeleton("/mdtest", kProcs, plan);
  plan->phase_len = n;
  for (std::size_t p = 0; p < kProcs; ++p) {
    Proc proc;
    proc.node = p % kClientNodes;
    const std::string tag = Tag(rng);
    auto item = [&](bool dir, std::size_t j) {
      return "/mdtest/p" + std::to_string(p) + "/t" + std::to_string(j % 10) +
             (dir ? "/dir." : "/file.") + tag + "." + std::to_string(j);
    };
    std::vector<std::size_t> order(n);
    for (std::size_t j = 0; j < n; ++j) order[j] = j;
    for (bool dir : {true, false}) {
      for (std::size_t j : order) {
        proc.ops.push_back(
            Op(dir ? OpKind::kMkdir : OpKind::kCreate, item(dir, j)));
      }
      Shuffle(order, rng);
      for (std::size_t j : order) {
        proc.ops.push_back(Op(OpKind::kStat, item(dir, j)));
      }
      Shuffle(order, rng);
      for (std::size_t j : order) {
        proc.ops.push_back(
            Op(dir ? OpKind::kRmdir : OpKind::kUnlink, item(dir, j)));
      }
      std::sort(order.begin(), order.end());
    }
    plan->procs.push_back(std::move(proc));
  }
}

// Hot namespace that fits every client's MetaCache: 95% stat (85% files,
// 10% directories), 3% readdir, 2% create/unlink of process-owned names
// beside the hot entries. Each process draws files and directories
// Zipf(0.99) from its own seeded popularity order: one global order would
// put a seed-dependent share of all stats on the few hottest files, and so
// on whichever Lustre instance their FIDs hash to. Closed loop, 64
// processes.
void StatHot(Rng& rng, int seconds, Plan* plan) {
  constexpr std::size_t kProcs = 64;
  constexpr std::size_t kDirs = 40;
  constexpr std::size_t kFilesPerDir = 50;
  constexpr std::size_t kSlots = 4;
  plan->dirs.push_back("/hot");
  std::vector<std::string> dirs;
  for (std::size_t d = 0; d < kDirs; ++d) {
    dirs.push_back("/hot/d" + std::to_string(d));
    plan->dirs.push_back(dirs.back());
    for (std::size_t f = 0; f < kFilesPerDir; ++f) {
      plan->files.push_back(dirs.back() + "/f" + std::to_string(f));
    }
  }
  const std::vector<std::string>& files = plan->files;
  const Zipf file_rank(files.size(), 0.99);
  const Zipf dir_rank(dirs.size(), 0.99);

  const std::size_t ops = Scaled(seconds, kStatHotOpsPerSecond, kProcs);
  plan->warmup = ops / 5;
  for (std::size_t p = 0; p < kProcs; ++p) {
    Proc proc;
    proc.node = p % kClientNodes;
    std::vector<std::size_t> file_order(files.size()), dir_order(dirs.size());
    for (std::size_t i = 0; i < file_order.size(); ++i) file_order[i] = i;
    for (std::size_t i = 0; i < dir_order.size(); ++i) dir_order[i] = i;
    Shuffle(file_order, rng);  // popularity rank -> entry
    Shuffle(dir_order, rng);
    std::vector<std::string> slot;
    std::vector<bool> exists(kSlots, false);
    for (std::size_t s = 0; s < kSlots; ++s) {
      slot.push_back("/hot/d" + std::to_string(rng.NextBelow(kDirs)) + "/c" +
                     std::to_string(p) + "." + std::to_string(s) + "." +
                     Tag(rng));
    }
    for (std::size_t i = 0; i < ops + plan->warmup; ++i) {
      const double r = rng.NextDouble();
      if (r < 0.85) {
        proc.ops.push_back(
            Op(OpKind::kStat, files[file_order[file_rank.Sample(rng)]]));
      } else if (r < 0.95) {
        proc.ops.push_back(
            Op(OpKind::kStat, dirs[dir_order[dir_rank.Sample(rng)]]));
      } else if (r < 0.98) {
        proc.ops.push_back(
            Op(OpKind::kReadDir, dirs[dir_order[dir_rank.Sample(rng)]]));
      } else {
        const std::size_t s = rng.NextBelow(kSlots);
        proc.ops.push_back(
            Op(exists[s] ? OpKind::kUnlink : OpKind::kCreate, slot[s]));
        exists[s] = !exists[s];
      }
    }
    plan->procs.push_back(std::move(proc));
  }
}

// Deep namespace about 10x the 4096-entry MetaCache, entries at depth
// 12-16. Uniform reads over the whole tree evict constantly while each
// process mutates only the branches it owns: file churn, mkdir/rmdir of
// small subtrees and a subtree rename. Closed loop, 128 processes.
void ChurnDeep(Rng& rng, int seconds, Plan* plan) {
  constexpr std::size_t kProcs = 128;
  constexpr std::size_t kBranches = 1024;
  constexpr std::size_t kLeafFiles = 8;
  constexpr std::size_t kLeafDirs = 24;
  constexpr std::size_t kChurn = 4;
  constexpr std::size_t kSubtrees = 2;

  std::string spine = "/cd";
  plan->dirs.push_back(spine);
  for (int s = 1; s <= 8; ++s) {
    spine += "/s" + std::to_string(s);
    plan->dirs.push_back(spine);
  }
  struct Branch {
    std::string leaf;
    std::vector<std::string> stable;  // never mutated during the run
  };
  std::vector<Branch> branches(kBranches);
  for (std::size_t b = 0; b < kBranches; ++b) {
    Branch& br = branches[b];
    br.leaf = spine + "/b" + std::to_string(b);
    plan->dirs.push_back(br.leaf);
    br.stable.push_back(br.leaf);
    const std::size_t chain = 1 + rng.NextBelow(5);  // leaf entries at 12-16
    for (std::size_t c = 1; c <= chain; ++c) {
      br.leaf += "/l" + std::to_string(c);
      plan->dirs.push_back(br.leaf);
      br.stable.push_back(br.leaf);
    }
    for (std::size_t e = 0; e < kLeafDirs; ++e) {
      plan->dirs.push_back(br.leaf + "/e" + std::to_string(e));
      br.stable.push_back(plan->dirs.back());
    }
    for (std::size_t f = 0; f < kLeafFiles; ++f) {
      plan->files.push_back(br.leaf + "/f" + std::to_string(f));
      br.stable.push_back(plan->files.back());
    }
    plan->dirs.push_back(br.leaf + "/rA");
    plan->files.push_back(br.leaf + "/rA/x0");
    plan->files.push_back(br.leaf + "/rA/x1");
  }

  const std::size_t ops = Scaled(seconds, kChurnDeepOpsPerSecond, kProcs);
  plan->warmup = ops / 5;
  // Which side of its A/B rename every branch's r-directory sits on.
  std::vector<bool> renamed(kBranches, false);
  for (std::size_t p = 0; p < kProcs; ++p) {
    Proc proc;
    proc.node = p % kClientNodes;
    std::vector<std::size_t> own;
    for (std::size_t b = p; b < kBranches; b += kProcs) own.push_back(b);
    // Per owned branch: churn files (exists?) and subtree stages 0-5.
    std::vector<std::vector<bool>> churn(own.size(), std::vector<bool>(kChurn));
    std::vector<std::vector<int>> stage(own.size(),
                                        std::vector<int>(kSubtrees));
    auto rdir = [&](std::size_t b, bool side_b) {
      return branches[b].leaf + (side_b ? "/rB" : "/rA");
    };
    for (std::size_t i = 0; i < ops + plan->warmup; ++i) {
      const double r = rng.NextDouble();
      const std::size_t o = rng.NextBelow(own.size());
      const Branch& mine = branches[own[o]];
      if (r < 0.45) {
        const Branch& br = branches[rng.NextBelow(kBranches)];
        proc.ops.push_back(
            Op(OpKind::kStat, br.stable[rng.NextBelow(br.stable.size())]));
      } else if (r < 0.50) {
        const std::size_t b = rng.NextBelow(kBranches);
        const bool side_b = rng.NextBelow(2) == 1;
        // Another process may be renaming this directory right now.
        const Expect e = b % kProcs == p ? Exists(renamed[b] == side_b)
                                         : Expect::kOkOrNotFound;
        proc.ops.push_back(Op(OpKind::kStat, rdir(b, side_b) + "/x0", e));
      } else if (r < 0.60) {
        proc.ops.push_back(
            Op(OpKind::kReadDir, branches[rng.NextBelow(kBranches)].leaf));
      } else if (r < 0.68) {
        const std::size_t k = rng.NextBelow(kChurn + kSubtrees * 2);
        if (k < kChurn) {
          proc.ops.push_back(Op(OpKind::kStat,
                                mine.leaf + "/c" + std::to_string(k),
                                Exists(churn[o][k])));
        } else {
          const std::size_t s = (k - kChurn) / 2;
          const bool child = (k - kChurn) % 2 == 1;
          const int st = stage[o][s];
          const std::string m = mine.leaf + "/m" + std::to_string(s);
          proc.ops.push_back(
              child ? Op(OpKind::kStat, m + "/n", Exists(st >= 2 && st <= 4))
                    : Op(OpKind::kStat, m, Exists(st >= 1)));
        }
      } else if (r < 0.80) {
        const std::size_t k = rng.NextBelow(kChurn);
        proc.ops.push_back(Op(churn[o][k] ? OpKind::kUnlink : OpKind::kCreate,
                              mine.leaf + "/c" + std::to_string(k)));
        churn[o][k] = !churn[o][k];
      } else if (r < 0.94) {
        const std::size_t s = rng.NextBelow(kSubtrees);
        const std::string m = mine.leaf + "/m" + std::to_string(s);
        static const std::pair<OpKind, const char*> kSteps[] = {
            {OpKind::kMkdir, ""},       {OpKind::kMkdir, "/n"},
            {OpKind::kCreate, "/n/f"},  {OpKind::kUnlink, "/n/f"},
            {OpKind::kRmdir, "/n"},     {OpKind::kRmdir, ""}};
        const auto& [kind, suffix] = kSteps[stage[o][s]];
        proc.ops.push_back(Op(kind, m + suffix));
        stage[o][s] = (stage[o][s] + 1) % 6;
      } else {
        const std::size_t b = own[o];
        GenOp op = Op(OpKind::kRename, rdir(b, renamed[b]));
        op.to = rdir(b, !renamed[b]);
        proc.ops.push_back(std::move(op));
        renamed[b] = !renamed[b];
      }
    }
    plan->procs.push_back(std::move(proc));
  }
}

// mdtest-paper's create/stat/unlink mix as an open loop at about half the
// fault-free capacity, under client<->server partitions and leader
// crash/restarts. The fault schedule repeats in cycles, each with its own
// seeded partitions and one leader crash, so the tail percentiles are
// medians over several crashes rather than the outcome of one.
void Failover(Rng& rng, int seconds, Plan* plan) {
  constexpr std::size_t kProcs = 256;
  // Saturated, this mix completes about 6.4k simulated ops/s on the same
  // testbed (failure detection on, no faults); offer half.
  constexpr double kOfferedOpsPerSecond = 3200;
  // Each process issues kCycleTriples create/stat/unlink triples per cycle.
  constexpr std::size_t kCycleTriples = 40;
  // Three cycles at least: the tail percentiles are their median.
  const std::size_t cycles = std::max<std::size_t>(
      3, Scaled(seconds, kFailoverOpsPerSecond, kProcs * kCycleTriples * 3));
  const std::size_t triples = cycles * kCycleTriples;
  const auto interval = static_cast<sim::Duration>(
      static_cast<double>(kProcs) * 1e9 / kOfferedOpsPerSecond);
  MdtestSkeleton("/fo", kProcs, plan);
  plan->open_loop = true;
  plan->failure_detection = true;
  plan->cycle = static_cast<sim::Duration>(kCycleTriples * 3) * interval;
  for (std::size_t p = 0; p < kProcs; ++p) {
    Proc proc;
    proc.node = p % kClientNodes;
    const std::string tag = Tag(rng);
    const auto offset = static_cast<sim::Duration>(
        rng.NextBelow(static_cast<std::uint64_t>(interval)));
    for (std::size_t j = 0; j < triples; ++j) {
      const std::string path = "/fo/p" + std::to_string(p) + "/t" +
                               std::to_string(j % 10) + "/file." + tag + "." +
                               std::to_string(j);
      for (OpKind kind : {OpKind::kCreate, OpKind::kStat, OpKind::kUnlink}) {
        GenOp op = Op(kind, path);
        op.due =
            offset + static_cast<sim::Duration>(proc.ops.size()) * interval;
        proc.ops.push_back(std::move(op));
      }
    }
    plan->procs.push_back(std::move(proc));
  }
  // Every cycle: 3 short partitions spread over its first 80% (the shape
  // of the 300us probe in ROADMAP item 1) and one leader crash in its
  // first third, restarted from its snapshot a second later. The crash
  // leaves the cycle over 6 s, room for a 4 s request_timeout to expire
  // and the stalled processes to catch up before the next cycle's crash.
  const sim::Duration cycle = plan->cycle;
  constexpr int kPartitions = 3;
  for (std::size_t c = 0; c < cycles; ++c) {
    const sim::Duration begin = static_cast<sim::Duration>(c) * cycle;
    for (int k = 0; k < kPartitions; ++k) {
      Fault f;
      f.kind = Fault::Kind::kPartition;
      const sim::Duration slot = cycle * 4 / 5 / kPartitions;
      f.at = begin + slot * k + slot / 4 +
             static_cast<sim::Duration>(
                 rng.NextBelow(static_cast<std::uint64_t>(slot / 2)));
      f.length = sim::Us(300);
      f.client = rng.NextBelow(kClientNodes);
      plan->faults.push_back(f);
    }
    Fault crash;
    crash.kind = Fault::Kind::kLeaderCrash;
    crash.at = begin + cycle / 5 +
               static_cast<sim::Duration>(rng.NextBelow(
                   static_cast<std::uint64_t>(cycle * 3 / 20)));
    crash.length = sim::Sec(1);
    plan->faults.push_back(crash);
  }
  std::sort(plan->faults.begin(), plan->faults.end(),
            [](const Fault& a, const Fault& b) { return a.at < b.at; });
}

}  // namespace

bool IsRead(OpKind kind) {
  return kind == OpKind::kStat || kind == OpKind::kReadDir;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStat: return "stat";
    case OpKind::kReadDir: return "readdir";
    case OpKind::kMkdir: return "mkdir";
    case OpKind::kRmdir: return "rmdir";
    case OpKind::kCreate: return "create";
    case OpKind::kUnlink: return "unlink";
    case OpKind::kRename: return "rename";
  }
  return "?";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"mdtest-paper", "stat-hot",
                                                  "churn-deep", "failover"};
  return kNames;
}

bool MakePlan(const std::string& workload, std::uint64_t seed, int seconds,
              Plan* out) {
  Plan plan;
  plan.workload = workload;
  plan.client_nodes = kClientNodes;
  Rng rng(seed);
  if (workload == "mdtest-paper") {
    MdtestPaper(rng, seconds, &plan);
  } else if (workload == "stat-hot") {
    StatHot(rng, seconds, &plan);
  } else if (workload == "churn-deep") {
    ChurnDeep(rng, seconds, &plan);
  } else if (workload == "failover") {
    Failover(rng, seconds, &plan);
  } else {
    return false;
  }
  *out = std::move(plan);
  return true;
}

}  // namespace dufsbench
