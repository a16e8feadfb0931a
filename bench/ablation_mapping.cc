// Ablation — placement policies (paper §IV-F and the §VII future work):
// load balance across N back-ends and relocation volume when a back-end is
// added or removed, MD5-mod-N vs consistent hashing.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/mapping.h"

using namespace dufs;
using core::ConsistentHashPlacement;
using core::MakePlacement;
using core::Md5ModNPlacement;

namespace {

std::vector<Fid> MakeFids(std::size_t count) {
  std::vector<Fid> fids;
  fids.reserve(count);
  for (std::uint64_t c = 1; c <= 8; ++c) {
    for (std::uint64_t i = 0; i < count / 8; ++i) fids.push_back(Fid{c, i});
  }
  return fids;
}

// Max relative deviation from perfect balance, in percent.
double ImbalancePct(core::PlacementPolicy& policy,
                    const std::vector<Fid>& fids) {
  std::vector<std::size_t> buckets(policy.backend_count(), 0);
  for (const auto& fid : fids) ++buckets[policy.Place(fid)];
  const double ideal =
      static_cast<double>(fids.size()) /
      static_cast<double>(policy.backend_count());
  double worst = 0;
  for (auto b : buckets) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(b) - ideal) / ideal);
  }
  return worst * 100.0;
}

double MovedPct(core::PlacementPolicy& policy, const std::vector<Fid>& fids,
                std::size_t from, std::size_t to) {
  policy.SetBackendCount(from);
  std::vector<std::uint32_t> before;
  before.reserve(fids.size());
  for (const auto& fid : fids) before.push_back(policy.Place(fid));
  policy.SetBackendCount(to);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < fids.size(); ++i) {
    if (policy.Place(fids[i]) != before[i]) ++moved;
  }
  policy.SetBackendCount(from);
  return 100.0 * static_cast<double>(moved) /
         static_cast<double>(fids.size());
}

}  // namespace

int main(int argc, char** argv) {
  // No simulation here, so there is no observed run: --trace and --timeline
  // have nothing to record.
  bench::Harness h(argc, argv, "ablation_mapping", "[--fids=N]");
  const auto fids = MakeFids(
      static_cast<std::size_t>(h.flags().Int("fids", 200'000)));
  auto& out = h.metrics();

  std::printf("Ablation: FID placement policies over %zu FIDs\n",
              fids.size());
  std::printf("%-4s %22s %22s %20s %20s\n", "N", "md5 imbalance(%)",
              "chash imbalance(%)", "md5 moved N->N+1(%)",
              "chash moved N->N+1(%)");
  for (std::size_t n : {2, 3, 4, 8, 12, 16}) {
    Md5ModNPlacement md5(n);
    ConsistentHashPlacement chash(n);
    const double md5_imb = ImbalancePct(md5, fids);
    const double chash_imb = ImbalancePct(chash, fids);
    const double md5_moved = MovedPct(md5, fids, n, n + 1);
    const double chash_moved = MovedPct(chash, fids, n, n + 1);
    std::printf("%-4zu %22.2f %22.2f %20.1f %20.1f\n", n, md5_imb, chash_imb,
                md5_moved, chash_moved);
    const std::string suffix = "@" + std::to_string(n);
    out.AddValue("md5.imbalance_pct" + suffix, md5_imb);
    out.AddValue("chash.imbalance_pct" + suffix, chash_imb);
    out.AddValue("md5.moved_pct" + suffix, md5_moved);
    out.AddValue("chash.moved_pct" + suffix, chash_moved);
  }
  std::printf("\nTakeaway: mod-N balances slightly better, but a back-end "
              "change relocates\nnearly all files; the ring bounds "
              "relocation near the ideal 100/(N+1)%%.\n");
  return h.Finish();
}
