// Heap allocations per replicated apply. Counts are deterministic (same
// code, same inputs, same calls to operator new), so the bound can sit just
// above the measured figure and still never flake.
//
// This binary replaces the global operator new to count calls, which is why
// it is its own test executable: the replacement must not leak into any
// other test or into the library code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "zk/database.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dufs::zk {
namespace {

constexpr std::uint8_t kTag = 'D';
constexpr int kDepth = 16;
constexpr int kCreates = 1000;

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

Txn MakeTxn(Op op) {
  Txn txn;
  txn.session = 1;
  txn.op = std::move(op);
  return txn;
}

// Allocations per ResolveCreate of a fresh file under a depth-15 directory
// chain (16 components per path), averaged over kCreates applies.
double AllocationsPerCreate(Reply reply) {
  Database db;
  Zxid zxid = 0;
  std::string dir;
  for (int d = 1; d < kDepth; ++d) {
    dir += "/dir" + std::to_string(d);
    db.Apply(MakeTxn(Op::Create(dir, Bytes("Ddir"))), ++zxid, 100, reply);
  }
  std::vector<Txn> txns;
  txns.reserve(kCreates);
  for (int i = 0; i < kCreates; ++i) {
    txns.push_back(MakeTxn(Op::ResolveCreate(
        dir + "/file" + std::to_string(i), Bytes("Ffile-record"),
        CreateMode::kPersistent, kTag, /*watch=*/false)));
  }
  std::size_t failed = 0;
  const std::size_t before = g_allocations;
  for (const Txn& txn : txns) {
    // The AppliedTxn is destroyed inside the loop, as on a replica.
    failed += db.Apply(txn, ++zxid, 100, reply).result.ok() ? 0 : 1;
  }
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(failed, 0u);
  return static_cast<double>(allocations) / kCreates;
}

TEST(ApplyAllocTest, ReplyLessResolveCreateStaysUnderBound) {
  // Measured: 6 per create — the znode, its child-map entry, its data copy,
  // the trigger vector and the two trigger paths. Bound: 8 (one third
  // headroom). Before replicas skipped the reply and walked the path once,
  // the same apply cost 32.
  const double per_create = AllocationsPerCreate(Reply::kSkip);
  std::printf("reply-less ResolveCreate: %.2f allocations/apply\n",
              per_create);
  EXPECT_LE(per_create, 8.0);
}

TEST(ApplyAllocTest, ReplySkipsPrefixCopies) {
  // The reply adds the 15-entry prefix (one vector, one data copy per
  // entry) and the created path; the reply-less apply pays none of it.
  const double with_reply = AllocationsPerCreate(Reply::kBuild);
  const double without = AllocationsPerCreate(Reply::kSkip);
  std::printf("ResolveCreate with reply: %.2f allocations/apply\n",
              with_reply);
  EXPECT_GE(with_reply - without, kDepth - 1.0);
}

}  // namespace
}  // namespace dufs::zk
