// The replicated state machine: DataTree + session table + txn application.
//
// Every replica owns one Database and applies committed Txns in zxid order.
// Apply() is deterministic — identical inputs leave every replica with an
// identical Fingerprint() — and returns the OpResults plus the watch
// triggers the owning server should fan out.
//
// Only the server a client waits on needs the reply, so the caller says
// whether to build it. Without it Apply still computes each result's code,
// the triggers and the tree, but skips the copies that only the client
// reads: compound prefixes, pre-delete records, the new node's stat and the
// created path.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "zk/proto.h"
#include "zk/znode.h"

namespace dufs::zk {

struct AppliedTxn {
  OpResult result;                    // standalone op (or aggregate for multi)
  std::vector<OpResult> multi_results;

  struct Trigger {
    WatchEventType type;
    std::string path;
  };
  std::vector<Trigger> triggers;
};

enum class Reply : std::uint8_t { kSkip, kBuild };

class Database {
 public:
  Database();

  // --- replicated writes --------------------------------------------------
  AppliedTxn Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                   Reply reply);
  // Apply with Reply::kBuild; the form the dufsbench database replay calls.
  AppliedTxn Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns) {
    return Apply(txn, zxid, now_ns, Reply::kBuild);
  }
  Zxid last_applied() const { return last_applied_; }

  // --- local reads ----------------------------------------------------
  OpResult Read(const Op& op) const;

  bool SessionExists(SessionId id) const { return sessions_.count(id) > 0; }
  std::size_t session_count() const { return sessions_.size(); }

  DataTree& tree() { return *tree_; }
  const DataTree& tree() const { return *tree_; }

  // --- snapshots ---------------------------------------------------------
  std::vector<std::uint8_t> Snapshot() const;
  static Result<std::unique_ptr<Database>> Restore(
      const std::vector<std::uint8_t>& snapshot);

  std::uint64_t Fingerprint() const;
  std::size_t EstimateMemoryBytes() const;

 private:
  OpResult ApplyOne(const Op& op, SessionId session, Zxid zxid,
                    std::int64_t now_ns, Reply reply,
                    std::vector<AppliedTxn::Trigger>& out);
  OpResult ResolveCreate(const Op& op, SessionId session, Zxid zxid,
                         std::int64_t now_ns, Reply reply,
                         std::vector<AppliedTxn::Trigger>& out);
  OpResult ResolveDelete(const Op& op, Zxid zxid, Reply reply,
                         std::vector<AppliedTxn::Trigger>& out);
  AppliedTxn ApplyMulti(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                        Reply reply);

  std::unique_ptr<DataTree> tree_;
  std::unordered_set<SessionId> sessions_;
  Zxid last_applied_ = 0;
  // Scratch for compound writes, reused so a walk does not allocate: the
  // split of the op's path and the znode of each resolved component.
  std::vector<std::string_view> components_;
  std::vector<const DataTree::Znode*> chain_;
};

}  // namespace dufs::zk
