#include "zk/database.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/log.h"

namespace dufs::zk {

namespace {

// Server-side resolution walk (DESIGN.md §13). Walks `components` from the
// root child-by-child into `chain`. On success `chain` holds every
// component's znode; on kNotFound it holds exactly the leading components
// that do exist; on kNotADirectory the offending *interior* non-directory
// node is the last chain entry and later components were never examined. A
// nonzero dir_tag requires every interior component's data to begin with
// that byte — the FS layer's kind tag — so the walk enforces the POSIX rule
// without the coordination service knowing the record schema.
StatusCode ResolveChain(const DataTree& tree,
                        const std::vector<std::string_view>& components,
                        std::uint8_t dir_tag,
                        std::vector<const DataTree::Znode*>& chain) {
  chain.clear();
  chain.reserve(components.size());
  const DataTree::Znode* cur = &tree.root();
  for (std::size_t i = 0; i < components.size(); ++i) {
    auto it = cur->children.find(components[i]);
    if (it == cur->children.end()) return StatusCode::kNotFound;
    cur = it->second.get();
    chain.push_back(cur);
    if (i + 1 < components.size() && dir_tag != 0 &&
        (cur->data.empty() || cur->data[0] != dir_tag)) {
      return StatusCode::kNotADirectory;
    }
  }
  return StatusCode::kOk;
}

// Copies the first `count` chain nodes into res.prefix and stamps
// res.resolved_depth. Called *after* any mutation: the chain holds live
// pointers, so ancestor stats (pzxid/cversion/num_children) reflect the
// post-op state the client should seed.
void FillResolved(const std::vector<const DataTree::Znode*>& chain,
                  std::size_t count, std::uint32_t depth, OpResult& res) {
  res.resolved_depth = depth;
  res.prefix.clear();
  res.prefix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ResolvedNode n;
    n.name = chain[i]->name;
    n.stat = chain[i]->stat;
    n.data = chain[i]->data;
    res.prefix.push_back(std::move(n));
  }
}

// Shared failure-path shaping for compound ops: a partial resolution ships
// the whole existing prefix back so the client can seed positives for it.
void FillPartial(StatusCode code,
                 const std::vector<const DataTree::Znode*>& chain,
                 OpResult& res) {
  res.code = code;
  FillResolved(chain, chain.size(), static_cast<std::uint32_t>(chain.size()),
               res);
}

// The znode a compound write mutates under: the walk's last interior node,
// or the root for a top-level name. The walk ran over this Database's own
// (mutable) tree, hence the const_cast.
DataTree::Znode& ParentOf(DataTree& tree,
                          const std::vector<const DataTree::Znode*>& chain,
                          std::size_t n_components) {
  return const_cast<DataTree::Znode&>(
      n_components == 1 ? tree.root() : *chain[n_components - 2]);
}

}  // namespace

Database::Database() : tree_(std::make_unique<DataTree>()) {}

OpResult Database::Read(const Op& op) const {
  OpResult res;
  switch (op.type) {
    case OpType::kGetData: {
      auto node = tree_->Find(op.path);
      if (!node.ok()) {
        res.code = node.code();
        return res;
      }
      res.data = (*node)->data;
      res.stat = (*node)->stat;
      return res;
    }
    case OpType::kExists: {
      auto stat = tree_->Stat(op.path);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      res.stat = *stat;
      return res;
    }
    case OpType::kGetChildren: {
      auto children = tree_->GetChildren(op.path);
      if (!children.ok()) {
        res.code = children.code();
        return res;
      }
      res.children = std::move(*children);
      auto stat = tree_->Stat(op.path);
      if (stat.ok()) res.stat = *stat;
      return res;
    }
    case OpType::kSync:
      return res;  // ordering is handled by the server pipeline
    case OpType::kResolvePath: {
      std::vector<std::string_view> components;
      if (auto st = SplitValidPath(op.path, components); !st.ok()) {
        res.code = st.code();
        return res;
      }
      std::vector<const DataTree::Znode*> chain;
      const StatusCode walk =
          ResolveChain(*tree_, components, op.dir_tag, chain);
      if (walk != StatusCode::kOk) {
        FillPartial(walk, chain, res);
        return res;
      }
      // Terminal stat/data ride the ordinary fields; prefix excludes it.
      FillResolved(chain,
                   components.empty() ? 0 : components.size() - 1,
                   static_cast<std::uint32_t>(components.size()), res);
      if (!components.empty()) {
        res.stat = chain.back()->stat;
        res.data = chain.back()->data;
      } else {
        res.stat = tree_->root().stat;
        res.data = tree_->root().data;
      }
      return res;
    }
    case OpType::kReadDirPlus: {
      std::vector<std::string_view> components;
      if (auto st = SplitValidPath(op.path, components); !st.ok()) {
        res.code = st.code();
        return res;
      }
      std::vector<const DataTree::Znode*> chain;
      const StatusCode walk =
          ResolveChain(*tree_, components, op.dir_tag, chain);
      if (walk != StatusCode::kOk) {
        FillPartial(walk, chain, res);
        return res;
      }
      const DataTree::Znode* dir =
          components.empty() ? &tree_->root() : chain.back();
      FillResolved(chain,
                   components.empty() ? 0 : components.size() - 1,
                   static_cast<std::uint32_t>(components.size()), res);
      res.stat = dir->stat;
      res.data = dir->data;
      // The listed node itself must carry the directory tag when the guard
      // is on — listing a file is ENOTDIR, with the full prefix (and the
      // terminal's stat/data, above) still shipped for cache seeding.
      if (op.dir_tag != 0 && !components.empty() &&
          (dir->data.empty() || dir->data[0] != op.dir_tag)) {
        res.code = StatusCode::kNotADirectory;
        return res;
      }
      res.entries.reserve(dir->children.size());
      for (const auto& [name, child] : dir->children) {
        ResolvedNode n;
        n.name = name;
        n.stat = child->stat;
        n.data = child->data;
        res.entries.push_back(std::move(n));
      }
      return res;
    }
    default:
      res.code = StatusCode::kInvalidArgument;
      return res;
  }
}

OpResult Database::ApplyOne(const Op& op, SessionId session, Zxid zxid,
                            std::int64_t now_ns, Reply reply,
                            std::vector<AppliedTxn::Trigger>& out) {
  OpResult res;
  switch (op.type) {
    case OpType::kCreate: {
      auto created = tree_->Create(op.path, op.data, op.mode,
                                   IsEphemeral(op.mode) ? session : 0, zxid,
                                   now_ns);
      if (!created.ok()) {
        res.code = created.code();
        return res;
      }
      std::string parent = ParentPath(*created);
      if (reply == Reply::kBuild) res.created_path = *created;
      out.push_back({WatchEventType::kNodeCreated, std::move(*created)});
      out.push_back({WatchEventType::kNodeChildrenChanged, std::move(parent)});
      return res;
    }
    case OpType::kDelete: {
      auto st = tree_->Delete(op.path, op.version, zxid);
      if (!st.ok()) {
        res.code = st.code();
        return res;
      }
      out.push_back({WatchEventType::kNodeDeleted, op.path});
      out.push_back(
          {WatchEventType::kNodeChildrenChanged, ParentPath(op.path)});
      return res;
    }
    case OpType::kSetData: {
      auto stat = tree_->SetData(op.path, op.data, op.version, zxid, now_ns);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      res.stat = *stat;
      out.push_back({WatchEventType::kNodeDataChanged, op.path});
      return res;
    }
    case OpType::kCheckVersion: {
      auto stat = tree_->Stat(op.path);
      if (!stat.ok()) {
        res.code = stat.code();
        return res;
      }
      if (op.version != kAnyVersion && stat->version != op.version) {
        res.code = StatusCode::kBadVersion;
      }
      return res;
    }
    case OpType::kResolveCreate:
      return ResolveCreate(op, session, zxid, now_ns, reply, out);
    case OpType::kResolveDelete:
      return ResolveDelete(op, zxid, reply, out);
    default:
      res.code = StatusCode::kInvalidArgument;
      return res;
  }
}

// One walk: the chain ResolveChain builds ends at the parent, and the child
// is created right there.
OpResult Database::ResolveCreate(const Op& op, SessionId session, Zxid zxid,
                                 std::int64_t now_ns, Reply reply,
                                 std::vector<AppliedTxn::Trigger>& out) {
  OpResult res;
  const bool build = reply == Reply::kBuild;
  if (auto st = SplitValidPath(op.path, components_);
      !st.ok() || components_.empty()) {
    res.code = st.ok() ? StatusCode::kAlreadyExists : st.code();
    return res;
  }
  const std::size_t n = components_.size();
  const auto depth = static_cast<std::uint32_t>(n);
  const StatusCode walk = ResolveChain(*tree_, components_, op.dir_tag, chain_);
  if (walk == StatusCode::kNotADirectory ||
      (walk == StatusCode::kNotFound && chain_.size() < n - 1)) {
    res.code = walk;  // broken ancestor chain — nothing to create
    if (build) FillPartial(walk, chain_, res);
    return res;
  }
  if (walk == StatusCode::kOk && !IsSequential(op.mode)) {
    res.code = StatusCode::kAlreadyExists;
    if (build) {
      // The existing terminal is the client's freshest view of the node it
      // raced against: surface it via stat/data, not the prefix.
      FillResolved(chain_, n - 1, depth, res);
      res.stat = chain_.back()->stat;
      res.data = chain_.back()->data;
    }
    return res;
  }
  auto created = tree_->CreateChild(
      ParentOf(*tree_, chain_, n), components_.back(), op.data, op.mode,
      IsEphemeral(op.mode) ? session : 0, zxid, now_ns);
  if (!created.ok()) {
    res.code = created.code();
    if (build) FillPartial(created.code(), chain_, res);
    return res;
  }
  // A sequential create appended a suffix to the requested name.
  std::string created_path = op.path;
  created_path.append((*created)->name, components_.back().size());
  if (build) {
    // Chain pointers stay live across the mutation, and the parent's stat
    // was updated in place — the prefix the client seeds is post-create.
    FillResolved(chain_, n - 1, depth, res);
    res.stat = (*created)->stat;
    res.created_path = created_path;
  }
  out.push_back({WatchEventType::kNodeCreated, std::move(created_path)});
  out.push_back({WatchEventType::kNodeChildrenChanged,
                 std::string(ParentView(op.path))});
  return res;
}

OpResult Database::ResolveDelete(const Op& op, Zxid zxid, Reply reply,
                                 std::vector<AppliedTxn::Trigger>& out) {
  OpResult res;
  const bool build = reply == Reply::kBuild;
  if (auto st = SplitValidPath(op.path, components_);
      !st.ok() || components_.empty()) {
    res.code = st.ok() ? StatusCode::kInvalidArgument : st.code();
    return res;
  }
  const std::size_t n = components_.size();
  const StatusCode walk = ResolveChain(*tree_, components_, op.dir_tag, chain_);
  if (walk != StatusCode::kOk) {
    res.code = walk;
    if (build) FillPartial(walk, chain_, res);
    return res;
  }
  const DataTree::Znode& victim = *chain_.back();
  if (build) {
    // Pre-delete snapshot: the client needs the victim's record (its fid)
    // to finish the physical unlink, and its stat for version accounting.
    res.stat = victim.stat;
    res.data = victim.data;
  }
  auto depth = static_cast<std::uint32_t>(n);
  if (op.dir_tag != 0 && !victim.data.empty() &&
      victim.data[0] == op.dir_tag) {
    res.code = StatusCode::kIsADirectory;
  } else {
    const Status st = tree_->DeleteChild(ParentOf(*tree_, chain_, n),
                                         components_.back(), op.version, zxid);
    res.code = st.code();
    if (st.ok()) {
      // Depth excludes the deleted terminal; the parent's in-place stat
      // update (cversion/num_children) is visible through the prefix.
      depth = static_cast<std::uint32_t>(n - 1);
      out.push_back({WatchEventType::kNodeDeleted, op.path});
      out.push_back({WatchEventType::kNodeChildrenChanged,
                     std::string(ParentView(op.path))});
    }
  }
  if (build) FillResolved(chain_, n - 1, depth, res);
  return res;
}

AppliedTxn Database::ApplyMulti(const Txn& txn, Zxid zxid,
                                std::int64_t now_ns, Reply reply) {
  AppliedTxn applied;

  // Phase 1 — validate against the tree plus an overlay of the multi's own
  // effects, so the whole batch is atomic: either all ops apply or none do.
  struct Overlay {
    // Paths explicitly created (value true) or deleted (false) so far.
    std::map<std::string, bool, std::less<>> exists;
    std::map<std::string, std::int32_t, std::less<>> version_bump;
    std::map<std::string, int, std::less<>> child_delta;
  } ov;

  auto exists_now = [&](std::string_view path) -> bool {
    auto it = ov.exists.find(path);
    if (it != ov.exists.end()) return it->second;
    return tree_->Exists(path);
  };
  auto version_now = [&](std::string_view path) -> std::int32_t {
    auto stat = tree_->Stat(path);
    std::int32_t v = stat.ok() ? stat->version : 0;
    auto it = ov.version_bump.find(path);
    if (it != ov.version_bump.end()) v += it->second;
    return v;
  };
  auto children_now = [&](std::string_view path) -> int {
    auto stat = tree_->Stat(path);
    int n = stat.ok() ? stat->num_children : 0;
    auto it = ov.child_delta.find(path);
    if (it != ov.child_delta.end()) n += it->second;
    return n;
  };

  StatusCode failure = StatusCode::kOk;
  for (const auto& op : txn.multi_ops) {
    StatusCode code = StatusCode::kOk;
    switch (op.type) {
      case OpType::kCreate: {
        if (IsSequential(op.mode)) {
          code = StatusCode::kInvalidArgument;  // unsupported inside multi
          break;
        }
        if (auto st = ValidatePath(op.path); !st.ok()) {
          code = st.code();
          break;
        }
        if (op.path == "/" || exists_now(op.path)) {
          code = StatusCode::kAlreadyExists;
          break;
        }
        const std::string parent = ParentPath(op.path);
        if (!exists_now(parent)) {
          code = StatusCode::kNotFound;
          break;
        }
        ov.exists[op.path] = true;
        ++ov.child_delta[parent];
        break;
      }
      case OpType::kDelete: {
        if (auto st = ValidatePath(op.path); !st.ok() || op.path == "/") {
          code = st.ok() ? StatusCode::kInvalidArgument : st.code();
          break;
        }
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (children_now(op.path) > 0) {
          code = StatusCode::kNotEmpty;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        ov.exists[op.path] = false;
        --ov.child_delta[ParentPath(op.path)];
        break;
      }
      case OpType::kSetData: {
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        ++ov.version_bump[op.path];
        break;
      }
      case OpType::kCheckVersion: {
        if (!exists_now(op.path)) {
          code = StatusCode::kNotFound;
          break;
        }
        if (op.version != kAnyVersion && version_now(op.path) != op.version) {
          code = StatusCode::kBadVersion;
          break;
        }
        break;
      }
      default:
        code = StatusCode::kInvalidArgument;
    }
    OpResult r;
    r.code = code;
    applied.multi_results.push_back(std::move(r));
    if (code != StatusCode::kOk && failure == StatusCode::kOk) failure = code;
  }

  if (failure != StatusCode::kOk) {
    applied.result.code = failure;
    return applied;
  }

  // Phase 2 — apply for real; validation guarantees success.
  applied.multi_results.clear();
  for (const auto& op : txn.multi_ops) {
    OpResult r =
        ApplyOne(op, txn.session, zxid, now_ns, reply, applied.triggers);
    DUFS_CHECK(r.ok());
    applied.multi_results.push_back(std::move(r));
  }
  return applied;
}

AppliedTxn Database::Apply(const Txn& txn, Zxid zxid, std::int64_t now_ns,
                           Reply reply) {
  // Replicas must stamp identical times: prefer the leader-assigned stamp.
  if (txn.time != 0) now_ns = txn.time;
  DUFS_CHECK(zxid > last_applied_);
  last_applied_ = zxid;

  AppliedTxn applied;
  switch (txn.op.type) {
    case OpType::kMulti:
      applied = ApplyMulti(txn, zxid, now_ns, reply);
      break;
    case OpType::kSync:
      break;  // ordering no-op: forces the session server to catch up
    case OpType::kCreateSession:
      sessions_.insert(txn.session);
      break;
    case OpType::kCloseSession: {
      // Deterministic ephemeral cleanup on every replica. Ephemerals cannot
      // have children, so plain deletes always succeed.
      auto ephemerals = tree_->EphemeralsOf(txn.session);
      // Delete deepest-first so parents empty out before their own delete.
      std::sort(ephemerals.begin(), ephemerals.end(),
                [](const std::string& a, const std::string& b) {
                  return a.size() > b.size();
                });
      for (const auto& path : ephemerals) {
        auto st = tree_->Delete(path, kAnyVersion, zxid);
        if (st.ok()) {
          applied.triggers.push_back({WatchEventType::kNodeDeleted, path});
          applied.triggers.push_back(
              {WatchEventType::kNodeChildrenChanged, ParentPath(path)});
        }
      }
      sessions_.erase(txn.session);
      break;
    }
    default:
      applied.triggers.reserve(2);  // a successful create/delete fires two
      applied.result = ApplyOne(txn.op, txn.session, zxid, now_ns, reply,
                                applied.triggers);
  }
  return applied;
}

std::vector<std::uint8_t> Database::Snapshot() const {
  wire::BufferWriter w;
  w.WriteI64(last_applied_);
  w.WriteVarint(sessions_.size());
  // Serialize session ids in sorted order — iterating the unordered set
  // directly would make snapshot bytes depend on the stdlib's hash order.
  std::vector<SessionId> sessions(sessions_.begin(), sessions_.end());
  std::sort(sessions.begin(), sessions.end());
  for (SessionId s : sessions) w.WriteU64(s);
  tree_->Serialize(w);
  return w.Take();
}

Result<std::unique_ptr<Database>> Database::Restore(
    const std::vector<std::uint8_t>& snapshot) {
  wire::BufferReader r(snapshot);
  auto db = std::make_unique<Database>();
  auto last = r.ReadI64();
  DUFS_RETURN_IF_ERROR(last);
  db->last_applied_ = *last;
  auto n_sessions = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_sessions);
  for (std::uint64_t i = 0; i < *n_sessions; ++i) {
    auto s = r.ReadU64();
    DUFS_RETURN_IF_ERROR(s);
    db->sessions_.insert(*s);
  }
  auto tree = DataTree::Deserialize(r);
  DUFS_RETURN_IF_ERROR(tree);
  db->tree_ = std::move(*tree);
  return db;
}

std::uint64_t Database::Fingerprint() const {
  std::uint64_t h = tree_->Fingerprint();
  h ^= 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(last_applied_);
  return h;
}

std::size_t Database::EstimateMemoryBytes() const {
  return tree_->EstimateMemoryBytes() + sessions_.size() * 64;
}

}  // namespace dufs::zk
