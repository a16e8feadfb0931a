#include "zk/znode.h"

#include <cstdio>

#include "common/log.h"

namespace dufs::zk {

void ZnodeStat::Encode(wire::BufferWriter& w) const {
  w.WriteI64(czxid);
  w.WriteI64(mzxid);
  w.WriteI64(pzxid);
  w.WriteI64(ctime);
  w.WriteI64(mtime);
  w.WriteU32(static_cast<std::uint32_t>(version));
  w.WriteU32(static_cast<std::uint32_t>(cversion));
  w.WriteU64(ephemeral_owner);
  w.WriteU32(static_cast<std::uint32_t>(num_children));
  w.WriteU32(static_cast<std::uint32_t>(data_length));
}

Result<ZnodeStat> ZnodeStat::Decode(wire::BufferReader& r) {
  ZnodeStat s;
  auto read_i64 = [&](Zxid& out) -> Status {
    auto v = r.ReadI64();
    if (!v.ok()) return v.status();
    out = *v;
    return Status::Ok();
  };
  DUFS_RETURN_IF_ERROR(read_i64(s.czxid));
  DUFS_RETURN_IF_ERROR(read_i64(s.mzxid));
  DUFS_RETURN_IF_ERROR(read_i64(s.pzxid));
  DUFS_RETURN_IF_ERROR(read_i64(s.ctime));
  DUFS_RETURN_IF_ERROR(read_i64(s.mtime));
  auto version = r.ReadU32();
  DUFS_RETURN_IF_ERROR(version);
  s.version = static_cast<std::int32_t>(*version);
  auto cversion = r.ReadU32();
  DUFS_RETURN_IF_ERROR(cversion);
  s.cversion = static_cast<std::int32_t>(*cversion);
  auto owner = r.ReadU64();
  DUFS_RETURN_IF_ERROR(owner);
  s.ephemeral_owner = *owner;
  auto nc = r.ReadU32();
  DUFS_RETURN_IF_ERROR(nc);
  s.num_children = static_cast<std::int32_t>(*nc);
  auto dl = r.ReadU32();
  DUFS_RETURN_IF_ERROR(dl);
  s.data_length = static_cast<std::int32_t>(*dl);
  return s;
}

namespace {

// Calls `fn(segment)` for each segment of `path` ("/" has none), failing
// with kInvalidArgument at the first syntax error.
template <typename Fn>
Status ForEachSegment(std::string_view path, Fn&& fn) {
  if (path.empty() || path[0] != '/') {
    return Status(StatusCode::kInvalidArgument, "path must start with '/'");
  }
  if (path == "/") return Status::Ok();
  if (path.back() == '/') {
    return Status(StatusCode::kInvalidArgument, "trailing slash");
  }
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    const auto seg = path.substr(start, end - start);
    if (seg.empty()) {
      return Status(StatusCode::kInvalidArgument, "empty path segment");
    }
    if (seg == "." || seg == "..") {
      return Status(StatusCode::kInvalidArgument, "relative path segment");
    }
    fn(seg);
    start = end + 1;
  }
  return Status::Ok();
}

std::string JoinPath(std::string_view parent, std::string_view name) {
  std::string path;
  path.reserve(parent.size() + 1 + name.size());
  path.append(parent);
  if (parent != "/") path.push_back('/');
  path.append(name);
  return path;
}

}  // namespace

Status ValidatePath(std::string_view path) {
  return ForEachSegment(path, [](std::string_view) {});
}

std::string_view ParentView(std::string_view path) {
  DUFS_CHECK(path.size() > 1 && path[0] == '/');
  const auto pos = path.rfind('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

std::string ParentPath(std::string_view path) {
  return std::string(ParentView(path));
}

std::string_view BaseName(std::string_view path) {
  const auto pos = path.rfind('/');
  return path.substr(pos + 1);
}

std::vector<std::string_view> PathComponents(std::string_view path) {
  std::vector<std::string_view> out;
  if (path.size() <= 1) return out;
  std::size_t start = 1;
  while (start <= path.size()) {
    auto end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    out.push_back(path.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

Status SplitValidPath(std::string_view path,
                      std::vector<std::string_view>& out) {
  out.clear();
  return ForEachSegment(path,
                        [&out](std::string_view seg) { out.push_back(seg); });
}

DataTree::DataTree() : root_(std::make_unique<Znode>()) {}

const DataTree::Znode* DataTree::Walk(std::string_view path) const {
  const Znode* cur = root_.get();
  if (path == "/") return cur;
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    auto it = cur->children.find(path.substr(start, end - start));
    if (it == cur->children.end()) return nullptr;
    cur = it->second.get();
    start = end + 1;
  }
  return cur;
}

DataTree::Znode* DataTree::WalkMutable(std::string_view path) {
  return const_cast<Znode*>(Walk(path));
}

Result<const DataTree::Znode*> DataTree::Find(std::string_view path) const {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  const Znode* node = Walk(path);
  if (node == nullptr) return Status(StatusCode::kNotFound, std::string(path));
  return node;
}

DataTree::Znode* DataTree::FindMutable(std::string_view path) {
  return ValidatePath(path).ok() ? WalkMutable(path) : nullptr;
}

Result<std::string> DataTree::Create(std::string_view path,
                                     std::vector<std::uint8_t> data,
                                     CreateMode mode, SessionId session,
                                     Zxid zxid, std::int64_t time) {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  if (path == "/") return Status(StatusCode::kAlreadyExists, "/");
  const std::string_view parent_path = ParentView(path);
  Znode* parent = WalkMutable(parent_path);
  if (parent == nullptr) {
    return Status(StatusCode::kNotFound,
                  "parent " + std::string(parent_path));
  }
  auto node = CreateChild(*parent, BaseName(path), std::move(data), mode,
                          session, zxid, time);
  DUFS_RETURN_IF_ERROR(node);
  return JoinPath(parent_path, (*node)->name);
}

Result<DataTree::Znode*> DataTree::CreateChild(
    Znode& parent, std::string_view name, std::vector<std::uint8_t> data,
    CreateMode mode, SessionId session, Zxid zxid, std::int64_t time) {
  if (parent.stat.ephemeral_owner != 0) {
    // ZooKeeper forbids children under ephemeral nodes.
    return Status(StatusCode::kInvalidArgument, "parent is ephemeral");
  }
  auto node = std::make_unique<Znode>();
  node->name = name;
  if (IsSequential(mode)) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%010llu",
                  static_cast<unsigned long long>(parent.next_sequence++));
    node->name += suffix;
  }
  auto [it, inserted] = parent.children.try_emplace(node->name);
  if (!inserted) {
    return Status(StatusCode::kAlreadyExists, node->name);
  }
  node->data = std::move(data);
  node->stat.czxid = zxid;
  node->stat.mzxid = zxid;
  node->stat.pzxid = zxid;
  node->stat.ctime = time;
  node->stat.mtime = time;
  node->stat.data_length = static_cast<std::int32_t>(node->data.size());
  if (IsEphemeral(mode)) {
    DUFS_CHECK(session != 0);
    node->stat.ephemeral_owner = session;
    ++ephemeral_count_;
  }
  it->second = std::move(node);
  parent.stat.pzxid = zxid;
  ++parent.stat.cversion;
  ++parent.stat.num_children;
  ++node_count_;
  return it->second.get();
}

Status DataTree::Delete(std::string_view path, std::int32_t expected_version,
                        Zxid zxid) {
  DUFS_RETURN_IF_ERROR(ValidatePath(path));
  if (path == "/") {
    return Status(StatusCode::kInvalidArgument, "cannot delete the root");
  }
  Znode* parent = WalkMutable(ParentView(path));
  if (parent == nullptr) {
    return Status(StatusCode::kNotFound, std::string(path));
  }
  return DeleteChild(*parent, BaseName(path), expected_version, zxid);
}

Status DataTree::DeleteChild(Znode& parent, std::string_view name,
                             std::int32_t expected_version, Zxid zxid) {
  auto it = parent.children.find(name);
  if (it == parent.children.end()) {
    return Status(StatusCode::kNotFound, std::string(name));
  }
  const Znode& node = *it->second;
  if (!node.children.empty()) {
    return Status(StatusCode::kNotEmpty, std::string(name));
  }
  if (expected_version != kAnyVersion && expected_version != node.stat.version) {
    return Status(StatusCode::kBadVersion, std::string(name));
  }
  if (node.stat.ephemeral_owner != 0) --ephemeral_count_;
  parent.children.erase(it);
  parent.stat.pzxid = zxid;
  ++parent.stat.cversion;
  --parent.stat.num_children;
  --node_count_;
  return Status::Ok();
}

Result<ZnodeStat> DataTree::SetData(std::string_view path,
                                    std::vector<std::uint8_t> data,
                                    std::int32_t expected_version, Zxid zxid,
                                    std::int64_t time) {
  Znode* node = FindMutable(path);
  if (node == nullptr) return Status(StatusCode::kNotFound, std::string(path));
  if (expected_version != kAnyVersion &&
      expected_version != node->stat.version) {
    return Status(StatusCode::kBadVersion, std::string(path));
  }
  node->data = std::move(data);
  node->stat.data_length = static_cast<std::int32_t>(node->data.size());
  node->stat.mzxid = zxid;
  node->stat.mtime = time;
  ++node->stat.version;
  return node->stat;
}

Result<ZnodeStat> DataTree::Stat(std::string_view path) const {
  auto node = Find(path);
  if (!node.ok()) return node.status();
  return (*node)->stat;
}

Result<std::vector<std::string>> DataTree::GetChildren(
    std::string_view path) const {
  auto node = Find(path);
  if (!node.ok()) return node.status();
  std::vector<std::string> names;
  names.reserve((*node)->children.size());
  for (const auto& [name, child] : (*node)->children) names.push_back(name);
  return names;
}

namespace {
void CollectEphemerals(const DataTree::Znode& node, const std::string& prefix,
                       SessionId session, std::vector<std::string>& out) {
  for (const auto& [name, child] : node.children) {
    const std::string child_path =
        prefix == "/" ? "/" + name : prefix + "/" + name;
    if (child->stat.ephemeral_owner == session) out.push_back(child_path);
    CollectEphemerals(*child, child_path, session, out);
  }
}

// Constants calibrated against the paper's Fig. 11: one million znodes
// occupy ~417 MB of ZooKeeper (JVM) heap, i.e. ~417 bytes each for mdtest
// paths. Breakdown: DataNode object + Stat (~120B), ConcurrentHashMap path
// index entry + path String (~2x path bytes for UTF-16 + ~90B headers),
// parent child-set entry (~50B), data array (+16B header).
struct MemoryModel {
  static constexpr std::size_t kZnodeFixed = 130;
  static constexpr std::size_t kIndexEntry = 96;
  static constexpr std::size_t kChildEntry = 52;
  static constexpr std::size_t kPerNamedByte = 3;  // name appears in path
                                                   // index (UTF-16) + child
                                                   // set key
};

std::size_t NodeMemory(const DataTree::Znode& node, std::size_t depth) {
  std::size_t bytes = MemoryModel::kZnodeFixed + MemoryModel::kIndexEntry +
                      MemoryModel::kChildEntry +
                      MemoryModel::kPerNamedByte * node.name.size() +
                      // full path stored in the index: approximate by depth
                      // * average segment length via the name itself
                      2 * depth * 8 + node.data.size() + 16;
  for (const auto& [name, child] : node.children) {
    bytes += NodeMemory(*child, depth + 1);
  }
  return bytes;
}
}  // namespace

std::vector<std::string> DataTree::EphemeralsOf(SessionId session) const {
  std::vector<std::string> out;
  CollectEphemerals(*root_, "/", session, out);
  return out;
}

std::size_t DataTree::EstimateMemoryBytes() const {
  return NodeMemory(*root_, 0);
}

void DataTree::SerializeNode(const Znode& n, wire::BufferWriter& w) {
  w.WriteString(n.name);
  w.WriteBytes(n.data);
  n.stat.Encode(w);
  w.WriteU64(n.next_sequence);
  w.WriteVarint(n.children.size());
  for (const auto& [name, child] : n.children) SerializeNode(*child, w);
}

void DataTree::Serialize(wire::BufferWriter& w) const {
  SerializeNode(*root_, w);
}

Result<std::unique_ptr<DataTree::Znode>> DataTree::DeserializeNode(
    wire::BufferReader& r) {
  auto node = std::make_unique<Znode>();
  auto name = r.ReadString();
  DUFS_RETURN_IF_ERROR(name);
  node->name = std::move(*name);
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  node->data = std::move(*data);
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  node->stat = *stat;
  auto seq = r.ReadU64();
  DUFS_RETURN_IF_ERROR(seq);
  node->next_sequence = *seq;
  auto n_children = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_children);
  for (std::uint64_t i = 0; i < *n_children; ++i) {
    auto child = DeserializeNode(r);
    DUFS_RETURN_IF_ERROR(child);
    std::string key = (*child)->name;
    node->children.emplace(std::move(key), std::move(*child));
  }
  return node;
}

Result<std::unique_ptr<DataTree>> DataTree::Deserialize(
    wire::BufferReader& r) {
  auto root = DeserializeNode(r);
  DUFS_RETURN_IF_ERROR(root);
  auto tree = std::make_unique<DataTree>();
  tree->root_ = std::move(*root);
  // Recount nodes and ephemerals.
  std::size_t nodes = 0, ephemerals = 0;
  struct Counter {
    static void Walk(const Znode& n, std::size_t& nodes,
                     std::size_t& ephemerals) {
      ++nodes;
      if (n.stat.ephemeral_owner != 0) ++ephemerals;
      for (const auto& [name, child] : n.children) {
        Walk(*child, nodes, ephemerals);
      }
    }
  };
  Counter::Walk(*tree->root_, nodes, ephemerals);
  tree->node_count_ = nodes;
  tree->ephemeral_count_ = ephemerals;
  return tree;
}

std::uint64_t DataTree::Fingerprint() const {
  // FNV-1a over a canonical serialization.
  wire::BufferWriter w;
  Serialize(w);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : w.data()) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace dufs::zk
