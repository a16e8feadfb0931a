#include "zk/proto.h"

#include <algorithm>

namespace dufs::zk {
namespace {

// Reserves room for `n` decoded elements. Each takes at least one encoded
// byte, so a corrupt count can not reserve more than the bytes left.
template <typename T>
void ReserveFor(std::vector<T>& v, std::uint64_t n,
                const wire::BufferReader& r) {
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, r.remaining())));
}

// An encoded OpResult's fields up to and including resolved_depth.
Status DecodeResultHead(wire::BufferReader& r, OpResult& res) {
  auto code = r.ReadU8();
  DUFS_RETURN_IF_ERROR(code);
  res.code = static_cast<StatusCode>(*code);
  auto created = r.ReadString();
  DUFS_RETURN_IF_ERROR(created);
  res.created_path = std::move(*created);
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  res.stat = *stat;
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  res.data = std::move(*data);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  ReserveFor(res.children, *n, r);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto child = r.ReadString();
    DUFS_RETURN_IF_ERROR(child);
    res.children.push_back(std::move(*child));
  }
  auto depth = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(depth);
  res.resolved_depth = static_cast<std::uint32_t>(*depth);
  return Status::Ok();
}

}  // namespace

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kGetData: return "getData";
    case OpType::kExists: return "exists";
    case OpType::kGetChildren: return "getChildren";
    case OpType::kSync: return "sync";
    case OpType::kCreate: return "create";
    case OpType::kDelete: return "delete";
    case OpType::kSetData: return "setData";
    case OpType::kMulti: return "multi";
    case OpType::kCreateSession: return "createSession";
    case OpType::kCloseSession: return "closeSession";
    case OpType::kCheckVersion: return "checkVersion";
    case OpType::kResolvePath: return "resolvePath";
    case OpType::kReadDirPlus: return "readDirPlus";
    case OpType::kResolveCreate: return "resolveCreate";
    case OpType::kResolveDelete: return "resolveDelete";
  }
  return "unknown";
}

void Op::Encode(wire::BufferWriter& w) const {
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteString(path);
  w.WriteBytes(data);
  w.WriteU8(static_cast<std::uint8_t>(mode));
  w.WriteU32(static_cast<std::uint32_t>(version));
  w.WriteBool(watch);
  w.WriteU8(dir_tag);
}

std::size_t Op::EncodedSize() const {
  return 1 + wire::BlobSize(path.size()) + wire::BlobSize(data.size()) + 1 +
         4 + 1 + 1;
}

Result<Op> Op::Decode(wire::BufferReader& r) {
  Op op;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  op.type = static_cast<OpType>(*type);
  auto path = r.ReadString();
  DUFS_RETURN_IF_ERROR(path);
  op.path = std::move(*path);
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  op.data = std::move(*data);
  auto mode = r.ReadU8();
  DUFS_RETURN_IF_ERROR(mode);
  op.mode = static_cast<CreateMode>(*mode);
  auto version = r.ReadU32();
  DUFS_RETURN_IF_ERROR(version);
  op.version = static_cast<std::int32_t>(*version);
  auto watch = r.ReadBool();
  DUFS_RETURN_IF_ERROR(watch);
  op.watch = *watch;
  auto dir_tag = r.ReadU8();
  DUFS_RETURN_IF_ERROR(dir_tag);
  op.dir_tag = *dir_tag;
  return op;
}

Op Op::Create(std::string path, std::vector<std::uint8_t> data,
              CreateMode mode) {
  Op op;
  op.type = OpType::kCreate;
  op.path = std::move(path);
  op.data = std::move(data);
  op.mode = mode;
  return op;
}

Op Op::Delete(std::string path, std::int32_t version) {
  Op op;
  op.type = OpType::kDelete;
  op.path = std::move(path);
  op.version = version;
  return op;
}

Op Op::SetData(std::string path, std::vector<std::uint8_t> data,
               std::int32_t version) {
  Op op;
  op.type = OpType::kSetData;
  op.path = std::move(path);
  op.data = std::move(data);
  op.version = version;
  return op;
}

Op Op::CheckVersion(std::string path, std::int32_t version) {
  Op op;
  op.type = OpType::kCheckVersion;
  op.path = std::move(path);
  op.version = version;
  return op;
}

Op Op::ResolvePath(std::string path, bool watch, std::uint8_t dir_tag) {
  Op op;
  op.type = OpType::kResolvePath;
  op.path = std::move(path);
  op.watch = watch;
  op.dir_tag = dir_tag;
  return op;
}

Op Op::ReadDirPlus(std::string path, bool watch, std::uint8_t dir_tag) {
  Op op;
  op.type = OpType::kReadDirPlus;
  op.path = std::move(path);
  op.watch = watch;
  op.dir_tag = dir_tag;
  return op;
}

Op Op::ResolveCreate(std::string path, std::vector<std::uint8_t> data,
                     CreateMode mode, std::uint8_t dir_tag, bool watch) {
  Op op;
  op.type = OpType::kResolveCreate;
  op.path = std::move(path);
  op.data = std::move(data);
  op.mode = mode;
  op.dir_tag = dir_tag;
  op.watch = watch;
  return op;
}

Op Op::ResolveDelete(std::string path, std::int32_t version,
                     std::uint8_t dir_tag, bool watch) {
  Op op;
  op.type = OpType::kResolveDelete;
  op.path = std::move(path);
  op.version = version;
  op.dir_tag = dir_tag;
  op.watch = watch;
  return op;
}

void Txn::Encode(wire::BufferWriter& w) const {
  w.WriteU64(session);
  w.WriteI64(time);
  w.WriteVarint(trace);
  op.Encode(w);
  w.WriteVarint(multi_ops.size());
  for (const auto& o : multi_ops) o.Encode(w);
}

Result<Txn> Txn::Decode(wire::BufferReader& r) {
  Txn txn;
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  txn.session = *session;
  auto time = r.ReadI64();
  DUFS_RETURN_IF_ERROR(time);
  txn.time = *time;
  auto trace = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(trace);
  txn.trace = *trace;
  auto op = Op::Decode(r);
  DUFS_RETURN_IF_ERROR(op);
  txn.op = std::move(*op);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto sub = Op::Decode(r);
    DUFS_RETURN_IF_ERROR(sub);
    txn.multi_ops.push_back(std::move(*sub));
  }
  return txn;
}

std::size_t Txn::EncodedSize() const {
  std::size_t n = 8 + 8 + wire::VarintSize(trace) + op.EncodedSize() +
                  wire::VarintSize(multi_ops.size());
  for (const auto& o : multi_ops) n += o.EncodedSize();
  return n;
}

void ResolvedNode::Encode(wire::BufferWriter& w) const {
  w.WriteString(name);
  stat.Encode(w);
  w.WriteBytes(data);
}

std::size_t ResolvedNode::EncodedSize() const {
  return wire::BlobSize(name.size()) + ZnodeStat::kEncodedSize +
         wire::BlobSize(data.size());
}

Result<ResolvedNode> ResolvedNode::Decode(wire::BufferReader& r) {
  ResolvedNode node;
  auto name = r.ReadString();
  DUFS_RETURN_IF_ERROR(name);
  node.name = std::move(*name);
  auto stat = ZnodeStat::Decode(r);
  DUFS_RETURN_IF_ERROR(stat);
  node.stat = *stat;
  auto data = r.ReadBytes();
  DUFS_RETURN_IF_ERROR(data);
  node.data = std::move(*data);
  return node;
}

void OpResult::Encode(wire::BufferWriter& w) const {
  w.WriteU8(static_cast<std::uint8_t>(code));
  w.WriteString(created_path);
  stat.Encode(w);
  w.WriteBytes(data);
  w.WriteVarint(children.size());
  for (const auto& c : children) w.WriteString(c);
  w.WriteVarint(resolved_depth);
  w.WriteVarint(prefix.size());
  for (const auto& n : prefix) n.Encode(w);
  w.WriteVarint(entries.size());
  for (const auto& n : entries) n.Encode(w);
}

std::size_t OpResult::EncodedSize() const {
  std::size_t n = 1 + wire::BlobSize(created_path.size()) +
                  ZnodeStat::kEncodedSize + wire::BlobSize(data.size()) +
                  wire::VarintSize(children.size());
  for (const auto& c : children) n += wire::BlobSize(c.size());
  n += wire::VarintSize(resolved_depth) + wire::VarintSize(prefix.size());
  for (const auto& p : prefix) n += p.EncodedSize();
  n += wire::VarintSize(entries.size());
  for (const auto& e : entries) n += e.EncodedSize();
  return n;
}

Result<OpResult> OpResult::Decode(wire::BufferReader& r) {
  OpResult res;
  DUFS_RETURN_IF_ERROR(DecodeResultHead(r, res));
  auto n_prefix = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_prefix);
  ReserveFor(res.prefix, *n_prefix, r);
  for (std::uint64_t i = 0; i < *n_prefix; ++i) {
    auto node = ResolvedNode::Decode(r);
    DUFS_RETURN_IF_ERROR(node);
    res.prefix.push_back(std::move(*node));
  }
  auto n_entries = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n_entries);
  ReserveFor(res.entries, *n_entries, r);
  for (std::uint64_t i = 0; i < *n_entries; ++i) {
    auto node = ResolvedNode::Decode(r);
    DUFS_RETURN_IF_ERROR(node);
    res.entries.push_back(std::move(*node));
  }
  return res;
}

std::vector<std::uint8_t> ClientRequest::Encode() const {
  std::size_t size = 8 + wire::VarintSize(trace) + op.EncodedSize() +
                     wire::VarintSize(multi_ops.size());
  for (const auto& o : multi_ops) size += o.EncodedSize();
  wire::BufferWriter w(size);
  w.WriteU64(session);
  w.WriteVarint(trace);
  op.Encode(w);
  w.WriteVarint(multi_ops.size());
  for (const auto& o : multi_ops) o.Encode(w);
  return w.Take();
}

Result<ClientRequest> ClientRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  ClientRequest req;
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  req.session = *session;
  auto trace = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(trace);
  req.trace = *trace;
  auto op = Op::Decode(r);
  DUFS_RETURN_IF_ERROR(op);
  req.op = std::move(*op);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto sub = Op::Decode(r);
    DUFS_RETURN_IF_ERROR(sub);
    req.multi_ops.push_back(std::move(*sub));
  }
  return req;
}

std::vector<std::uint8_t> ClientResponse::Encode() const {
  std::size_t size =
      result.EncodedSize() + wire::VarintSize(multi_results.size());
  for (const auto& r : multi_results) size += r.EncodedSize();
  wire::BufferWriter w(size);
  result.Encode(w);
  w.WriteVarint(multi_results.size());
  for (const auto& r : multi_results) r.Encode(w);
  return w.Take();
}

Result<ClientResponse> ClientResponse::Decode(
    const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  ClientResponse resp;
  auto result = OpResult::Decode(r);
  DUFS_RETURN_IF_ERROR(result);
  resp.result = std::move(*result);
  auto n = r.ReadVarint();
  DUFS_RETURN_IF_ERROR(n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto sub = OpResult::Decode(r);
    DUFS_RETURN_IF_ERROR(sub);
    resp.multi_results.push_back(std::move(*sub));
  }
  return resp;
}

std::vector<std::uint8_t> WatchEvent::Encode() const {
  wire::BufferWriter w(1 + wire::BlobSize(path.size()) + 8);
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteString(path);
  w.WriteU64(session);
  return w.Take();
}

Result<OpResult> ClientResponse::DecodeHead(
    const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  OpResult res;
  DUFS_RETURN_IF_ERROR(DecodeResultHead(r, res));
  return res;
}

Result<WatchEvent> WatchEvent::Decode(const std::vector<std::uint8_t>& bytes) {
  wire::BufferReader r(bytes);
  WatchEvent ev;
  auto type = r.ReadU8();
  DUFS_RETURN_IF_ERROR(type);
  ev.type = static_cast<WatchEventType>(*type);
  auto path = r.ReadString();
  DUFS_RETURN_IF_ERROR(path);
  ev.path = std::move(*path);
  auto session = r.ReadU64();
  DUFS_RETURN_IF_ERROR(session);
  ev.session = *session;
  return ev;
}

}  // namespace dufs::zk
