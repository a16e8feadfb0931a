// Wire protocol of the coordination service: client operations, transaction
// records (the replicated log entries), and operation results.
//
// Reads (GetData/Exists/GetChildren/Sync) are served by any server from its
// local replica. Writes (Create/Delete/SetData/Multi/session lifecycle) are
// turned into Txn records, sequenced by the leader, and applied by every
// replica in zxid order (see zab.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "wire/buffer.h"
#include "zk/znode.h"

namespace dufs::zk {

// RPC method ids (shared RpcEndpoint method space: zk owns 100-119).
namespace method {
inline constexpr std::uint16_t kConnect = 100;      // client -> server
inline constexpr std::uint16_t kRequest = 101;      // client -> server
inline constexpr std::uint16_t kForward = 110;      // follower -> leader
inline constexpr std::uint16_t kPropose = 111;      // leader -> follower
inline constexpr std::uint16_t kAckProposal = 112;  // follower -> leader
// Group-commit fast path: one PROPOSE carrying a contiguous zxid run, one
// cumulative ACK per batch (see ZkEnsembleConfig::group_commit).
inline constexpr std::uint16_t kBatchPropose = 104; // leader -> follower
inline constexpr std::uint16_t kBatchAck = 105;     // follower -> leader
inline constexpr std::uint16_t kCommit = 113;       // leader -> all (one-way)
inline constexpr std::uint16_t kElectionVote = 114; // peer -> peer (one-way)
inline constexpr std::uint16_t kFollowerInfo = 115; // follower -> leader
inline constexpr std::uint16_t kPing = 116;         // leader -> follower
inline constexpr std::uint16_t kWatchEvent = 117;   // server -> client
inline constexpr std::uint16_t kSessionPing = 118;  // client -> server (one-way)
}  // namespace method

enum class OpType : std::uint8_t {
  // Reads (never replicated).
  kGetData = 0,
  kExists = 1,
  kGetChildren = 2,
  kSync = 3,
  // Compound reads: server-side path resolution (DESIGN.md §13). One RPC
  // resolves every component of `path` against the local replica and ships
  // the whole prefix back for client cache seeding.
  kResolvePath = 4,
  kReadDirPlus = 5,
  // Writes (replicated as Txns).
  kCreate = 10,
  kDelete = 11,
  kSetData = 12,
  kMulti = 13,
  kCreateSession = 14,
  kCloseSession = 15,
  // Multi-only guard op.
  kCheckVersion = 16,
  // Compound writes: resolve + mutate in one replicated txn. They ride the
  // ordinary Txn path (leader sequencing, group commit, replay untouched);
  // the resolution loop runs inside Database::Apply on every replica.
  kResolveCreate = 17,
  kResolveDelete = 18,
};

inline bool IsWrite(OpType t) { return static_cast<int>(t) >= 10; }

inline bool IsCompound(OpType t) {
  return t == OpType::kResolvePath || t == OpType::kReadDirPlus ||
         t == OpType::kResolveCreate || t == OpType::kResolveDelete;
}

// Stable display name ("create", "getChildren", ...) for logs and traces.
const char* OpTypeName(OpType t);

// One operation — used both for standalone requests and inside a Multi.
struct Op {
  OpType type = OpType::kGetData;
  std::string path;
  std::vector<std::uint8_t> data;
  CreateMode mode = CreateMode::kPersistent;
  std::int32_t version = kAnyVersion;
  // Reads and compound writes; on compound ops the session server registers
  // a one-shot data watch on every resolved component (plus the first
  // missing one), keeping client-side prefix seeding coherent.
  bool watch = false;
  // Compound ops only. Nonzero = every *interior* resolved component's data
  // must begin with this byte or resolution stops with kNotADirectory. The
  // FS layer stores its kind tag as the first MetaRecord byte, which lets
  // the (otherwise schema-agnostic) coordination service enforce the POSIX
  // walk rule server-side. 0 disables the guard (existence checks only).
  std::uint8_t dir_tag = 0;

  void Encode(wire::BufferWriter& w) const;
  static Result<Op> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;

  // Convenience constructors.
  static Op Create(std::string path, std::vector<std::uint8_t> data,
                   CreateMode mode = CreateMode::kPersistent);
  static Op Delete(std::string path, std::int32_t version = kAnyVersion);
  static Op SetData(std::string path, std::vector<std::uint8_t> data,
                    std::int32_t version = kAnyVersion);
  static Op CheckVersion(std::string path, std::int32_t version);
  static Op ResolvePath(std::string path, bool watch, std::uint8_t dir_tag);
  static Op ReadDirPlus(std::string path, bool watch, std::uint8_t dir_tag);
  static Op ResolveCreate(std::string path, std::vector<std::uint8_t> data,
                          CreateMode mode, std::uint8_t dir_tag, bool watch);
  static Op ResolveDelete(std::string path, std::int32_t version,
                          std::uint8_t dir_tag, bool watch);
};

// A replicated transaction: the client's write plus its session stamp and
// the leader-assigned wall time (so ctime/mtime are identical on every
// replica, exactly like ZooKeeper's TxnHeader time).
struct Txn {
  SessionId session = 0;
  std::int64_t time = 0;     // leader clock at sequencing time (sim ns)
  std::uint64_t trace = 0;   // originating trace id; 0 = untraced (varint
                             // on the wire, so tracing off costs one byte)
  Op op;                     // kCreate/kDelete/kSetData/kCreateSession/...
  std::vector<Op> multi_ops; // when op.type == kMulti

  void Encode(wire::BufferWriter& w) const;
  static Result<Txn> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;
};

// One resolved path component (compound-op replies): its name plus the
// stat/data snapshot taken during the server-side resolution walk.
struct ResolvedNode {
  std::string name;
  ZnodeStat stat;
  std::vector<std::uint8_t> data;

  void Encode(wire::BufferWriter& w) const;
  static Result<ResolvedNode> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;
};

// Result of applying one Op.
//
// Compound-op contract (kResolvePath/kReadDirPlus/kResolveCreate/
// kResolveDelete — see DESIGN.md §13):
//   - resolved_depth = number of leading components of Op::path that exist
//     *after* the op ran (so a successful ResolveDelete of an n-component
//     path reports n-1; a successful ResolveCreate reports n).
//   - prefix = one ResolvedNode per existing leading component EXCLUDING
//     the terminal; the terminal's stat/data ride `stat`/`data` as usual.
//     prefix.size() == min(resolved_depth, n_components - 1). On a partial
//     miss (code kNotFound) the prefix covers exactly the components that
//     do exist, so the client can seed positives for them and a negative
//     for the first missing one. On kNotADirectory the offending non-dir
//     component is the *last* prefix entry; components past it were never
//     examined, so no negative may be inferred.
//   - entries = kReadDirPlus only: every child of the terminal directory
//     with its stat+data, in sorted (map) order.
struct OpResult {
  StatusCode code = StatusCode::kOk;
  std::string created_path;          // kCreate
  ZnodeStat stat;                    // kExists/kSetData/kGetData
  std::vector<std::uint8_t> data;    // kGetData
  std::vector<std::string> children; // kGetChildren
  std::uint32_t resolved_depth = 0;  // compound ops
  std::vector<ResolvedNode> prefix;  // compound ops
  std::vector<ResolvedNode> entries; // kReadDirPlus

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const { return Status(code); }

  void Encode(wire::BufferWriter& w) const;
  static Result<OpResult> Decode(wire::BufferReader& r);
  std::size_t EncodedSize() const;
};

// Client-facing request/response frames (method::kRequest).
struct ClientRequest {
  SessionId session = 0;
  std::uint64_t trace = 0;  // see Txn::trace
  Op op;
  std::vector<Op> multi_ops;

  std::vector<std::uint8_t> Encode() const;
  static Result<ClientRequest> Decode(const std::vector<std::uint8_t>& bytes);
};

struct ClientResponse {
  OpResult result;                  // result of `op` (or first failed multi op)
  std::vector<OpResult> multi_results;

  std::vector<std::uint8_t> Encode() const;
  static Result<ClientResponse> Decode(const std::vector<std::uint8_t>& bytes);
  // Decodes `result` only up to resolved_depth (prefix, entries and
  // multi_results stay empty): what a server relaying an encoded reply
  // needs for its watches and resolve-depth histogram.
  static Result<OpResult> DecodeHead(const std::vector<std::uint8_t>& bytes);
};

// Watch event pushed to clients (method::kWatchEvent).
enum class WatchEventType : std::uint8_t {
  kNodeCreated = 0,
  kNodeDeleted = 1,
  kNodeDataChanged = 2,
  kNodeChildrenChanged = 3,
};

struct WatchEvent {
  WatchEventType type = WatchEventType::kNodeDataChanged;
  std::string path;
  SessionId session = 0;

  std::vector<std::uint8_t> Encode() const;
  static Result<WatchEvent> Decode(const std::vector<std::uint8_t>& bytes);
};

}  // namespace dufs::zk
