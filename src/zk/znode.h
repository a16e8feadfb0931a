// The ZooKeeper data model: a tree of znodes with full stat structures,
// version checks, sequential and ephemeral nodes (paper §II-C / §IV-D).
//
// DataTree is a *real* data structure (not a model): every replica holds one
// and applies committed transactions to it in zxid order. All mutation
// entry points take the zxid/time stamps so replicas stay byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "wire/buffer.h"

namespace dufs::zk {

using Zxid = std::int64_t;
using SessionId = std::uint64_t;

struct ZnodeStat {
  Zxid czxid = 0;   // zxid of the create
  Zxid mzxid = 0;   // zxid of the last data modification
  Zxid pzxid = 0;   // zxid of the last child-list change
  std::int64_t ctime = 0;  // creation time (sim ns)
  std::int64_t mtime = 0;  // last-modification time (sim ns)
  std::int32_t version = 0;    // data version
  std::int32_t cversion = 0;   // children version
  SessionId ephemeral_owner = 0;  // 0 = persistent
  std::int32_t num_children = 0;
  std::int32_t data_length = 0;

  // Five i64 stamps, the owner u64 and four u32 counters.
  static constexpr std::size_t kEncodedSize = 5 * 8 + 8 + 4 * 4;

  void Encode(wire::BufferWriter& w) const;
  static Result<ZnodeStat> Decode(wire::BufferReader& r);
  friend bool operator==(const ZnodeStat&, const ZnodeStat&) = default;
};

enum class CreateMode : std::uint8_t {
  kPersistent = 0,
  kEphemeral = 1,
  kPersistentSequential = 2,
  kEphemeralSequential = 3,
};

inline bool IsEphemeral(CreateMode m) {
  return m == CreateMode::kEphemeral || m == CreateMode::kEphemeralSequential;
}
inline bool IsSequential(CreateMode m) {
  return m == CreateMode::kPersistentSequential ||
         m == CreateMode::kEphemeralSequential;
}

// Version wildcard accepted by Delete/SetData (matches ZooKeeper's -1).
inline constexpr std::int32_t kAnyVersion = -1;

// Path syntax: "/" or "/seg(/seg)*"; segments non-empty, no '/', not "."/"..".
Status ValidatePath(std::string_view path);
// Parent of "/a/b" is "/a"; parent of "/a" is "/". Precondition: valid, != "/".
// ParentView aliases `path` (or a static "/"); ParentPath copies it.
std::string_view ParentView(std::string_view path);
std::string ParentPath(std::string_view path);
// Basename of "/a/b" is "b".
std::string_view BaseName(std::string_view path);
// Components of "/a/b/c" are ["a", "b", "c"]; "/" has none. The views alias
// `path`, so the caller keeps the backing string alive. Precondition: valid.
std::vector<std::string_view> PathComponents(std::string_view path);
// ValidatePath and PathComponents in one pass. `out` is cleared first and
// keeps its capacity, so a caller that reuses it splits without allocating;
// on an invalid path its contents are unspecified.
Status SplitValidPath(std::string_view path,
                      std::vector<std::string_view>& out);

class DataTree {
 public:
  struct Znode {
    std::string name;  // path component (empty for the root)
    std::vector<std::uint8_t> data;
    ZnodeStat stat;
    std::uint64_t next_sequence = 0;  // counter for sequential children
    std::map<std::string, std::unique_ptr<Znode>, std::less<>> children;
  };

  DataTree();

  // --- mutations (called only when applying committed txns) -------------
  // Returns the actual created path (differs from `path` for sequential
  // nodes, which get a zero-padded 10-digit suffix appended).
  Result<std::string> Create(std::string_view path,
                             std::vector<std::uint8_t> data, CreateMode mode,
                             SessionId session, Zxid zxid, std::int64_t time);
  Status Delete(std::string_view path, std::int32_t expected_version,
                Zxid zxid);
  Result<ZnodeStat> SetData(std::string_view path,
                            std::vector<std::uint8_t> data,
                            std::int32_t expected_version, Zxid zxid,
                            std::int64_t time);
  // Create/Delete below a parent the caller has already walked to (a node
  // of this tree), so a resolving txn touches each path component once.
  // CreateChild appends the sequence suffix itself and returns the new node.
  Result<Znode*> CreateChild(Znode& parent, std::string_view name,
                             std::vector<std::uint8_t> data, CreateMode mode,
                             SessionId session, Zxid zxid, std::int64_t time);
  Status DeleteChild(Znode& parent, std::string_view name,
                     std::int32_t expected_version, Zxid zxid);

  // --- reads -------------------------------------------------------------
  Result<const Znode*> Find(std::string_view path) const;
  Result<ZnodeStat> Stat(std::string_view path) const;
  Result<std::vector<std::string>> GetChildren(std::string_view path) const;
  bool Exists(std::string_view path) const { return Find(path).ok(); }

  // All ephemeral paths owned by `session` (session-close cleanup).
  std::vector<std::string> EphemeralsOf(SessionId session) const;

  std::size_t node_count() const { return node_count_; }

  // Byte-level memory estimate of the replica's in-memory state, modeling
  // the JVM heap footprint the paper measures in Fig. 11 (znode objects,
  // the path hash index, child maps, string/array headers).
  std::size_t EstimateMemoryBytes() const;

  // --- snapshots (fuzzy snapshot + restore, used on server restart) ------
  void Serialize(wire::BufferWriter& w) const;
  static Result<std::unique_ptr<DataTree>> Deserialize(wire::BufferReader& r);

  // Structural digest for replica-consistency checks in tests.
  std::uint64_t Fingerprint() const;

  const Znode& root() const { return *root_; }

 private:
  // Walk/WalkMutable take a path that is already valid; nullptr if absent.
  const Znode* Walk(std::string_view path) const;
  Znode* WalkMutable(std::string_view path);
  Znode* FindMutable(std::string_view path);
  static void SerializeNode(const Znode& n, wire::BufferWriter& w);
  static Result<std::unique_ptr<Znode>> DeserializeNode(wire::BufferReader& r);

  std::unique_ptr<Znode> root_;
  std::size_t node_count_ = 1;  // includes the root
  std::size_t ephemeral_count_ = 0;
};

}  // namespace dufs::zk
