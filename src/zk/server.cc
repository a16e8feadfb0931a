#include "zk/server.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dufs::zk {
namespace {

// Internal peer-message codecs.
struct ProposeMsg {
  static constexpr std::size_t kHeaderBytes = 8 + 8;  // zxid, epoch

  Zxid zxid;
  std::int64_t epoch;
  Txn txn;

  // Encodes straight from the caller's txn (no copy into a message).
  static net::Payload Encode(Zxid zxid, std::int64_t epoch, const Txn& txn) {
    wire::BufferWriter w(kHeaderBytes + txn.EncodedSize());
    w.WriteI64(zxid);
    w.WriteI64(epoch);
    txn.Encode(w);
    return w.Take();
  }
  static Result<ProposeMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    ProposeMsg m;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    m.zxid = *zxid;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto txn = Txn::Decode(r);
    DUFS_RETURN_IF_ERROR(txn);
    m.txn = std::move(*txn);
    return m;
  }
};

// A contiguous run of sequenced proposals shipped as one message (group
// commit). The follower journals the run with one fsync and ACKs the whole
// [lo, hi] zxid range back.
struct BatchProposeMsg {
  std::int64_t epoch;
  std::vector<std::pair<Zxid, Txn>> entries;

  // Encodes straight from the caller's run; `txn_bytes` gets the summed
  // encoded size of its txns (the journal write each replica models).
  static net::Payload Encode(std::int64_t epoch,
                             const std::vector<std::pair<Zxid, Txn>>& entries,
                             std::size_t& txn_bytes) {
    std::size_t size = 8 + wire::VarintSize(entries.size());
    for (const auto& entry : entries) size += 8 + entry.second.EncodedSize();
    wire::BufferWriter w(size);
    w.WriteI64(epoch);
    w.WriteVarint(entries.size());
    txn_bytes = 0;
    for (const auto& [zxid, txn] : entries) {
      w.WriteI64(zxid);
      const std::size_t start = w.size();
      txn.Encode(w);
      txn_bytes += w.size() - start;
    }
    return w.Take();
  }
  static Result<BatchProposeMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    BatchProposeMsg m;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto count = r.ReadVarint();
    DUFS_RETURN_IF_ERROR(count);
    m.entries.reserve(*count);
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto zxid = r.ReadI64();
      DUFS_RETURN_IF_ERROR(zxid);
      auto txn = Txn::Decode(r);
      DUFS_RETURN_IF_ERROR(txn);
      m.entries.emplace_back(*zxid, std::move(*txn));
    }
    return m;
  }
};

net::Payload EncodeZxid(Zxid zxid) {
  wire::BufferWriter w;
  w.WriteI64(zxid);
  return w.Take();
}

net::Payload EncodeZxidRange(Zxid lo, Zxid hi) {
  wire::BufferWriter w;
  w.WriteI64(lo);
  w.WriteI64(hi);
  return w.Take();
}

Result<Zxid> DecodeZxid(const net::Payload& bytes) {
  wire::BufferReader r(bytes);
  return r.ReadI64();
}

// The leader's reply to a forwarded write. The encoded ClientResponse is
// relayed to the client as is, so the forwarding server never decodes it.
struct ForwardResponse {
  Zxid zxid = 0;
  net::Payload response;  // encoded ClientResponse

  net::Payload Encode() const {
    wire::BufferWriter w(8 + wire::BlobSize(response.size()));
    w.WriteI64(zxid);
    w.WriteBytes(response);
    return w.Take();
  }
  static Result<ForwardResponse> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    ForwardResponse f;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    f.zxid = *zxid;
    auto blob = r.ReadBytes();
    DUFS_RETURN_IF_ERROR(blob);
    f.response = std::move(*blob);
    return f;
  }
};

struct VoteMsg {
  std::int64_t round;
  std::int64_t epoch;
  Zxid zxid;
  std::uint64_t candidate;
  std::uint64_t from;

  net::Payload Encode() const {
    wire::BufferWriter w;
    w.WriteI64(round);
    w.WriteI64(epoch);
    w.WriteI64(zxid);
    w.WriteU64(candidate);
    w.WriteU64(from);
    return w.Take();
  }
  static Result<VoteMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    VoteMsg m;
    auto round = r.ReadI64();
    DUFS_RETURN_IF_ERROR(round);
    m.round = *round;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    m.zxid = *zxid;
    auto cand = r.ReadU64();
    DUFS_RETURN_IF_ERROR(cand);
    m.candidate = *cand;
    auto from = r.ReadU64();
    DUFS_RETURN_IF_ERROR(from);
    m.from = *from;
    return m;
  }
};

ClientResponse UnavailableResponse() {
  ClientResponse resp;
  resp.result.code = StatusCode::kUnavailable;
  return resp;
}

}  // namespace

ZkServer::ZkServer(net::RpcEndpoint& endpoint, ZkEnsembleConfig config,
                   std::size_t my_index)
    : endpoint_(endpoint),
      config_(std::move(config)),
      my_index_(my_index),
      db_(std::make_unique<Database>()) {
  DUFS_CHECK(my_index_ < config_.servers.size());
  DUFS_CHECK(config_.servers.size() <= 64);  // Proposal::acks is a bitmask
  DUFS_CHECK(config_.servers[my_index_] == endpoint_.self());
}

void ZkServer::Start() {
  DUFS_CHECK(!started_);
  started_ = true;
  // The bound closures live in the endpoint's handler map; `this` outlives
  // them, and the inner lambda is not itself a coroutine (it forwards to a
  // member coroutine whose frame holds `this` via the implicit parameter).
  auto bind = [this](auto method_fn) {
    return [this, method_fn](net::NodeId from,  // dufs-lint: allow(coro-capture-ref)
                             net::Payload req) -> sim::Task<net::RpcResult> {
      return (this->*method_fn)(from, std::move(req));
    };
  };
  endpoint_.RegisterHandler(method::kRequest, bind(&ZkServer::HandleRequest));
  endpoint_.RegisterHandler(method::kForward, bind(&ZkServer::HandleForward));
  endpoint_.RegisterHandler(method::kPropose, bind(&ZkServer::HandlePropose));
  endpoint_.RegisterHandler(method::kAckProposal, bind(&ZkServer::HandleAck));
  endpoint_.RegisterHandler(method::kBatchPropose,
                            bind(&ZkServer::HandleBatchPropose));
  endpoint_.RegisterHandler(method::kBatchAck,
                            bind(&ZkServer::HandleBatchAck));
  endpoint_.RegisterHandler(method::kCommit, bind(&ZkServer::HandleCommit));
  endpoint_.RegisterHandler(method::kFollowerInfo,
                            bind(&ZkServer::HandleFollowerInfo));
  endpoint_.RegisterHandler(method::kPing, bind(&ZkServer::HandlePing));
  endpoint_.RegisterHandler(method::kElectionVote,
                            bind(&ZkServer::HandleElectionVote));
  endpoint_.RegisterHandler(method::kSessionPing,
                            bind(&ZkServer::HandleSessionPing));

  read_pipeline_ = std::make_unique<sim::Resource>(endpoint_.sim(), 1);
  write_pipeline_ = std::make_unique<sim::Resource>(endpoint_.sim(), 1);
  journal_mb_ = std::make_unique<sim::Mailbox<JournalEntry>>(endpoint_.sim());

  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(JournalLoop());
  if (config_.session_timeout > 0) {
    endpoint_.sim().Spawn(SessionExpiryLoop());
  }

  if (my_index_ == 0) {
    role_ = Role::kLeading;
    leader_index_ = 0;
    if (config_.enable_failure_detection) {
      endpoint_.sim().Spawn(LeaderPingLoop(epoch_));
    }
  } else {
    role_ = Role::kFollowing;
    leader_index_ = 0;
    last_ping_ = endpoint_.sim().now();
    if (config_.enable_failure_detection) {
      endpoint_.sim().Spawn(FollowerWatchdog());
    }
  }
}

Status ZkServer::RestoreSnapshot(const std::vector<std::uint8_t>& snap) {
  auto db = Database::Restore(snap);
  DUFS_RETURN_IF_ERROR(db);
  db_ = std::move(*db);
  return Status::Ok();
}

void ZkServer::OnRestart() {
  // Volatile replication state is gone; the Database reflects the journal
  // replay (RestoreSnapshot). Rejoin by looking for the current leader.
  proposals_.clear();
  propose_queue_.clear();
  flush_scheduled_ = false;
  journal_pending_ = 0;
  pending_txns_.clear();
  committed_not_applied_.clear();
  apply_waiters_.clear();
  result_wanted_.clear();
  local_results_.clear();
  last_committed_ = db_->last_applied();
  // The in-memory log may disagree with the restored snapshot; drop it and
  // serve any pre-restore sync requests with a full snapshot instead.
  committed_log_.clear();
  log_truncated_upto_ = db_->last_applied();
  // Never reuse zxids from a previous life.
  epoch_ = std::max<std::int64_t>(epoch_, (db_->last_applied() >> 40) + 1);
  zxid_counter_ = 0;
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  if (config_.enable_failure_detection) {
    role_ = Role::kLooking;
    StartElection();
    endpoint_.sim().Spawn(FollowerWatchdog());
  } else {
    // Static-leader mode: resync from server 0.
    role_ = Role::kFollowing;
    leader_index_ = 0;
    if (my_index_ == 0) {
      role_ = Role::kLeading;
    } else {
      endpoint_.sim().Spawn(SyncWithLeader(0));
    }
  }
}

// -------------------------------------------------------- observability ----

void ZkServer::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  c_reads_ = obs_.counter("zk.reads");
  c_writes_ = obs_.counter("zk.writes");
  c_compound_ = obs_.counter("zk.compound_ops");
  h_resolve_depth_ = obs_.histogram("zk.resolve_depth");
  g_read_queue_ = obs_.gauge("zk.read_queue");
  g_write_queue_ = obs_.gauge("zk.write_queue");
  g_journal_pending_ = obs_.gauge("journal.pending");
  h_fsync_batch_ = obs_.histogram("journal.fsync_batch");
}

// --------------------------------------------------------------- reads ----

sim::Task<net::RpcResult> ZkServer::HandleRequest(net::NodeId from,
                                                  net::Payload req_bytes) {
  auto req = ClientRequest::Decode(req_bytes);
  if (!req.ok()) co_return req.status();
  if (req->session != 0) {
    session_activity_[req->session] = endpoint_.sim().now();
    if (req->op.type == OpType::kCloseSession) {
      session_activity_.erase(req->session);
    }
  }

  if (IsWrite(req->op.type) || req->op.type == OpType::kSync) {
    c_writes_.Inc();
    const auto write_depth =
        static_cast<std::int64_t>(write_pipeline_->queue_length());
    g_write_queue_.Set(write_depth);
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordQueueDepth(obs_.track, write_depth);
    }
    // Server-side work runs on this node's coroutine stack, not the
    // client's: root the profiler attribution at the node frame.
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    obs::Span span(obs_.tracer, obs_.track, "zk-write", "zk", req->trace);
    // Compound writes register watches *here* on the session server after
    // the txn applies (the replicated state machine stays watch-free); the
    // op fields needed for that outlive the move below.
    const OpType op_type = req->op.type;
    const bool op_watch = req->op.watch;
    std::string op_path = IsCompound(op_type) ? req->op.path : std::string();
    Txn txn;
    txn.session = req->session;
    txn.trace = req->trace;
    txn.op = std::move(req->op);
    txn.multi_ops = std::move(req->multi_ops);
    auto resp = co_await SubmitWrite(std::move(txn));
    if (!resp.ok()) co_return UnavailableResponse().Encode();
    if (IsCompound(op_type)) {
      c_compound_.Inc();
      auto head = ClientResponse::DecodeHead(*resp);
      if (!head.ok()) co_return head.status();
      h_resolve_depth_.Record(static_cast<std::int64_t>(head->resolved_depth));
      if (op_watch) {
        RegisterCompoundWatches(op_type, op_path, *head, req->session, from);
      }
    }
    co_return std::move(*resp);
  }

  // Local read through the serialized read pipeline.
  c_reads_.Inc();
  const auto read_depth =
      static_cast<std::int64_t>(read_pipeline_->queue_length());
  g_read_queue_.Set(read_depth);
  if (obs_.incidents != nullptr) {
    obs_.incidents->RecordQueueDepth(obs_.track, read_depth);
  }
  prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
  obs::Span span(obs_.tracer, obs_.track, "zk-read", "zk", req->trace);
  {
    auto guard = co_await read_pipeline_->Acquire();
    co_await endpoint_.sim().Delay(config_.perf.read_cpu);
  }
  ClientResponse resp;
  resp.result = db_->Read(req->op);
  if (IsCompound(req->op.type)) {
    c_compound_.Inc();
    h_resolve_depth_.Record(
        static_cast<std::int64_t>(resp.result.resolved_depth));
    if (req->op.watch) {
      RegisterCompoundWatches(req->op.type, req->op.path, resp.result,
                              req->session, from);
    }
  } else if (req->op.watch) {
    RegisterWatch(req->op, req->session, from);
  }
  ++reads_served_;
  co_return resp.Encode();
}

std::size_t WatchTable::FilterBit(std::size_t hash) const {
  // Fibonacci hashing: the top bits of the product mix every hash bit.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >>
      filter_shift_);
}

void WatchTable::RebuildFilter() {
  adds_until_rebuild_ = std::max(paths_.size(), kMinRebuildAdds);
  const std::size_t want = kBitsPerPath * (paths_.size() + adds_until_rebuild_);
  std::size_t bits = 64;
  filter_shift_ = 58;
  while (bits < want) {
    bits *= 2;
    --filter_shift_;
  }
  filter_.assign(bits / 64, 0);
  // Setting bits is order-independent, so the hash order is not observable.
  // dufs-lint: allow(det-export-order)
  for (const auto& [path, watchers] : paths_) {
    const std::size_t bit = FilterBit(Hash{}(path));
    filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
}

void WatchTable::Add(std::string_view path, Watcher watcher) {
  auto it = paths_.find(path);
  if (it == paths_.end()) {
    if (adds_until_rebuild_ == 0) RebuildFilter();
    --adds_until_rebuild_;
    const std::size_t bit = FilterBit(Hash{}(path));
    filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
    it = paths_.emplace(std::string(path), 0).first;
  }
  auto& watchers = it->second;
  auto at = std::lower_bound(watchers.begin(), watchers.end(), watcher);
  if (at == watchers.end() || *at != watcher) watchers.insert(at, watcher);
}

std::vector<WatchTable::Watcher> WatchTable::Take(std::string_view path) {
  if (filter_.empty()) return {};
  const std::size_t bit = FilterBit(Hash{}(path));
  if ((filter_[bit / 64] & (std::uint64_t{1} << (bit % 64))) == 0) return {};
  auto it = paths_.find(path);
  if (it == paths_.end()) return {};
  std::vector<Watcher> watchers = std::move(it->second);
  paths_.erase(it);
  return watchers;
}

void ZkServer::RegisterWatch(const Op& op, SessionId session,
                             net::NodeId client) {
  switch (op.type) {
    case OpType::kGetData:
    case OpType::kExists:
      data_watches_.Add(op.path, {session, client});
      break;
    case OpType::kGetChildren:
      child_watches_.Add(op.path, {session, client});
      break;
    default:
      break;
  }
}

void ZkServer::RegisterCompoundWatches(OpType type, std::string_view path,
                                       const OpResult& result,
                                       SessionId session,
                                       net::NodeId client) {
  const WatchTable::Watcher key{session, client};
  // path.substr(0, end) is the prefix walked so far; the root has no
  // components to walk.
  auto next_end = [path](std::size_t end) {
    const auto slash = path.find('/', end + 1);
    return slash == std::string_view::npos ? path.size() : slash;
  };
  std::size_t end = path.size() > 1 ? 0 : path.size();
  // Data watch on every component the walk resolved. resolved_depth may
  // exceed prefix.size() by one (the terminal rides stat/data), and for a
  // successful ResolveDelete it is one *less* than the walk reached — the
  // deleted terminal gets the existence watch below instead.
  for (std::uint32_t watched = 0;
       end < path.size() && watched < result.resolved_depth; ++watched) {
    end = next_end(end);
    data_watches_.Add(path.substr(0, end), key);
  }
  // Partial miss: an existence watch on the first missing component keeps
  // the client's negative cache entry coherent (kNodeCreated fires it).
  if (end < path.size()) {
    data_watches_.Add(path.substr(0, next_end(end)), key);
    return;
  }
  if (type == OpType::kReadDirPlus && result.ok()) {
    // The listing seeds one positive cache entry per child: mirror it with
    // a child watch on the directory plus a data watch per entry.
    child_watches_.Add(path, key);
    std::string child_path(path);
    if (path != "/") child_path.push_back('/');
    const std::size_t dir_len = child_path.size();
    for (const auto& entry : result.entries) {
      child_path.resize(dir_len);
      child_path.append(entry.name);
      data_watches_.Add(child_path, key);
    }
  }
}

void ZkServer::FireTriggers(const std::vector<AppliedTxn::Trigger>& triggers) {
  for (const auto& trig : triggers) {
    auto& table = trig.type == WatchEventType::kNodeChildrenChanged
                      ? child_watches_
                      : data_watches_;
    // One-shot, like ZooKeeper.
    for (const auto& [session, client] : table.Take(trig.path)) {
      WatchEvent ev;
      ev.type = trig.type;
      ev.path = trig.path;
      ev.session = session;
      endpoint_.Notify(client, method::kWatchEvent, ev.Encode());
    }
  }
}

// -------------------------------------------------------------- writes ----

sim::Task<Result<net::Payload>> ZkServer::SubmitWrite(Txn txn) {
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(txn), zxid);
  co_return resp;
}

sim::Task<Result<net::Payload>> ZkServer::SubmitWriteTracked(Txn txn,
                                                               Zxid& zxid) {  // dufs-lint: allow(coro-ref-param)
  if (role_ == Role::kLeading) {
    {
      // The leader's single request-processor thread: serialization +
      // per-follower replication work. This stage is the write-throughput
      // limiter and the reason Fig. 7's write curves fall as servers are
      // added.
      auto guard = co_await write_pipeline_->Acquire();
      if (config_.group_commit) {
        // Group commit: the per-op stage pays only the serialization cost
        // and assigns the zxid under the guard (preserving order); the
        // per-follower replication work is paid once per batch by the
        // flush task, which queues behind the submitters on this pipeline.
        co_await endpoint_.sim().Delay(config_.perf.write_cpu);
        zxid = MakeZxid();
        txn.time = endpoint_.sim().now();
        propose_queue_.emplace_back(zxid, std::move(txn));
      } else {
        const auto peers =
            static_cast<sim::Duration>(config_.servers.size() - 1);
        co_await endpoint_.sim().Delay(config_.perf.write_cpu +
                                       peers * config_.perf.per_peer_cpu);
      }
    }
    if (config_.group_commit) {
      ScheduleProposalFlush();
    } else {
      zxid = ProposeAsLeader(std::move(txn));
    }
    result_wanted_.insert(zxid);
    const bool applied = co_await WaitApplied(zxid);
    if (!applied) {
      result_wanted_.erase(zxid);
      co_return Status(StatusCode::kUnavailable, "commit timed out");
    }
    auto it = local_results_.find(zxid);
    if (it == local_results_.end()) {
      co_return Status(StatusCode::kInternal, "missing local result");
    }
    net::Payload resp = it->second.Encode();
    local_results_.erase(it);
    co_return resp;
  }

  // Follower: forward to the leader, then wait until the local replica has
  // applied the txn so this session observes its own write.
  wire::BufferWriter w;
  txn.Encode(w);
  auto result = co_await endpoint_.Call(server_node(leader_index_),
                                        method::kForward, w.Take(),
                                        /*timeout=*/sim::Sec(2));
  if (!result.ok()) co_return result.status();
  auto fwd = ForwardResponse::Decode(*result);
  if (!fwd.ok()) co_return fwd.status();
  zxid = fwd->zxid;
  (void)co_await WaitApplied(fwd->zxid);
  co_return std::move(fwd->response);
}

sim::Task<net::RpcResult> ZkServer::HandleForward(net::NodeId /*from*/,
                                                  net::Payload req) {
  wire::BufferReader r(req);
  auto txn = Txn::Decode(r);
  if (!txn.ok()) co_return txn.status();
  if (role_ != Role::kLeading) {
    // Stale leadership information at the forwarder; let it time out and
    // retry after discovering the new leader.
    co_return Status(StatusCode::kUnavailable, "not the leader");
  }
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(*txn), zxid);
  if (!resp.ok()) co_return resp.status();
  ForwardResponse fwd;
  fwd.zxid = zxid;
  fwd.response = std::move(*resp);
  co_return fwd.Encode();
}

Zxid ZkServer::ProposeAsLeader(Txn txn) {
  DUFS_CHECK(role_ == Role::kLeading);
  const Zxid zxid = MakeZxid();
  txn.time = endpoint_.sim().now();  // replica-identical ctime/mtime stamps
  const obs::TraceId trace = txn.trace;

  const auto payload = ProposeMsg::Encode(zxid, epoch_, txn);
  const std::size_t txn_bytes = payload.size() - ProposeMsg::kHeaderBytes;
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kPropose, payload);
  }

  pending_txns_.emplace(zxid, std::move(txn));
  proposals_.emplace(zxid,
                     Proposal{trace, {}, false, endpoint_.sim().now()});
  MaybeScheduleRetransmit();

  // Self-ack after the local journal write.
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(
      [](ZkServer& self, Zxid z, std::size_t bytes,
         obs::TraceId tr) -> sim::Task<void> {
        co_await self.JournalAppend(z, bytes, tr);
        auto it = self.proposals_.find(z);
        if (it == self.proposals_.end()) co_return;
        it->second.acks |= std::uint64_t{1} << self.my_index_;
        self.TryCommitInOrder();
      }(*this, zxid, txn_bytes, trace));
  return zxid;
}

void ZkServer::ScheduleProposalFlush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(FlushProposalQueue());
}

// Drains propose_queue_ in batches. The batching window is implicit: the
// flush task queues on the write pipeline *behind* every submitter that is
// currently sequencing, so one wave picks up everything that accumulated
// while the previous wave was broadcasting (classic group commit, same
// shape as JournalLoop below).
sim::Task<void> ZkServer::FlushProposalQueue() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  while (!propose_queue_.empty()) {
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (role_ != Role::kLeading || !endpoint_.node().up()) {
      // Deposed or crashed mid-queue: abandon — submitters time out and
      // their clients retry against the new leader.
      propose_queue_.clear();
      break;
    }
    // Pace quorum rounds to journal-fsync cycles (classic group commit):
    // while the previous round's disk sync is in flight, submitters keep
    // sequencing onto the queue, so each fsync carries one big batch
    // instead of many tiny ones. No fsync in flight -> no added latency.
    while (journal_pending_ > 0) {
      co_await endpoint_.sim().Delay(sim::Us(200));
      if (endpoint_.node().incarnation() != incarnation) co_return;
    }
    if (role_ != Role::kLeading || !endpoint_.node().up()) continue;
    auto guard = co_await write_pipeline_->Acquire();
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (propose_queue_.empty()) break;
    const std::size_t n =
        std::min(propose_queue_.size(), config_.perf.max_journal_batch);
    std::vector<std::pair<Zxid, Txn>> batch(
        std::make_move_iterator(propose_queue_.begin()),
        std::make_move_iterator(propose_queue_.begin() +
                                static_cast<std::ptrdiff_t>(n)));
    propose_queue_.erase(propose_queue_.begin(),
                         propose_queue_.begin() +
                             static_cast<std::ptrdiff_t>(n));
    ++batch_rounds_;
    proposals_batched_ += n;
    const sim::SimTime wave_start = endpoint_.sim().now();
    const obs::TraceId wave_trace = batch.front().second.trace;
    // Per-follower replication bookkeeping, amortized over the batch.
    const auto peers = static_cast<sim::Duration>(config_.servers.size() - 1);
    co_await endpoint_.sim().Delay(peers * config_.perf.per_peer_cpu);

    std::size_t total_bytes = 0;
    const auto payload = BatchProposeMsg::Encode(epoch_, batch, total_bytes);
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kBatchPropose, payload);
    }

    const Zxid lo = batch.front().first;
    const Zxid hi = batch.back().first;
    for (auto& [zxid, txn] : batch) {
      const obs::TraceId trace = txn.trace;
      pending_txns_.emplace(zxid, std::move(txn));
      proposals_.emplace(zxid, Proposal{trace, {}, false, wave_start});
    }
    MaybeScheduleRetransmit();

    if (recording()) {
      // One span per quorum wave, attributed to the first txn's trace.
      // Args only when the full event log wants them (flight records are
      // POD; no arg vector on the flight-only path).
      std::vector<obs::Tracer::Arg> args;
      if (tracing()) {
        args = {{"batch", {}, static_cast<std::int64_t>(n), false},
                {"zxid_lo", {}, static_cast<std::int64_t>(lo), false},
                {"zxid_hi", {}, static_cast<std::int64_t>(hi), false}};
      }
      obs_.tracer->Complete(obs_.track, "group-commit-flush", "zab",
                            wave_start, endpoint_.sim().now() - wave_start,
                            wave_trace, std::move(args));
    }

    // Self-ack the whole run after one local group-commit fsync.
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(
        [](ZkServer& self, Zxid lo_z, Zxid hi_z, std::size_t bytes,
           obs::TraceId tr) -> sim::Task<void> {
          co_await self.JournalAppend(hi_z, bytes, tr);
          for (auto it = self.proposals_.lower_bound(lo_z);
               it != self.proposals_.end() && it->first <= hi_z; ++it) {
            it->second.acks |= std::uint64_t{1} << self.my_index_;
          }
          self.TryCommitInOrder();
        }(*this, lo, hi, total_bytes, wave_trace));
  }
  flush_scheduled_ = false;
  // A submitter may have enqueued between the last drain and the flag
  // reset; make sure nothing is stranded.
  if (!propose_queue_.empty()) ScheduleProposalFlush();
}

// Lost PROPOSE/ACK messages (partitions, crashes) must not wedge the commit
// pipeline: while any proposal is outstanding, periodically re-broadcast
// the head of the queue. The timer chain self-terminates when the queue
// empties, so idle ensembles still drain the event loop.
void ZkServer::MaybeScheduleRetransmit() {
  if (retransmit_scheduled_ || proposals_.empty()) return;
  retransmit_scheduled_ = true;
  endpoint_.sim().ScheduleFn(sim::Ms(400), [this] {
    retransmit_scheduled_ = false;
    if (role_ != Role::kLeading || !endpoint_.node().up()) return;
    std::size_t sent = 0;
    for (const auto& [zxid, proposal] : proposals_) {
      const auto txn = pending_txns_.find(zxid);
      if (txn == pending_txns_.end()) continue;  // applied via a newer COMMIT
      const auto payload = ProposeMsg::Encode(zxid, epoch_, txn->second);
      for (std::size_t i = 0; i < config_.servers.size(); ++i) {
        if (i == my_index_) continue;
        if ((proposal.acks >> i) & 1) continue;
        endpoint_.Notify(server_node(i), method::kPropose, payload);
      }
      if (++sent >= 16) break;  // head of the queue commits first anyway
    }
    MaybeScheduleRetransmit();
  });
}

sim::Task<net::RpcResult> ZkServer::HandlePropose(net::NodeId from,
                                                  net::Payload req) {
  auto msg = ProposeMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->epoch < epoch_) co_return Status(StatusCode::kConflict, "stale");
  if (msg->epoch > epoch_) epoch_ = msg->epoch;

  // Retransmit handling: if we already journaled this zxid (or applied
  // it), just re-ack — the original ACK may have been lost.
  if (msg->zxid <= db_->last_applied() ||
      pending_txns_.count(msg->zxid) > 0) {
    endpoint_.Notify(from, method::kAckProposal, EncodeZxid(msg->zxid));
    co_return net::Payload{};
  }
  const std::size_t bytes = req.size();
  const obs::TraceId trace = msg->txn.trace;
  pending_txns_.emplace(msg->zxid, std::move(msg->txn));
  co_await endpoint_.node().Compute(config_.perf.follower_txn_cpu);
  co_await JournalAppend(msg->zxid, bytes, trace);
  endpoint_.Notify(from, method::kAckProposal, EncodeZxid(msg->zxid));
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleAck(net::NodeId from,
                                              net::Payload req) {
  auto zxid = DecodeZxid(req);
  if (!zxid.ok()) co_return zxid.status();
  auto it = proposals_.find(*zxid);
  if (it != proposals_.end()) {
    it->second.acks |= AckBit(from);
    TryCommitInOrder();
  }
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleBatchPropose(net::NodeId from,
                                                       net::Payload req) {
  auto msg = BatchProposeMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->entries.empty()) co_return net::Payload{};
  if (msg->epoch < epoch_) co_return Status(StatusCode::kConflict, "stale");
  if (msg->epoch > epoch_) epoch_ = msg->epoch;

  const Zxid lo = msg->entries.front().first;
  const Zxid hi = msg->entries.back().first;
  const obs::TraceId trace = msg->entries.front().second.trace;
  std::size_t fresh = 0;
  for (auto& [zxid, txn] : msg->entries) {
    // Retransmit handling: anything already journaled or applied is just
    // re-acked by the range ACK below.
    if (zxid <= db_->last_applied() || pending_txns_.count(zxid) > 0) {
      continue;
    }
    pending_txns_.emplace(zxid, std::move(txn));
    ++fresh;
  }
  if (fresh > 0) {
    co_await endpoint_.node().Compute(
        config_.perf.follower_txn_cpu * static_cast<sim::Duration>(fresh));
    // One journal entry for the run: a single group-commit fsync covers
    // the whole batch.
    co_await JournalAppend(hi, req.size(), trace);
  }
  // Cumulative ACK: every zxid in [lo, hi] is durable here. The range is
  // exact (never beyond what this message carried), so a lost earlier
  // batch can not be acked by accident.
  endpoint_.Notify(from, method::kBatchAck, EncodeZxidRange(lo, hi));
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleBatchAck(net::NodeId from,
                                                   net::Payload req) {
  wire::BufferReader r(req);
  auto lo = r.ReadI64();
  if (!lo.ok()) co_return lo.status();
  auto hi = r.ReadI64();
  if (!hi.ok()) co_return hi.status();
  bool any = false;
  for (auto it = proposals_.lower_bound(*lo);
       it != proposals_.end() && it->first <= *hi; ++it) {
    it->second.acks |= AckBit(from);
    any = true;
  }
  if (any) TryCommitInOrder();
  co_return net::Payload{};
}

std::uint64_t ZkServer::AckBit(net::NodeId node) const {
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (config_.servers[i] == node) return std::uint64_t{1} << i;
  }
  return 0;
}

void ZkServer::TryCommitInOrder() {
  // Commit strictly in zxid order: the head proposal must reach quorum
  // before anything behind it commits.
  bool committed_any = false;
  while (!proposals_.empty()) {
    auto it = proposals_.begin();
    // +1: the leader's own durability is counted by its self-ack entry, so
    // quorum() includes it naturally.
    const auto acks = static_cast<std::size_t>(std::popcount(it->second.acks));
    if (acks < quorum()) break;
    const Zxid zxid = it->first;
    if (recording() && it->second.proposed_at > 0) {
      // PROPOSE -> quorum of ACKs, on the leader's track.
      std::vector<obs::Tracer::Arg> args;
      if (tracing()) {
        args = {{"zxid", {}, static_cast<std::int64_t>(zxid), false},
                {"acks", {}, static_cast<std::int64_t>(acks), false}};
      }
      obs_.tracer->Complete(obs_.track, "quorum-round", "zab",
                            it->second.proposed_at,
                            endpoint_.sim().now() - it->second.proposed_at,
                            it->second.trace, std::move(args));
    }
    proposals_.erase(it);
    last_committed_ = zxid;
    ++writes_committed_;
    committed_any = true;
    if (!config_.group_commit) BroadcastCommit(zxid);
    committed_not_applied_.insert(zxid);
    ApplyCommitted();
  }
  // Group commit: one COMMIT watermark for the whole quorumed run (the
  // receiver treats it cumulatively).
  if (config_.group_commit && committed_any) BroadcastCommit(last_committed_);
}

void ZkServer::AppendCommittedLog(Zxid zxid, Txn txn) {
  committed_log_.emplace_back(zxid, std::move(txn));
  if (committed_log_.size() > config_.max_log_entries) {
    log_truncated_upto_ = committed_log_.front().first;
    committed_log_.pop_front();  // older followers resync via snapshot
  }
}

void ZkServer::BroadcastCommit(Zxid zxid) {
  const auto payload = EncodeZxid(zxid);
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kCommit, payload);
  }
}

sim::Task<net::RpcResult> ZkServer::HandleCommit(net::NodeId /*from*/,
                                                 net::Payload req) {
  auto zxid = DecodeZxid(req);
  if (!zxid.ok()) co_return zxid.status();
  if (*zxid > last_committed_) last_committed_ = *zxid;
  // Cumulative: the leader commits in zxid order, so a COMMIT for z means
  // every pending proposal <= z is committed too (this is what lets the
  // group-commit leader send one watermark per batch).
  for (auto it = pending_txns_.begin();
       it != pending_txns_.end() && it->first <= *zxid; ++it) {
    committed_not_applied_.insert(it->first);
  }
  committed_not_applied_.insert(*zxid);
  co_await endpoint_.node().Compute(config_.perf.apply_cpu);
  ApplyCommitted();
  co_return net::Payload{};
}

void ZkServer::ApplyCommitted() {
  while (!committed_not_applied_.empty()) {
    const Zxid zxid = *committed_not_applied_.begin();
    if (zxid <= db_->last_applied()) {
      committed_not_applied_.erase(committed_not_applied_.begin());
      continue;  // already covered by a snapshot sync
    }
    auto it = pending_txns_.find(zxid);
    if (it == pending_txns_.end()) break;  // proposal not yet received
    // Only the server whose client waits on this txn builds its reply.
    const auto wanted = result_wanted_.find(zxid);
    const Reply reply =
        wanted != result_wanted_.end() ? Reply::kBuild : Reply::kSkip;
    AppliedTxn applied =
        db_->Apply(it->second, zxid, endpoint_.sim().now(), reply);
    FireTriggers(applied.triggers);
    // Every replica retains the committed tail: any of them may be elected
    // leader later and must be able to sync lagging followers.
    AppendCommittedLog(zxid, std::move(it->second));
    if (reply == Reply::kBuild) {
      ClientResponse resp;
      resp.result = std::move(applied.result);
      resp.multi_results = std::move(applied.multi_results);
      local_results_[zxid] = std::move(resp);
      result_wanted_.erase(wanted);
    }
    pending_txns_.erase(it);
    committed_not_applied_.erase(committed_not_applied_.begin());
  }
  CompleteApplyWaiters();
}

sim::Task<bool> ZkServer::WaitApplied(Zxid zxid) {
  if (db_->last_applied() >= zxid) co_return true;
  auto [future, promise] = sim::MakeFuture<bool>(endpoint_.sim());
  apply_waiters_[zxid].push_back(promise);
  // Give-up timer: a leader change can abandon the proposal; never strand
  // the waiter (the client will see kUnavailable and retry).
  endpoint_.sim().ScheduleFn(sim::Sec(3), [promise]() mutable {
    promise.Set(false);
  });
  co_return co_await std::move(future);
}

void ZkServer::CompleteApplyWaiters() {
  const Zxid applied = db_->last_applied();
  while (!apply_waiters_.empty() && apply_waiters_.begin()->first <= applied) {
    for (auto& promise : apply_waiters_.begin()->second) promise.Set(true);
    apply_waiters_.erase(apply_waiters_.begin());
  }
}

// ------------------------------------------------------------- journal ----

sim::Task<void> ZkServer::JournalAppend(Zxid zxid, std::size_t bytes,
                                        obs::TraceId trace) {
  auto [future, promise] = sim::MakeFuture<bool>(endpoint_.sim());
  ++journal_pending_;
  g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  journal_mb_->Send(JournalEntry{zxid, bytes, trace, promise});
  co_await std::move(future);
}

sim::Task<void> ZkServer::JournalLoop() {
  for (;;) {
    auto first = co_await journal_mb_->Recv();
    if (!first.has_value()) co_return;
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    prof::ProfScope fsync_scope("fsync-batch", prof::FrameKind::kComponent);
    std::vector<JournalEntry> batch;
    batch.push_back(std::move(*first));
    while (journal_mb_->size() > 0 &&
           batch.size() < config_.perf.max_journal_batch) {
      auto more = co_await journal_mb_->Recv();
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    std::size_t total = 0;
    for (const auto& e : batch) total += e.bytes;
    h_fsync_batch_.Record(static_cast<std::int64_t>(batch.size()));
    const sim::SimTime fsync_start = endpoint_.sim().now();
    co_await endpoint_.node().DiskWrite(total);  // one group-commit fsync
    const sim::SimTime fsync_end = endpoint_.sim().now();
    if (recording()) {
      // One span per batched entry — same interval, each entry's own trace
      // id — so the decomposition charges the shared fsync to every op it
      // made durable, not just the first in the batch.
      for (const auto& e : batch) {
        std::vector<obs::Tracer::Arg> args;
        if (tracing()) {
          args = {{"batch", {}, static_cast<std::int64_t>(batch.size()),
                   false},
                  {"bytes", {}, static_cast<std::int64_t>(total), false}};
        }
        obs_.tracer->Complete(obs_.track, "fsync-batch", "journal",
                              fsync_start, fsync_end - fsync_start, e.trace,
                              std::move(args));
      }
    }
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordFsync(obs_.track, fsync_end - fsync_start,
                                  static_cast<std::int64_t>(batch.size()));
    }
    for (auto& e : batch) {
      if (journal_pending_ > 0) --journal_pending_;
      e.done.Set(true);
    }
    g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  }
}

// ------------------------------------------- failure detection & votes ----

sim::Task<void> ZkServer::LeaderPingLoop(std::int64_t epoch_at_start) {
  while (role_ == Role::kLeading && epoch_ == epoch_at_start) {
    VoteMsg ping{election_round_, epoch_, last_committed_, my_index_,
                 my_index_};
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kPing, ping.Encode());
    }
    co_await endpoint_.sim().Delay(config_.ping_interval);
  }
}

sim::Task<net::RpcResult> ZkServer::HandlePing(net::NodeId /*from*/,
                                               net::Payload req) {
  auto msg = VoteMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->epoch < epoch_) co_return net::Payload{};  // stale leader
  if (role_ == Role::kLeading) {
    if (msg->epoch > epoch_ ||
        (msg->epoch == epoch_ && msg->candidate != my_index_)) {
      // A newer leader exists (we were partitioned away and deposed):
      // step down and fall through to follow it.
      DUFS_LOG(Info) << "server " << my_index_ << " deposed by epoch "
                     << msg->epoch;
      role_ = Role::kFollowing;
    } else {
      co_return net::Payload{};
    }
  }
  const bool new_leader = leader_index_ != msg->candidate;
  const bool was_looking = role_ == Role::kLooking;
  epoch_ = msg->epoch;
  leader_index_ = msg->candidate;
  last_ping_ = endpoint_.sim().now();
  role_ = Role::kFollowing;
  // Catch up whenever behind (covers sync attempts that failed during a
  // partition): the ping carries the leader's last committed zxid.
  const bool behind = msg->zxid > db_->last_applied();
  if ((was_looking || new_leader || behind) && !syncing_) {
    syncing_ = true;
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(SyncWithLeader(leader_index_));
  }
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleSessionPing(net::NodeId /*from*/,
                                                      net::Payload req) {
  wire::BufferReader r(req);
  auto session = r.ReadU64();
  if (!session.ok()) co_return session.status();
  session_activity_[*session] = endpoint_.sim().now();
  co_return net::Payload{};
}

// Expires silent sessions attached to this server with a replicated
// CloseSession (which deletes the session's ephemerals on every replica).
sim::Task<void> ZkServer::SessionExpiryLoop() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  for (;;) {
    co_await endpoint_.sim().Delay(config_.session_timeout / 2);
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (!endpoint_.node().up()) continue;
    const sim::SimTime now = endpoint_.sim().now();
    std::vector<SessionId> expired;
    for (const auto& [session, last] : session_activity_) {
      if (now - last > config_.session_timeout &&
          db_->SessionExists(session)) {
        expired.push_back(session);
      }
    }
    // `expired` was filled in session_activity_'s hash order; sort so the
    // CloseSession txn sequence is identical across stdlibs.
    std::sort(expired.begin(), expired.end());
    for (SessionId session : expired) {
      session_activity_.erase(session);
      Txn txn;
      txn.session = session;
      txn.op.type = OpType::kCloseSession;
      DUFS_LOG(Info) << "expiring session " << session;
      (void)co_await SubmitWrite(std::move(txn));
    }
  }
}

sim::Task<void> ZkServer::FollowerWatchdog() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  for (;;) {
    co_await endpoint_.sim().Delay(config_.election_timeout / 2);
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (!endpoint_.node().up()) continue;
    if (role_ == Role::kLeading) continue;
    if (role_ == Role::kFollowing &&
        endpoint_.sim().now() - last_ping_ <= config_.election_timeout) {
      continue;
    }
    if (role_ == Role::kFollowing) StartElection();
    // kLooking: keep re-broadcasting votes until the ensemble converges.
    if (role_ == Role::kLooking) {
      ++election_round_;
      votes_received_.clear();
      my_vote_ = Vote{epoch_, db_->last_applied(), my_index_};
      VoteMsg msg{election_round_, my_vote_.epoch, my_vote_.zxid,
                  my_vote_.candidate, my_index_};
      for (std::size_t i = 0; i < config_.servers.size(); ++i) {
        if (i == my_index_) continue;
        endpoint_.Notify(server_node(i), method::kElectionVote, msg.Encode());
      }
      MaybeDecideElection();
    }
  }
}

void ZkServer::StartElection() {
  role_ = Role::kLooking;
  ++election_round_;
  votes_received_.clear();
  my_vote_ = Vote{epoch_, db_->last_applied(), my_index_};
  VoteMsg msg{election_round_, my_vote_.epoch, my_vote_.zxid,
              my_vote_.candidate, my_index_};
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kElectionVote, msg.Encode());
  }
  MaybeDecideElection();
}

sim::Task<net::RpcResult> ZkServer::HandleElectionVote(net::NodeId from,
                                                       net::Payload req) {
  auto msg = VoteMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();

  if (role_ != Role::kLooking) {
    // Tell the looking peer who leads now.
    VoteMsg reply{msg->round, epoch_, db_->last_applied(), leader_index_,
                  my_index_};
    endpoint_.Notify(from, method::kElectionVote, reply.Encode());
    co_return net::Payload{};
  }

  Vote vote{msg->epoch, msg->zxid, msg->candidate};
  votes_received_[static_cast<std::size_t>(msg->from)] = vote;
  if (vote > my_vote_) {
    my_vote_ = vote;
    VoteMsg rebroadcast{election_round_, my_vote_.epoch, my_vote_.zxid,
                        my_vote_.candidate, my_index_};
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kElectionVote,
                       rebroadcast.Encode());
    }
  }
  MaybeDecideElection();
  co_return net::Payload{};
}

void ZkServer::MaybeDecideElection() {
  if (role_ != Role::kLooking) return;
  std::map<std::size_t, std::size_t> tally;
  ++tally[my_vote_.candidate];
  for (const auto& [from, vote] : votes_received_) ++tally[vote.candidate];
  for (const auto& [candidate, count] : tally) {
    if (count < quorum()) continue;
    if (candidate == my_index_) {
      sim::CurrentSimulationScope scope(&endpoint_.sim());
      endpoint_.sim().Spawn(BecomeLeader());
    } else {
      role_ = Role::kFollowing;
      leader_index_ = candidate;
      last_ping_ = endpoint_.sim().now();
      sim::CurrentSimulationScope scope(&endpoint_.sim());
      endpoint_.sim().Spawn(SyncWithLeader(candidate));
    }
    return;
  }
}

sim::Task<void> ZkServer::BecomeLeader() {
  role_ = Role::kLeading;
  leader_index_ = my_index_;
  epoch_ = std::max<std::int64_t>(epoch_, db_->last_applied() >> 40) + 1;
  zxid_counter_ = 0;
  // Abandon proposals from the previous epoch: their clients time out and
  // retry. Committed history is preserved.
  proposals_.clear();
  propose_queue_.clear();
  DUFS_LOG(Info) << "server " << my_index_ << " leading epoch " << epoch_;
  if (obs_.incidents != nullptr) {
    obs_.incidents->RecordLeaderChange(obs_.track, epoch_);
  }
  if (config_.enable_failure_detection) {
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(LeaderPingLoop(epoch_));
  }
  co_return;
}

sim::Task<void> ZkServer::SyncWithLeader(std::size_t leader_idx) {
  struct ClearFlag {
    ZkServer* self;
    ~ClearFlag() { self->syncing_ = false; }
  } clear{this};
  syncing_ = true;
  auto result = co_await endpoint_.Call(
      server_node(leader_idx), method::kFollowerInfo,
      EncodeZxid(db_->last_applied()), /*timeout=*/sim::Sec(1));
  if (!result.ok()) co_return;  // the watchdog retries
  wire::BufferReader r(*result);
  auto epoch = r.ReadI64();
  if (!epoch.ok()) co_return;
  auto is_snapshot = r.ReadBool();
  if (!is_snapshot.ok()) co_return;
  if (*is_snapshot) {
    auto blob = r.ReadBytes();
    if (!blob.ok()) co_return;
    co_await endpoint_.node().DiskWrite(blob->size());
    auto db = Database::Restore(*blob);
    if (!db.ok()) co_return;
    db_ = std::move(*db);
    epoch_ = std::max(epoch_, *epoch);
    last_committed_ = std::max(last_committed_, db_->last_applied());
    CompleteApplyWaiters();
    co_return;
  }
  auto count = r.ReadVarint();
  if (!count.ok()) co_return;
  if (*count > 0) co_await endpoint_.node().DiskWrite(result->size());
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto zxid = r.ReadI64();
    if (!zxid.ok()) co_return;
    auto txn = Txn::Decode(r);
    if (!txn.ok()) co_return;
    if (*zxid <= db_->last_applied()) continue;
    // Replayed history: no client waits on these results.
    AppliedTxn applied =
        db_->Apply(*txn, *zxid, endpoint_.sim().now(), Reply::kSkip);
    FireTriggers(applied.triggers);
    AppendCommittedLog(*zxid, std::move(*txn));
  }
  epoch_ = std::max(epoch_, *epoch);
  if (db_->last_applied() > last_committed_) {
    last_committed_ = db_->last_applied();
  }
  CompleteApplyWaiters();
}

sim::Task<net::RpcResult> ZkServer::HandleFollowerInfo(net::NodeId /*from*/,
                                                       net::Payload req) {
  auto since = DecodeZxid(req);
  if (!since.ok()) co_return since.status();
  if (role_ != Role::kLeading) {
    co_return Status(StatusCode::kUnavailable, "not the leader");
  }
  wire::BufferWriter w;
  w.WriteI64(epoch_);
  // If the follower predates the retained log tail, ship a full snapshot
  // instead of a diff.
  const bool need_snapshot = *since < log_truncated_upto_;
  w.WriteBool(need_snapshot);
  if (need_snapshot) {
    w.WriteBytes(db_->Snapshot());
    co_return w.Take();
  }
  std::vector<const std::pair<Zxid, Txn>*> missing;
  for (const auto& entry : committed_log_) {
    if (entry.first > *since) missing.push_back(&entry);
  }
  w.WriteVarint(missing.size());
  for (const auto* entry : missing) {
    w.WriteI64(entry->first);
    entry->second.Encode(w);
  }
  co_return w.Take();
}

}  // namespace dufs::zk
