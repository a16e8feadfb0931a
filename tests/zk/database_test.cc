#include "zk/database.h"

#include <gtest/gtest.h>

namespace dufs::zk {
namespace {

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

class DatabaseTest : public ::testing::Test {
 protected:
  Database db_;
  Zxid zxid_ = 0;

  AppliedTxn Apply(Op op, SessionId session = 1) {
    Txn txn;
    txn.session = session;
    txn.op = std::move(op);
    ++zxid_;
    return db_.Apply(txn, zxid_, zxid_ * 100);
  }

  AppliedTxn ApplyMulti(std::vector<Op> ops, SessionId session = 1) {
    Txn txn;
    txn.session = session;
    txn.op.type = OpType::kMulti;
    txn.multi_ops = std::move(ops);
    ++zxid_;
    return db_.Apply(txn, zxid_, zxid_ * 100);
  }
};

TEST_F(DatabaseTest, CreateThenRead) {
  auto applied = Apply(Op::Create("/x", Bytes("v")));
  EXPECT_TRUE(applied.result.ok());
  EXPECT_EQ(applied.result.created_path, "/x");

  Op get;
  get.type = OpType::kGetData;
  get.path = "/x";
  auto r = db_.Read(get);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.data, Bytes("v"));
}

TEST_F(DatabaseTest, ReadMissingIsNotFound) {
  Op get;
  get.type = OpType::kGetData;
  get.path = "/nope";
  EXPECT_EQ(db_.Read(get).code, StatusCode::kNotFound);
}

TEST_F(DatabaseTest, ApplyAdvancesLastApplied) {
  EXPECT_EQ(db_.last_applied(), 0);
  Apply(Op::Create("/x", {}));
  EXPECT_EQ(db_.last_applied(), 1);
}

TEST_F(DatabaseTest, TriggersOnCreateDeleteSet) {
  auto c = Apply(Op::Create("/x", {}));
  ASSERT_EQ(c.triggers.size(), 2u);
  EXPECT_EQ(c.triggers[0].type, WatchEventType::kNodeCreated);
  EXPECT_EQ(c.triggers[0].path, "/x");
  EXPECT_EQ(c.triggers[1].type, WatchEventType::kNodeChildrenChanged);
  EXPECT_EQ(c.triggers[1].path, "/");

  auto s = Apply(Op::SetData("/x", Bytes("d")));
  ASSERT_EQ(s.triggers.size(), 1u);
  EXPECT_EQ(s.triggers[0].type, WatchEventType::kNodeDataChanged);

  auto d = Apply(Op::Delete("/x"));
  ASSERT_EQ(d.triggers.size(), 2u);
  EXPECT_EQ(d.triggers[0].type, WatchEventType::kNodeDeleted);
}

TEST_F(DatabaseTest, SessionLifecycle) {
  Op create_session;
  create_session.type = OpType::kCreateSession;
  Apply(create_session, 99);
  EXPECT_TRUE(db_.SessionExists(99));

  Apply(Op::Create("/parent", {}), 99);
  Op eph = Op::Create("/parent/live", {}, CreateMode::kEphemeral);
  Apply(eph, 99);
  EXPECT_TRUE(db_.tree().Exists("/parent/live"));

  Op close;
  close.type = OpType::kCloseSession;
  auto applied = Apply(close, 99);
  EXPECT_FALSE(db_.SessionExists(99));
  EXPECT_FALSE(db_.tree().Exists("/parent/live"));
  EXPECT_TRUE(db_.tree().Exists("/parent"));
  // Deletion triggered watch events.
  EXPECT_FALSE(applied.triggers.empty());
}

TEST_F(DatabaseTest, MultiAllOrNothing) {
  Apply(Op::Create("/a", Bytes("1")));
  // Second op fails (duplicate) => nothing applies.
  auto applied = ApplyMulti({
      Op::Create("/b", {}),
      Op::Create("/a", {}),  // exists
  });
  EXPECT_EQ(applied.result.code, StatusCode::kAlreadyExists);
  EXPECT_FALSE(db_.tree().Exists("/b"));
}

TEST_F(DatabaseTest, MultiAtomicRename) {
  Apply(Op::Create("/src", Bytes("payload")));
  auto applied = ApplyMulti({
      Op::CheckVersion("/src", 0),
      Op::Create("/dst", Bytes("payload")),
      Op::Delete("/src"),
  });
  EXPECT_TRUE(applied.result.ok());
  EXPECT_FALSE(db_.tree().Exists("/src"));
  EXPECT_TRUE(db_.tree().Exists("/dst"));
  EXPECT_EQ(applied.multi_results.size(), 3u);
}

TEST_F(DatabaseTest, MultiSeesItsOwnEffects) {
  // Create parent and child in the same multi.
  auto applied = ApplyMulti({
      Op::Create("/p", {}),
      Op::Create("/p/c", {}),
  });
  EXPECT_TRUE(applied.result.ok());
  EXPECT_TRUE(db_.tree().Exists("/p/c"));
}

TEST_F(DatabaseTest, MultiDeleteRespectsOwnCreates) {
  Apply(Op::Create("/d", {}));
  // Creating a child inside the multi makes the delete of /d non-empty.
  auto applied = ApplyMulti({
      Op::Create("/d/c", {}),
      Op::Delete("/d"),
  });
  EXPECT_EQ(applied.result.code, StatusCode::kNotEmpty);
  EXPECT_FALSE(db_.tree().Exists("/d/c"));
}

TEST_F(DatabaseTest, MultiCheckVersionGuards) {
  Apply(Op::Create("/v", {}));
  Apply(Op::SetData("/v", Bytes("x")));  // version -> 1
  auto bad = ApplyMulti({
      Op::CheckVersion("/v", 0),
      Op::Create("/w", {}),
  });
  EXPECT_EQ(bad.result.code, StatusCode::kBadVersion);
  EXPECT_FALSE(db_.tree().Exists("/w"));

  auto good = ApplyMulti({
      Op::CheckVersion("/v", 1),
      Op::Create("/w", {}),
  });
  EXPECT_TRUE(good.result.ok());
  EXPECT_TRUE(db_.tree().Exists("/w"));
}

TEST_F(DatabaseTest, MultiRejectsSequential) {
  Apply(Op::Create("/q", {}));
  auto applied = ApplyMulti({
      Op::Create("/q/s-", {}, CreateMode::kPersistentSequential),
  });
  EXPECT_EQ(applied.result.code, StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, SnapshotRestore) {
  Apply(Op::Create("/a", Bytes("1")));
  Apply(Op::Create("/a/b", Bytes("2")));
  Op cs;
  cs.type = OpType::kCreateSession;
  Apply(cs, 1234);

  auto snapshot = db_.Snapshot();
  auto restored = Database::Restore(snapshot);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Fingerprint(), db_.Fingerprint());
  EXPECT_EQ((*restored)->last_applied(), db_.last_applied());
  EXPECT_TRUE((*restored)->SessionExists(1234));
}

TEST_F(DatabaseTest, DeterministicReplicas) {
  // Two databases fed the same txn stream end identical.
  Database other;
  Zxid z = 0;
  auto both = [&](Op op) {
    Txn txn;
    txn.session = 1;
    txn.op = op;
    ++z;
    db_.Apply(txn, z, z * 100);
    other.Apply(txn, z, z * 100);
  };
  zxid_ = 1000;  // keep helper out of the way
  both(Op::Create("/r", Bytes("x")));
  both(Op::Create("/r/c1", {}));
  both(Op::SetData("/r", Bytes("y")));
  both(Op::Delete("/r/c1"));
  EXPECT_EQ(db_.Fingerprint(), other.Fingerprint());
}

TEST_F(DatabaseTest, SyncIsNoOp) {
  Op sync;
  sync.type = OpType::kSync;
  auto applied = Apply(sync);
  EXPECT_TRUE(applied.result.ok());
  EXPECT_EQ(db_.tree().node_count(), 1u);
}

// ------------------------------------------- replies only where wanted --

// Applies every txn to two replicas, one building the client reply and one
// not (as every server but the one a client waits on does). Both must reach
// the same code, the same triggers and the same tree; the reply-less result
// carries no resolved prefix.
class ReplyEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr std::uint8_t kTag = 'D';

  void SetUp() override {
    Check(Op::Create("/a", Bytes("Ddir")));
    Check(Op::Create("/a/b", Bytes("Ddir")));
    Check(Op::Create("/a/b/f", Bytes("Ffile")));
  }

  static std::vector<std::pair<WatchEventType, std::string>> Triggers(
      const AppliedTxn& applied) {
    std::vector<std::pair<WatchEventType, std::string>> out;
    for (const auto& t : applied.triggers) out.emplace_back(t.type, t.path);
    return out;
  }

  // Returns the reply-building replica's result.
  AppliedTxn Check(Op op) {
    Txn txn;
    txn.session = 1;
    txn.op = std::move(op);
    ++zxid_;
    AppliedTxn built = with_reply_.Apply(txn, zxid_, zxid_ * 100,
                                         Reply::kBuild);
    AppliedTxn skipped = without_reply_.Apply(txn, zxid_, zxid_ * 100,
                                              Reply::kSkip);
    EXPECT_EQ(built.result.code, skipped.result.code);
    EXPECT_EQ(Triggers(built), Triggers(skipped));
    EXPECT_EQ(with_reply_.Fingerprint(), without_reply_.Fingerprint());
    EXPECT_TRUE(skipped.result.prefix.empty());
    return built;
  }

  AppliedTxn Create(std::string path,
                    CreateMode mode = CreateMode::kPersistent) {
    return Check(Op::ResolveCreate(std::move(path), Bytes("Fnew"), mode,
                                   kTag, false));
  }
  AppliedTxn Delete(std::string path) {
    return Check(Op::ResolveDelete(std::move(path), kAnyVersion, kTag,
                                   false));
  }

  Database with_reply_;
  Database without_reply_;
  Zxid zxid_ = 0;
};

TEST_F(ReplyEquivalenceTest, ResolveCreateOk) {
  auto applied = Create("/a/b/g");
  EXPECT_EQ(applied.result.code, StatusCode::kOk);
  EXPECT_EQ(applied.result.prefix.size(), 2u);
  EXPECT_EQ(applied.result.created_path, "/a/b/g");
  // A top-level name is created under the root.
  EXPECT_EQ(Create("/top").result.code, StatusCode::kOk);
}

TEST_F(ReplyEquivalenceTest, ResolveCreateAlreadyExists) {
  auto applied = Create("/a/b/f");
  EXPECT_EQ(applied.result.code, StatusCode::kAlreadyExists);
  EXPECT_EQ(applied.result.prefix.size(), 2u);
  EXPECT_EQ(applied.result.data, Bytes("Ffile"));
  // A one-component path has an empty prefix on both replicas.
  auto top = Create("/a");
  EXPECT_EQ(top.result.code, StatusCode::kAlreadyExists);
  EXPECT_TRUE(top.result.prefix.empty());
}

TEST_F(ReplyEquivalenceTest, ResolveCreatePartialMiss) {
  auto applied = Create("/a/nope/x");
  EXPECT_EQ(applied.result.code, StatusCode::kNotFound);
  EXPECT_EQ(applied.result.prefix.size(), 1u);
}

TEST_F(ReplyEquivalenceTest, ResolveCreateSequential) {
  auto first = Create("/a/b/s-", CreateMode::kPersistentSequential);
  EXPECT_EQ(first.result.code, StatusCode::kOk);
  EXPECT_EQ(first.result.created_path, "/a/b/s-0000000000");
  auto second = Create("/a/b/s-", CreateMode::kPersistentSequential);
  ASSERT_EQ(second.triggers.size(), 2u);
  EXPECT_EQ(second.triggers[0].path, "/a/b/s-0000000001");
  EXPECT_EQ(second.triggers[1].path, "/a/b");
}

TEST_F(ReplyEquivalenceTest, ResolveDeleteOk) {
  auto applied = Delete("/a/b/f");
  EXPECT_EQ(applied.result.code, StatusCode::kOk);
  EXPECT_EQ(applied.result.resolved_depth, 2u);
  EXPECT_EQ(applied.result.data, Bytes("Ffile"));
  // A top-level name is deleted from the root.
  ASSERT_EQ(Create("/top").result.code, StatusCode::kOk);
  EXPECT_EQ(Delete("/top").result.code, StatusCode::kOk);
}

TEST_F(ReplyEquivalenceTest, ResolveDeleteIsADirectory) {
  auto applied = Delete("/a/b");
  EXPECT_EQ(applied.result.code, StatusCode::kIsADirectory);
  EXPECT_EQ(applied.result.prefix.size(), 1u);
}

TEST_F(ReplyEquivalenceTest, ResolveDeleteNotFound) {
  auto applied = Delete("/a/b/gone");
  EXPECT_EQ(applied.result.code, StatusCode::kNotFound);
  EXPECT_EQ(applied.result.prefix.size(), 2u);
}

}  // namespace
}  // namespace dufs::zk
