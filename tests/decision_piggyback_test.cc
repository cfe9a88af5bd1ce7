// The COMMIT/ABORT decision leaves MeerkatSession after the completion
// callback: with the next transaction's first request when the callback
// starts one, on its own as soon as the callback returns otherwise, for a
// single replica group and for a transaction across shards alike. The
// scripted tests feed replies by hand through a transport that records every
// send call; the last one runs over loopback UDP and checks the replicas
// apply the decision.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "src/protocol/session.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

enum class Kind { kGet, kValidate, kCommit, kAbort, kOther };

// One message of a recorded send call.
struct Sent {
  Kind kind;
  ReplicaId replica;
  CoreId core;
  TxnId tid;
};

Sent Describe(const Message& msg) {
  Sent s{Kind::kOther, msg.dst.id, msg.core, TxnId{}};
  if (const auto* get = std::get_if<GetRequest>(&msg.payload)) {
    s.kind = Kind::kGet;
    s.tid = get->tid;
  } else if (const auto* validate = std::get_if<ValidateRequest>(&msg.payload)) {
    s.kind = Kind::kValidate;
    s.tid = validate->tid;
  } else if (const auto* commit = std::get_if<CommitRequest>(&msg.payload)) {
    s.kind = commit->commit ? Kind::kCommit : Kind::kAbort;
    s.tid = commit->tid;
  }
  return s;
}

// Records each Send/SendMany call as one entry; delivers nothing.
class RecordingTransport : public Transport {
 public:
  void RegisterReplica(ReplicaId, CoreId, TransportReceiver*) override {}
  void RegisterClient(uint32_t, TransportReceiver*) override {}
  void UnregisterClient(uint32_t) override {}
  void Send(Message msg) override { calls.push_back({Describe(msg)}); }
  void SendMany(Message* msgs, size_t n) override {
    calls.emplace_back();
    for (size_t i = 0; i < n; i++) {
      calls.back().push_back(Describe(msgs[i]));
    }
  }
  void SetTimer(const Address&, CoreId, uint64_t, uint64_t timer_id) override {
    timers.push_back(timer_id);
  }

  size_t Count(Kind kind) const {
    size_t n = 0;
    for (const auto& call : calls) {
      for (const Sent& s : call) {
        n += s.kind == kind ? 1 : 0;
      }
    }
    return n;
  }

  std::vector<std::vector<Sent>> calls;
  std::vector<uint64_t> timers;
};

Message ValidateReplyFrom(ReplicaId r, const TxnId& tid, TxnStatus status) {
  Message msg;
  msg.src = Address::Replica(r);
  msg.dst = Address::Client(1);
  ValidateReply reply;
  reply.tid = tid;
  reply.status = status;
  reply.from = r;
  msg.payload = std::move(reply);
  return msg;
}

class DecisionPiggybackTest : public ::testing::Test {
 protected:
  DecisionPiggybackTest() {
    SessionOptions options;
    options.quorum = QuorumConfig::ForReplicas(3);
    options.cores_per_replica = 1;  // Every request and decision goes to core 0.
    session_ = std::make_unique<MeerkatSession>(1, &transport_, &time_source_, options, 5);
  }

  // Feeds the three VALIDATE votes of the session's in-flight transaction.
  void Vote(TxnStatus status) {
    const TxnId tid = session_->last_tid();
    for (ReplicaId r = 0; r < 3; r++) {
      session_->Receive(ValidateReplyFrom(r, tid, status));
    }
  }

  RecordingTransport transport_;
  SystemTimeSource time_source_;
  std::unique_ptr<MeerkatSession> session_;
};

// Asserts `call` is the next transaction's GET carrying the previous
// transaction's decision of `kind`: the same-(replica, core) decision, then
// the GET, then the other two decisions.
void ExpectGetCarriesDecision(const std::vector<Sent>& call, const TxnId& decided,
                              const TxnId& next, Kind kind) {
  ASSERT_EQ(call.size(), 4u);
  EXPECT_EQ(call[0].kind, kind);
  EXPECT_EQ(call[0].tid, decided);
  EXPECT_EQ(call[1].kind, Kind::kGet);
  EXPECT_EQ(call[1].tid, next);
  EXPECT_EQ(call[0].replica, call[1].replica);
  EXPECT_EQ(call[0].core, call[1].core);
  std::set<ReplicaId> replicas = {call[0].replica};
  for (size_t i = 2; i < 4; i++) {
    EXPECT_EQ(call[i].kind, kind);
    EXPECT_EQ(call[i].tid, decided);
    replicas.insert(call[i].replica);
  }
  EXPECT_EQ(replicas.size(), 3u) << "the decision must reach every replica";
}

TEST_F(DecisionPiggybackTest, NextTransactionsGetCarriesTheCommit) {
  TxnId first;
  TxnId second;
  session_->ExecuteAsync(Txn().Put("a", "1").Build(), [&](const TxnOutcome& o) {
    EXPECT_EQ(o.result, TxnResult::kCommit);
    first = o.tid;
    EXPECT_EQ(transport_.Count(Kind::kCommit), 0u) << "decision sent before the callback";
    session_->ExecuteAsync(Txn().Get("b").Build(), [](const TxnOutcome&) {});
    second = session_->last_tid();
  });
  Vote(TxnStatus::kValidatedOk);
  ASSERT_EQ(transport_.calls.size(), 2u) << "expected the VALIDATE fan-out, then GET+COMMIT";
  ExpectGetCarriesDecision(transport_.calls[1], first, second, Kind::kCommit);
}

TEST_F(DecisionPiggybackTest, AbortDecisionRidesTheSameWay) {
  TxnId first;
  TxnId second;
  session_->ExecuteAsync(Txn().Put("a", "1").Build(), [&](const TxnOutcome& o) {
    EXPECT_EQ(o.result, TxnResult::kAbort);
    first = o.tid;
    session_->ExecuteAsync(Txn().Get("b").Build(), [](const TxnOutcome&) {});
    second = session_->last_tid();
  });
  Vote(TxnStatus::kValidatedAbort);
  ASSERT_EQ(transport_.calls.size(), 2u);
  ExpectGetCarriesDecision(transport_.calls[1], first, second, Kind::kAbort);
}

TEST_F(DecisionPiggybackTest, NextTransactionsValidateFanOutCarriesTheCommit) {
  // No network read in the next transaction: its first request is the
  // VALIDATE fan-out, and each VALIDATE follows the COMMIT for its replica.
  TxnId first;
  session_->ExecuteAsync(Txn().Put("a", "1").Build(), [&](const TxnOutcome& o) {
    first = o.tid;
    session_->ExecuteAsync(Txn().Put("b", "2").Build(), [](const TxnOutcome&) {});
  });
  Vote(TxnStatus::kValidatedOk);
  ASSERT_EQ(transport_.calls.size(), 2u);
  const std::vector<Sent>& call = transport_.calls[1];
  ASSERT_EQ(call.size(), 6u);
  for (size_t i = 0; i < 6; i += 2) {
    EXPECT_EQ(call[i].kind, Kind::kCommit);
    EXPECT_EQ(call[i].tid, first);
    EXPECT_EQ(call[i + 1].kind, Kind::kValidate);
    EXPECT_EQ(call[i].replica, call[i + 1].replica);
  }
}

TEST_F(DecisionPiggybackTest, IdleCallbackSendsDecisionBeforeReceiveReturns) {
  bool called = false;
  session_->ExecuteAsync(Txn().Put("a", "1").Build(), [&](const TxnOutcome&) {
    called = true;
    EXPECT_EQ(transport_.Count(Kind::kCommit), 0u);
  });
  const TxnId tid = session_->last_tid();
  session_->Receive(ValidateReplyFrom(0, tid, TxnStatus::kValidatedOk));
  session_->Receive(ValidateReplyFrom(1, tid, TxnStatus::kValidatedOk));
  EXPECT_EQ(transport_.Count(Kind::kCommit), 0u);
  session_->Receive(ValidateReplyFrom(2, tid, TxnStatus::kValidatedOk));
  // The Receive that ran the callback has returned: the decision is out, in
  // one call of its own.
  ASSERT_TRUE(called);
  ASSERT_EQ(transport_.calls.size(), 2u);
  ASSERT_EQ(transport_.calls[1].size(), 3u);
  for (const Sent& s : transport_.calls[1]) {
    EXPECT_EQ(s.kind, Kind::kCommit);
    EXPECT_EQ(s.tid, tid);
  }
}

TEST(SendWithDecisionTest, RequestOnAnotherCoreGoesFirst) {
  // Nothing to coalesce with: the request leads, the decision follows in the
  // same call, in replica order.
  RecordingTransport transport;
  std::vector<Message> decision;
  for (ReplicaId r = 0; r < 3; r++) {
    Message commit;
    commit.src = Address::Client(1);
    commit.dst = Address::Replica(r);
    commit.core = 0;
    commit.payload = CommitRequest{TxnId{1, 1}, true, Timestamp{5, 1}, Timestamp{5, 1}};
    decision.push_back(std::move(commit));
  }
  Message get;
  get.src = Address::Client(1);
  get.dst = Address::Replica(1);
  get.core = 1;
  get.payload = GetRequest{TxnId{1, 2}, 1, "k"};
  SendWithDecision(&transport, &get, 1, &decision);
  EXPECT_TRUE(decision.empty());
  ASSERT_EQ(transport.calls.size(), 1u);
  const std::vector<Sent>& call = transport.calls[0];
  ASSERT_EQ(call.size(), 4u);
  EXPECT_EQ(call[0].kind, Kind::kGet);
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(call[r + 1].kind, Kind::kCommit);
    EXPECT_EQ(call[r + 1].replica, r);
  }
}

TEST(DecisionPiggybackFailureTest, FailedAttemptSendsNoDecision) {
  // A coordinator that ran out of retransmissions decided nothing, so there
  // is no decision to carry or send.
  RecordingTransport transport;
  SystemTimeSource time_source;
  SessionOptions options;
  options.quorum = QuorumConfig::ForReplicas(3);
  options.retry = RetryPolicy::WithTimeout(1000);
  options.retry.max_attempts = 2;
  MeerkatSession session(1, &transport, &time_source, options, 5);
  std::optional<TxnResult> result;
  session.ExecuteAsync(Txn().Put("a", "1").Build(),
                       [&](const TxnOutcome& o) { result = o.result; });
  for (int i = 0; i < 10 && !result.has_value(); i++) {
    ASSERT_FALSE(transport.timers.empty());
    Message fire;
    fire.src = fire.dst = Address::Client(1);
    fire.payload = TimerFire{transport.timers.back()};
    session.Receive(std::move(fire));
  }
  ASSERT_EQ(result, TxnResult::kFailed);
  EXPECT_EQ(transport.Count(Kind::kCommit) + transport.Count(Kind::kAbort), 0u);
}

// Two shards of three replicas: shard s is global replicas [3s, 3s + 3).
class TwoShardDecisionTest : public ::testing::Test {
 protected:
  TwoShardDecisionTest() {
    SessionOptions options;
    options.quorum = QuorumConfig::ForReplicas(3);
    options.retry = RetryPolicy::WithTimeout(1000);
    options.retry.max_attempts = 2;
    options.num_shards = 2;
    session_ = std::make_unique<MeerkatSession>(1, &transport_, &time_source_, options, 5);
    for (int i = 0; keys_[0].empty() || keys_[1].empty(); i++) {
      std::string key = "key-" + std::to_string(i);
      keys_[ShardForKey(key, 2)] = key;
    }
  }

  // Writes one key on each shard: a VALIDATE fan-out to all six replicas.
  TxnPlan BothShards() { return Txn().Put(keys_[0], "x").Put(keys_[1], "y").Build(); }

  // Feeds the VALIDATE votes of `shard`'s replicas for the in-flight
  // transaction.
  void Vote(size_t shard, TxnStatus status) {
    const TxnId tid = session_->last_tid();
    for (ReplicaId r = 0; r < 3; r++) {
      session_->Receive(ValidateReplyFrom(static_cast<ReplicaId>(shard * 3 + r), tid, status));
    }
  }

  RecordingTransport transport_;
  SystemTimeSource time_source_;
  std::unique_ptr<MeerkatSession> session_;
  std::string keys_[2];
};

TEST_F(TwoShardDecisionTest, NextTransactionsFirstSendCarriesBothShardsCommits) {
  TxnId first;
  session_->ExecuteAsync(BothShards(), [&](const TxnOutcome& o) {
    EXPECT_EQ(o.result, TxnResult::kCommit);
    first = o.tid;
    EXPECT_EQ(transport_.Count(Kind::kCommit), 0u) << "decision sent before the callback";
    session_->ExecuteAsync(BothShards(), [](const TxnOutcome&) {});
  });
  ASSERT_EQ(transport_.calls.size(), 1u) << "both shards' VALIDATEs go out in one call";
  EXPECT_EQ(transport_.calls[0].size(), 6u);
  Vote(0, TxnStatus::kValidatedOk);
  Vote(1, TxnStatus::kValidatedOk);
  ASSERT_EQ(transport_.calls.size(), 2u);
  const std::vector<Sent>& call = transport_.calls[1];
  ASSERT_EQ(call.size(), 12u);
  std::set<ReplicaId> replicas;
  for (size_t i = 0; i < 12; i += 2) {
    EXPECT_EQ(call[i].kind, Kind::kCommit);
    EXPECT_EQ(call[i].tid, first);
    EXPECT_EQ(call[i + 1].kind, Kind::kValidate);
    EXPECT_EQ(call[i].replica, call[i + 1].replica);
    EXPECT_EQ(call[i].core, call[i + 1].core);
    replicas.insert(call[i].replica);
  }
  EXPECT_EQ(replicas.size(), 6u) << "the decision must reach every replica of both shards";
}

TEST_F(TwoShardDecisionTest, OneShardFailingSendsAbortToEveryParticipant) {
  std::optional<TxnResult> result;
  session_->ExecuteAsync(BothShards(), [&](const TxnOutcome& o) { result = o.result; });
  Vote(0, TxnStatus::kValidatedOk);  // Shard 0 decides commit; shard 1 is silent.
  for (int i = 0; i < 10 && !result.has_value(); i++) {
    Message fire;
    fire.src = fire.dst = Address::Client(1);
    fire.payload = TimerFire{transport_.timers.back()};  // Shard 1's re-armed timer.
    session_->Receive(std::move(fire));
  }
  ASSERT_EQ(result, TxnResult::kFailed);
  EXPECT_EQ(transport_.Count(Kind::kCommit), 0u);
  ASSERT_EQ(transport_.Count(Kind::kAbort), 6u);
  std::set<ReplicaId> aborted;
  for (const Sent& s : transport_.calls.back()) {
    EXPECT_EQ(s.kind, Kind::kAbort);
    aborted.insert(s.replica);
  }
  EXPECT_EQ(aborted.size(), 6u) << "the failed shard must get the ABORT too";
}

TEST(EmptyTransactionTest, CommitsWithoutAMessageOnOneShardAndOnThree) {
  for (size_t shards : {1u, 3u}) {
    RecordingTransport transport;
    SystemTimeSource time_source;
    SessionOptions options;
    options.quorum = QuorumConfig::ForReplicas(3);
    options.num_shards = shards;
    MeerkatSession session(1, &transport, &time_source, options, 5);
    std::optional<TxnResult> result;
    session.ExecuteAsync(Txn().Build(), [&](const TxnOutcome& o) { result = o.result; });
    EXPECT_EQ(result, TxnResult::kCommit) << shards << " shard(s)";
    EXPECT_TRUE(transport.calls.empty()) << shards << " shard(s)";
    EXPECT_EQ(session.last_shard_count(), 0u);
  }
}

TEST(DecisionPiggybackUdpTest, IdleCallbackDecisionIsAppliedByEveryReplica) {
  UdpHarness h(DefaultOptions(SystemKind::kMeerkat, /*cores=*/1));
  auto session = h.MakeSession(1);
  std::atomic<bool> done{false};
  std::atomic<bool> committed{false};
  session->ExecuteAsync(Txn().Put("k", "v").Build(), [&](const TxnOutcome& o) {
    committed.store(o.committed());
    done.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 5000 && !done.load(std::memory_order_acquire); i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load(std::memory_order_acquire));
  ASSERT_TRUE(committed.load());
  // The accessor takes the session lock, which the poller holds until the
  // decision is on the wire; the drain then waits for the replicas.
  (void)session->last_tid();
  h.transport().DrainForTesting();
  for (ReplicaId r = 0; r < 3; r++) {
    ReadResult read = h.system().ReadAtReplica(r, "k");
    ASSERT_TRUE(read.found) << "replica " << r;
    EXPECT_EQ(read.value, "v") << "replica " << r;
  }
}

}  // namespace
}  // namespace meerkat
