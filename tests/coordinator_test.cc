// Unit tests driving CommitCoordinator and BackupCoordinator directly with
// synthetic replies through a capturing transport — exercising quorum edges
// that are awkward to hit end-to-end: epoch-split votes, duplicate replies,
// view supersession, retry exhaustion.

#include <gtest/gtest.h>

#include <optional>

#include "src/protocol/coordinator.h"

namespace meerkat {
namespace {

// Records outbound messages; delivers nothing.
class CapturingTransport : public Transport {
 public:
  void RegisterReplica(ReplicaId, CoreId, TransportReceiver*) override {}
  void RegisterClient(uint32_t, TransportReceiver*) override {}
  void UnregisterClient(uint32_t) override {}
  void Send(Message msg) override { sent.push_back(std::move(msg)); }
  void SetTimer(const Address&, CoreId, uint64_t, uint64_t timer_id) override {
    timers.push_back(timer_id);
  }

  template <typename T>
  size_t Count() const {
    size_t n = 0;
    for (const Message& msg : sent) {
      if (std::holds_alternative<T>(msg.payload)) {
        n++;
      }
    }
    return n;
  }

  template <typename T>
  const T* Last() const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (const T* p = std::get_if<T>(&it->payload)) {
        return p;
      }
    }
    return nullptr;
  }

  std::vector<Message> sent;
  std::vector<uint64_t> timers;
};

const QuorumConfig kQ3 = QuorumConfig::ForReplicas(3);
const TxnId kTid{1, 1};
const Timestamp kTs{100, 1};

Message ValidateReplyMsg(ReplicaId from, TxnStatus status, EpochNum epoch = 0) {
  Message msg;
  msg.src = Address::Replica(from);
  msg.dst = Address::Client(1);
  msg.payload = ValidateReply{kTid, status, from, epoch};
  return msg;
}

Message AcceptReplyMsg(ReplicaId from, bool ok, ViewNum view = 0) {
  Message msg;
  msg.src = Address::Replica(from);
  msg.dst = Address::Client(1);
  msg.payload = AcceptReply{kTid, view, ok, from, 0};
  return msg;
}

// The coordinator never sends its decision; the owner builds it with
// AppendDecision. Checks the coordinator held it back and that the built
// fan-out is one CommitRequest{commit} per replica, on the coordinator's core.
void ExpectDecisionLeftToOwner(const CapturingTransport& transport,
                             const CommitCoordinator& coordinator, bool commit) {
  EXPECT_EQ(transport.Count<CommitRequest>(), 0u) << "the coordinator sent its own decision";
  std::vector<Message> decision;
  coordinator.AppendDecision(commit, &decision);
  ASSERT_EQ(decision.size(), 3u);
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(decision[r].dst, Address::Replica(r));
    EXPECT_EQ(decision[r].core, 0u);
    const auto* req = std::get_if<CommitRequest>(&decision[r].payload);
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->tid, kTid);
    EXPECT_EQ(req->commit, commit);
    EXPECT_EQ(req->ts, kTs);
  }
}

struct CoordinatorUnderTest {
  CapturingTransport transport;
  std::optional<CommitOutcome> outcome;
  std::unique_ptr<CommitCoordinator> coordinator;

  explicit CoordinatorUnderTest(const RetryPolicy& retry = RetryPolicy::Disabled()) {
    coordinator = std::make_unique<CommitCoordinator>(
        &transport, Address::Client(1), kQ3, /*core=*/0, kTid, kTs,
        std::vector<ReadSetEntry>{{"k", Timestamp{1, 0}}},
        std::vector<WriteSetEntry>{{"k", "v"}}, retry, /*timer_base=*/100,
        [this](const CommitOutcome& o) { outcome = o; });
    coordinator->Start();
  }
};

TEST(CommitCoordinatorTest, StartBroadcastsValidates) {
  CoordinatorUnderTest t;
  EXPECT_EQ(t.transport.Count<ValidateRequest>(), 3u);
  const auto* req = t.transport.Last<ValidateRequest>();
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->tid, kTid);
  EXPECT_EQ(req->ts, kTs);
  EXPECT_FALSE(t.coordinator->done());
}

TEST(CommitCoordinatorTest, ValidateFanOutSharesOnePayload) {
  // Copy-free fan-out: all three VALIDATEs reference the same immutable
  // TxnSets object, not per-replica deep copies of the read/write sets.
  CoordinatorUnderTest t;
  std::vector<const ValidateRequest*> reqs;
  for (const Message& msg : t.transport.sent) {
    if (const auto* req = std::get_if<ValidateRequest>(&msg.payload)) {
      reqs.push_back(req);
    }
  }
  ASSERT_EQ(reqs.size(), 3u);
  ASSERT_NE(reqs[0]->sets, nullptr);
  EXPECT_EQ(reqs[0]->sets.get(), reqs[1]->sets.get());
  EXPECT_EQ(reqs[1]->sets.get(), reqs[2]->sets.get());
  ASSERT_EQ(reqs[0]->read_set().size(), 1u);
  EXPECT_EQ(reqs[0]->read_set()[0].key, "k");
  ASSERT_EQ(reqs[0]->write_set().size(), 1u);
  EXPECT_EQ(reqs[0]->write_set()[0].value, "v");
}

TEST(CommitCoordinatorTest, AcceptFanOutSharesValidatePayload) {
  // The slow path's ACCEPTs share the same TxnSets the VALIDATEs carried.
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedAbort));
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedOk));
  ASSERT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  const auto* validate = t.transport.Last<ValidateRequest>();
  for (const Message& msg : t.transport.sent) {
    if (const auto* accept = std::get_if<AcceptRequest>(&msg.payload)) {
      EXPECT_EQ(accept->sets.get(), validate->sets.get());
    }
  }
}

TEST(CommitCoordinatorTest, FastPathCommitOnSupermajority) {
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedOk));
  EXPECT_FALSE(t.coordinator->done());  // 2 of 3: not yet a supermajority.
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedOk));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kCommit);
  EXPECT_TRUE(t.outcome->fast_path());
  EXPECT_EQ(t.outcome->reason, AbortReason::kNone);
  ExpectDecisionLeftToOwner(t.transport, *t.coordinator, /*commit=*/true);
  EXPECT_EQ(t.transport.Count<AcceptRequest>(), 0u);  // No slow path.
}

TEST(CommitCoordinatorTest, FastPathAbortOnSupermajorityAbort) {
  CoordinatorUnderTest t;
  for (ReplicaId r = 0; r < 3; r++) {
    t.coordinator->OnMessage(ValidateReplyMsg(r, TxnStatus::kValidatedAbort));
  }
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kAbort);
  EXPECT_TRUE(t.outcome->fast_path());
  EXPECT_EQ(t.outcome->reason, AbortReason::kOccConflict);
  ExpectDecisionLeftToOwner(t.transport, *t.coordinator, /*commit=*/false);
}

TEST(CommitCoordinatorTest, MixedVotesTakeSlowPathAndCommit) {
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedOk));
  // 2 matching OKs: the third reply could still complete a supermajority.
  EXPECT_EQ(t.transport.Count<AcceptRequest>(), 0u);
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedAbort));
  // 2 OK + 1 ABORT: no supermajority; majority OK -> propose commit.
  EXPECT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  EXPECT_TRUE(t.transport.Last<AcceptRequest>()->commit);
  EXPECT_FALSE(t.coordinator->done());

  t.coordinator->OnMessage(AcceptReplyMsg(0, true));
  EXPECT_FALSE(t.coordinator->done());
  t.coordinator->OnMessage(AcceptReplyMsg(1, true));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kCommit);
  EXPECT_FALSE(t.outcome->fast_path());
  EXPECT_EQ(t.outcome->path, CommitPath::kSlow);
  ExpectDecisionLeftToOwner(t.transport, *t.coordinator, /*commit=*/true);
}

TEST(CommitCoordinatorTest, EarlySplitDecidesAtMajorityWithAbort) {
  // At n=3, any 1-1 split already rules out the fast path, and a majority
  // (2 replies) with fewer than f+1 OK votes legitimately proposes ABORT
  // without waiting for the straggler (paper §5.2.2 step 4).
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedAbort));
  ASSERT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  EXPECT_FALSE(t.transport.Last<AcceptRequest>()->commit);
}

TEST(CommitCoordinatorTest, MajorityAbortProposesAbort) {
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedAbort));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedAbort));
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedOk));
  ASSERT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  EXPECT_FALSE(t.transport.Last<AcceptRequest>()->commit);
  t.coordinator->OnMessage(AcceptReplyMsg(0, true));
  t.coordinator->OnMessage(AcceptReplyMsg(1, true));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kAbort);
}

TEST(CommitCoordinatorTest, DuplicateRepliesDoNotFormQuorum) {
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  EXPECT_FALSE(t.coordinator->done());
}

TEST(CommitCoordinatorTest, EpochSplitVotesNeverCombine) {
  // Two old-epoch OKs plus one new-epoch OK must not make a fast quorum: the
  // new epoch voids the earlier votes.
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk, /*epoch=*/0));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedOk, /*epoch=*/0));
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedOk, /*epoch=*/1));
  EXPECT_FALSE(t.coordinator->done());
  // The same replicas re-answering in the new epoch completes it.
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk, /*epoch=*/1));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedOk, /*epoch=*/1));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kCommit);
}

TEST(CommitCoordinatorTest, SupersededBySufficientAcceptRejects) {
  CoordinatorUnderTest t;
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedAbort));
  t.coordinator->OnMessage(ValidateReplyMsg(2, TxnStatus::kValidatedOk));
  ASSERT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  // Two replicas promised a higher view to a backup coordinator: with only
  // one replica left, a majority of accepts is impossible -> stand down.
  t.coordinator->OnMessage(AcceptReplyMsg(0, false));
  EXPECT_FALSE(t.coordinator->done());
  t.coordinator->OnMessage(AcceptReplyMsg(1, false));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kFailed);
}

TEST(CommitCoordinatorTest, RetryTimerResendsToMissingReplicasOnly) {
  CoordinatorUnderTest t(RetryPolicy::WithTimeout(1000));
  ASSERT_EQ(t.transport.timers.size(), 1u);
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  size_t before = t.transport.Count<ValidateRequest>();
  t.coordinator->OnTimer(t.transport.timers[0]);
  // Not enough replies for the slow path (needs a majority): re-validate the
  // two silent replicas only.
  EXPECT_EQ(t.transport.Count<ValidateRequest>(), before + 2);
}

TEST(CommitCoordinatorTest, TimerFallsBackToSlowPathWithMajority) {
  CoordinatorUnderTest t(RetryPolicy::WithTimeout(1000));
  t.coordinator->OnMessage(ValidateReplyMsg(0, TxnStatus::kValidatedOk));
  t.coordinator->OnMessage(ValidateReplyMsg(1, TxnStatus::kValidatedOk));
  // Replica 2 is down: the fast path (3 matching) will never materialize.
  t.coordinator->OnTimer(t.transport.timers[0]);
  EXPECT_EQ(t.transport.Count<AcceptRequest>(), 3u);
  EXPECT_TRUE(t.transport.Last<AcceptRequest>()->commit);
  t.coordinator->OnMessage(AcceptReplyMsg(0, true));
  t.coordinator->OnMessage(AcceptReplyMsg(1, true));
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kCommit);
  EXPECT_FALSE(t.outcome->fast_path());
  // Falling back to the slow path re-uses votes already in hand; nothing was
  // re-sent to the same replica, so it is not counted as a retransmission.
  EXPECT_EQ(t.outcome->retransmits, 0u);
}

TEST(CommitCoordinatorTest, RetryExhaustionFails) {
  RetryPolicy retry = RetryPolicy::WithTimeout(1000);
  retry.max_attempts = 5;
  CoordinatorUnderTest t(retry);
  for (uint32_t i = 0; i <= retry.max_attempts; i++) {
    ASSERT_FALSE(t.coordinator->done()) << "failed early at retry " << i;
    t.coordinator->OnTimer(100 + CommitCoordinator::kValidatePhaseTimer);
  }
  ASSERT_TRUE(t.coordinator->done());
  EXPECT_EQ(t.outcome->result, TxnResult::kFailed);
  EXPECT_EQ(t.outcome->reason, AbortReason::kNoQuorum);
  EXPECT_EQ(t.outcome->retransmits, retry.max_attempts);
}

TEST(CommitCoordinatorTest, ForcedSlowPathSkipsFastQuorum) {
  CapturingTransport transport;
  std::optional<CommitOutcome> outcome;
  CommitCoordinator coordinator(
      &transport, Address::Client(1), kQ3, 0, kTid, kTs, {}, {{{"k"}, {"v"}}},
      RetryPolicy::Disabled(), 100, [&outcome](const CommitOutcome& o) { outcome = o; });
  coordinator.set_force_slow_path(true);
  coordinator.Start();
  for (ReplicaId r = 0; r < 3; r++) {
    coordinator.OnMessage(ValidateReplyMsg(r, TxnStatus::kValidatedOk));
  }
  EXPECT_FALSE(coordinator.done());  // Needs the ACCEPT round.
  EXPECT_EQ(transport.Count<AcceptRequest>(), 3u);
  coordinator.OnMessage(AcceptReplyMsg(0, true));
  coordinator.OnMessage(AcceptReplyMsg(1, true));
  ASSERT_TRUE(coordinator.done());
  EXPECT_FALSE(outcome->fast_path());
}

TEST(CommitCoordinatorTest, DeferredModeWithholdsDecisionBroadcast) {
  // A multi-shard owner sends the conjunction of its shards' decisions, which
  // may differ from what this shard decided.
  CapturingTransport transport;
  CommitCoordinator coordinator(&transport, Address::Client(1), kQ3, 0, kTid, kTs, {},
                                {{{"k"}, {"v"}}}, RetryPolicy::Disabled(), 100, nullptr);
  coordinator.Start();
  for (ReplicaId r = 0; r < 3; r++) {
    coordinator.OnMessage(ValidateReplyMsg(r, TxnStatus::kValidatedOk));
  }
  ASSERT_TRUE(coordinator.done());
  EXPECT_EQ(coordinator.outcome().result, TxnResult::kCommit);
  // Parent says another shard aborted.
  ExpectDecisionLeftToOwner(transport, coordinator, /*commit=*/false);
}

TEST(BackupCoordinatorTest, RebidsAboveCompetingView) {
  CapturingTransport transport;
  std::optional<CommitOutcome> outcome;
  BackupCoordinator backup(&transport, Address::Client(1), kQ3, 0, kTid, /*view=*/1,
                           RetryPolicy::Disabled(), /*timer_base=*/0,
                           [&outcome](const CommitOutcome& o) { outcome = o; });
  backup.Start();
  EXPECT_EQ(transport.Count<CoordChangeRequest>(), 3u);
  EXPECT_EQ(transport.Last<CoordChangeRequest>()->view, 1u);

  // A replica reports it already promised view 4: re-prepare at view 5.
  Message nack;
  nack.src = Address::Replica(0);
  CoordChangeAck ack;
  ack.tid = kTid;
  ack.view = 4;
  ack.ok = false;
  ack.from = 0;
  nack.payload = ack;
  backup.OnMessage(nack);
  EXPECT_EQ(transport.Count<CoordChangeRequest>(), 6u);
  EXPECT_EQ(transport.Last<CoordChangeRequest>()->view, 5u);
}

TEST(BackupCoordinatorTest, GroupBaseAddressesCorrectShard) {
  CapturingTransport transport;
  CommitCoordinator coordinator(&transport, Address::Client(1), kQ3, 0, kTid, kTs, {},
                                {{{"k"}, {"v"}}}, RetryPolicy::Disabled(), 100, nullptr);
  coordinator.set_group_base(6);  // Shard 2 of an n=3 sharded deployment.
  coordinator.Start();
  for (const Message& msg : transport.sent) {
    EXPECT_GE(msg.dst.id, 6u);
    EXPECT_LE(msg.dst.id, 8u);
  }
}

}  // namespace
}  // namespace meerkat
