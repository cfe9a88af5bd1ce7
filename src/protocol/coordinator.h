// Client-side commit protocol (paper §5.2.2) and backup-coordinator recovery
// (paper §5.3.2), as event-driven state machines.
//
// A CommitCoordinator manages one transaction's validation phase:
//
//   VALIDATE -> (supermajority of matching replies)    fast path: decide
//            -> (mixed replies / quorum only)          slow path: ACCEPT round
//   ACCEPT   -> (f+1 matching accepts)                 decide
//
// The asynchronous COMMIT/ABORT decision is the owner's to send: the machine
// only builds it (AppendDecision), so a MeerkatSession can carry the
// conjunction of its shards' decisions out with its next request. It is
// runtime-agnostic: the owner (a session, or a test) feeds replies in via
// OnMessage and timeouts via OnTimer; the machine emits VALIDATE/ACCEPT
// rounds through the Transport and reports completion through a callback.
//
// A BackupCoordinator finishes an orphaned transaction after its coordinator
// failed: a Paxos-prepare-like CoordChange round establishes a new view and
// gathers what replicas know; the outcome rules of epoch_merge.h pick a safe
// decision, which is then driven through the same ACCEPT/COMMIT path.

#ifndef MEERKAT_SRC_PROTOCOL_COORDINATOR_H_
#define MEERKAT_SRC_PROTOCOL_COORDINATOR_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/common/client_cache.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/protocol/quorum.h"
#include "src/transport/transport.h"

namespace meerkat {

struct CommitOutcome {
  TxnResult result = TxnResult::kFailed;
  CommitPath path = CommitPath::kNone;
  // kNone iff the transaction committed.
  AbortReason reason = AbortReason::kNone;
  // Timer-driven re-sends this coordinator performed (all phases).
  uint64_t retransmits = 0;
  // The vote quorum was discarded and rebuilt across an epoch change.
  bool epoch_bumped = false;
  // Largest server-suggested backoff piggybacked on kRetryLater sheds seen
  // during validation; 0 if no replica shed. Meaningful for kOverload aborts.
  uint64_t backoff_hint_ns = 0;
  // VStore::HashKey of the first key an abort vote named as the failing
  // check (0 if no replica reported one). Abort-reason fidelity: the session
  // resolves it against the transaction's sets for TxnOutcome and for cache
  // self-invalidation.
  uint64_t conflict_hash = 0;

  bool fast_path() const { return path == CommitPath::kFast; }
};

class CommitCoordinator {
 public:
  using DoneCallback = std::function<void(const CommitOutcome&)>;

  // Timer ids passed to SetTimer are `timer_base + phase`; the owner routes
  // TimerFire back via OnTimer. A disabled RetryPolicy (timeout_ns == 0)
  // never arms timers (appropriate for fault-free benchmark runs).
  CommitCoordinator(Transport* transport, Address self, const QuorumConfig& quorum, CoreId core,
                    TxnId tid, Timestamp ts, std::vector<ReadSetEntry> read_set,
                    std::vector<WriteSetEntry> write_set, const RetryPolicy& retry,
                    uint64_t timer_base, DoneCallback done);

  // Ablation knob: never decide on the fast path, even with a supermajority
  // of matching replies (measures what the fast path is worth).
  void set_force_slow_path(bool force) { force_slow_path_ = force; }

  // The replica group this coordinator talks to: replicas
  // [group_base, group_base + n). Shard s of a sharded deployment registers
  // its replicas at base s*n.
  void set_group_base(ReplicaId base) { group_base_ = base; }

  // Overload-control priority stamped on every VALIDATE (TxnPlan::priority):
  // priority > 0 exempts this transaction from replica load shedding.
  void set_priority(uint8_t priority) { priority_ = priority; }

  // Watermark-GC stamp (DESIGN.md §12) piggybacked on every VALIDATE and
  // write-phase message: the oldest timestamp this client may still
  // retransmit for. Sessions run one transaction at a time, so this is simply
  // the current transaction's timestamp. Zero (the default) stamps nothing.
  void set_oldest_inflight(Timestamp ts) { oldest_inflight_ = ts; }

  // Client read cache to feed piggybacked invalidation hints into
  // (DESIGN.md §13). Null (the default) drops the hints.
  void set_cache(ClientCache* cache) { cache_ = cache; }

  CommitCoordinator(const CommitCoordinator&) = delete;
  CommitCoordinator& operator=(const CommitCoordinator&) = delete;

  // Starts the validation phase: sends the VALIDATE fan-out, then arms its
  // retransmission timer. With `out`, the fan-out is appended there instead,
  // and the owner sends it and then calls ArmValidateTimer (a session sends
  // every shard's fan-out with its previous decision in one
  // SendWithDecision).
  void Start(std::vector<Message>* out = nullptr);
  void ArmValidateTimer() { ArmTimer(kValidatePhaseTimer); }

  // Appends one CommitRequest{commit} per replica of the group to `out`. The
  // coordinator never sends its decision itself: once done() with a kCommit
  // or kAbort outcome, the owner appends it (a multi-shard owner with the
  // conjunction of its shards' outcomes, paper §5.2.4) and sends it.
  void AppendDecision(bool commit, std::vector<Message>* out) const;

  // Feeds a reply; returns true if it belonged to this transaction.
  bool OnMessage(const Message& msg);

  // Feeds a timer previously armed by this coordinator; returns true if the
  // timer was consumed (stale timers for finished phases return false).
  bool OnTimer(uint64_t timer_id);

  bool done() const { return phase_ == Phase::kDone; }
  // Valid once done(). Owners that may destroy the coordinator from their
  // completion path MUST pass a null DoneCallback and poll done()/outcome()
  // after each OnMessage/OnTimer instead: a callback that destroys the
  // coordinator would free the very frames still executing.
  const CommitOutcome& outcome() const { return outcome_; }
  const TxnId& tid() const { return tid_; }
  Timestamp ts() const { return ts_; }

  static constexpr uint64_t kValidatePhaseTimer = 0;
  static constexpr uint64_t kAcceptPhaseTimer = 1;

 private:
  enum class Phase { kValidating, kAccepting, kDone };

  void SendValidates(bool only_missing, std::vector<Message>* out = nullptr);
  void SendAccepts();
  void Finish(TxnResult result, CommitPath path, AbortReason reason);
  void MaybeDecideValidation();
  void ArmTimer(uint64_t phase_timer);

  Transport* const transport_;
  const Address self_;
  const QuorumConfig quorum_;
  const CoreId core_;
  const TxnId tid_;
  const Timestamp ts_;
  // Built once in the constructor; every VALIDATE/ACCEPT in the fan-out
  // shares this payload instead of deep-copying the sets per replica.
  const TxnSetsPtr sets_;
  const RetryPolicy retry_;
  const uint64_t timer_base_;
  DoneCallback done_;
  // Backoff jitter; seeded deterministically from the transaction id so
  // identical runs retransmit at identical (sim) times.
  Rng rng_;

  Phase phase_ = Phase::kValidating;
  uint32_t retries_ = 0;
  // Phase-latency stamps (MetricsNowNanos domain): txn start and the start of
  // the currently running phase; 0 until Start().
  uint64_t start_ns_ = 0;
  uint64_t phase_start_ns_ = 0;
  bool force_slow_path_ = false;
  ReplicaId group_base_ = 0;
  uint8_t priority_ = 0;
  Timestamp oldest_inflight_;
  ClientCache* cache_ = nullptr;
  CommitOutcome outcome_;

  // Validation replies, tracked for the highest epoch seen (replies from
  // different epochs never combine into one quorum; see message.h).
  EpochNum reply_epoch_ = 0;
  std::set<ReplicaId> validate_replied_;
  size_t ok_count_ = 0;
  size_t abort_count_ = 0;
  // Replicas that shed the VALIDATE (kRetryLater). They count as "replied"
  // (no vote can still arrive without a retransmit) but never as votes; a
  // retransmission un-marks them so they are re-asked.
  std::set<ReplicaId> shed_replied_;
  size_t shed_count_ = 0;

  // Accept round (the original coordinator proposes in view 0).
  bool proposal_commit_ = false;
  std::set<ReplicaId> accept_ok_;
  size_t accept_rejects_ = 0;
};

// Sends `requests` and `decision` (a finished transaction's COMMIT/ABORT
// messages) in one SendMany, then empties `decision`. Each request goes right
// after the decision message bound for the same (replica, core), so the UDP
// wire coalesces the pair into one datagram and the replica core applies the
// decision before it serves the request; the unmatched decision messages
// follow the requests. With no decision it is a plain SendMany.
void SendWithDecision(Transport* transport, Message* requests, size_t n,
                      std::vector<Message>* decision);

class BackupCoordinator {
 public:
  using DoneCallback = std::function<void(const CommitOutcome&)>;

  // `view` must be greater than any view the transaction has seen; backup
  // coordinators for view v are conventionally hosted on replica (v mod n),
  // but any node may run one (the view number is what arbitrates).
  BackupCoordinator(Transport* transport, Address self, const QuorumConfig& quorum, CoreId core,
                    TxnId tid, ViewNum view, const RetryPolicy& retry, uint64_t timer_base,
                    DoneCallback done);

  BackupCoordinator(const BackupCoordinator&) = delete;
  BackupCoordinator& operator=(const BackupCoordinator&) = delete;

  void Start();
  bool OnMessage(const Message& msg);
  bool OnTimer(uint64_t timer_id);

  void set_group_base(ReplicaId base) { group_base_ = base; }

  bool done() const { return phase_ == Phase::kDone; }
  // Valid once done() (same polling contract as CommitCoordinator).
  const CommitOutcome& outcome() const { return outcome_; }
  const TxnId& tid() const { return tid_; }

  static constexpr uint64_t kPreparePhaseTimer = 0;
  static constexpr uint64_t kAcceptPhaseTimer = 1;

 private:
  enum class Phase { kPreparing, kAccepting, kDone };

  void SendPrepares();
  void DecideAndAccept();
  void Finish(TxnResult result);
  void ArmTimer(uint64_t phase_timer);

  Transport* const transport_;
  const Address self_;
  const QuorumConfig quorum_;
  const CoreId core_;
  const TxnId tid_;
  ViewNum view_;
  const RetryPolicy retry_;
  const uint64_t timer_base_;
  DoneCallback done_;
  Rng rng_;

  Phase phase_ = Phase::kPreparing;
  uint32_t retries_ = 0;
  CommitOutcome outcome_;
  ReplicaId group_base_ = 0;
  std::vector<CoordChangeAck> prepare_acks_;
  std::set<ReplicaId> prepare_replied_;
  bool proposal_commit_ = false;
  Timestamp ts_;
  // Recovered payload, shared across the ACCEPT fan-out (may be null if no
  // replica had the transaction's sets).
  TxnSetsPtr sets_;
  std::set<ReplicaId> accept_ok_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_COORDINATOR_H_
