// MeerkatSession: one logical Meerkat client — the execute phase (paper
// §5.2.1) plus ownership of the per-transaction CommitCoordinators.
//
// A deployment may hash-partition its keys over several replica groups
// (paper §5.2.4, ShardedCluster). The session then reads each key from its
// shard, runs one CommitCoordinator per shard the transaction touches, all
// validating at the same timestamp in parallel, and commits iff every one of
// them decides commit. One shard, the default, is the single-group case.
//
// The session is an event-driven state machine so the same code runs under
// the simulator (as a client actor) and under the threaded runtime (fed by
// its endpoint's worker thread). The blocking convenience API for
// applications lives in src/api/blocking_client.h.

#ifndef MEERKAT_SRC_PROTOCOL_SESSION_H_
#define MEERKAT_SRC_PROTOCOL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/client_session.h"
#include "src/common/annotations.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/quorum.h"
#include "src/protocol/read_scratch.h"

namespace meerkat {

struct SessionOptions {
  QuorumConfig quorum;
  size_t cores_per_replica = 1;
  // Retransmission/backoff policy; a disabled policy (the default) never
  // retransmits (fault-free benchmark runs).
  RetryPolicy retry;
  // Clock-synchronization quality of this client (paper §3: correctness never
  // depends on these; performance does).
  int64_t clock_skew_ns = 0;
  uint64_t clock_jitter_ns = 0;
  // Ablation: bypass the fast path (always run the ACCEPT round).
  bool force_slow_path = false;
  // Inter-transaction read cache shared with the other sessions of this
  // client's System (DESIGN.md §13); null (the default) disables caching.
  ClientCache* cache = nullptr;
  // Replica groups the keys are hash-partitioned over (ShardForKey). Shard s
  // is global replicas [s * quorum.n, (s + 1) * quorum.n).
  size_t num_shards = 1;
};

// The shard that owns `key` among `num_shards` (always 0 for one shard).
size_t ShardForKey(const std::string& key, size_t num_shards);

class MeerkatSession : public ClientSession {
 public:
  MeerkatSession(uint32_t client_id, Transport* transport, TimeSource* time_source,
                 const SessionOptions& options, uint64_t seed);
  ~MeerkatSession() override;

  MeerkatSession(const MeerkatSession&) = delete;
  MeerkatSession& operator=(const MeerkatSession&) = delete;

  void ExecuteAsync(TxnPlan plan, TxnCallback cb) override;
  void Receive(Message&& msg) override;

  uint32_t client_id() const override { return client_id_; }
  RunStats& stats() override { return stats_; }

  // The timestamp the last commit attempt proposed (tests use this to check
  // serialization order). These accessors lock: callers may poll from a
  // different thread than the endpoint worker mutating the fields. The
  // reference returned by last_read_set() is only stable while no transaction
  // is in flight (quiesced inspection).
  Timestamp last_commit_ts() const override {
    RecursiveMutexLock lock(mu_);
    return last_ts_;
  }
  TxnId last_tid() const override {
    RecursiveMutexLock lock(mu_);
    return last_tid_;
  }
  const std::vector<ReadSetEntry>& last_read_set() const override {
    RecursiveMutexLock lock(mu_);
    return read_set_;
  }
  std::vector<WriteSetEntry> last_write_set() const override {
    RecursiveMutexLock lock(mu_);
    std::vector<WriteSetEntry> out;
    out.reserve(write_buffer_.size());
    for (const auto& [key, value] : write_buffer_) {
      out.push_back(WriteSetEntry{key, value});
    }
    return out;
  }
  std::optional<std::string> last_read_value(const std::string& key) const override {
    RecursiveMutexLock lock(mu_);
    const std::string* value = read_values_.Find(key);
    if (value == nullptr) {
      return std::nullopt;
    }
    return *value;
  }
  // Number of shards the last transaction's commit touched (0 for an empty
  // or failed transaction).
  size_t last_shard_count() const {
    RecursiveMutexLock lock(mu_);
    return participants_;
  }

 private:
  // Timer-id space: low ids are execute-phase (GET retry) timers keyed by the
  // get sequence number; coordinator timers live above kCoordTimerBase, four
  // ids per (transaction, shard).
  static constexpr uint64_t kCoordTimerBase = 1ULL << 62;

  void IssueNextOp() REQUIRES(mu_);
  void SendGet(const std::string& key) REQUIRES(mu_);
  void StartCommit() REQUIRES(mu_);
  // Once every participant's coordinator is done: their conjunction.
  void MaybeFinishCommit() REQUIRES(mu_);
  void OnCommitDone(const CommitOutcome& outcome) REQUIRES(mu_);
  // Terminates the attempt without a coordinator decision (GET retransmission
  // budget exhausted, or the per-attempt deadline passed).
  void FailTxn(AbortReason reason) REQUIRES(mu_);
  void FinishTxn(const TxnOutcome& outcome) REQUIRES(mu_);
  bool DeadlineExceeded() const REQUIRES(mu_);

  // ExecuteAsync runs on the application thread while Receive runs on the
  // endpoint's worker thread (threaded runtime); this lock serializes their
  // access to the per-transaction state below. Recursive because a completion
  // callback may synchronously start the next transaction (sim drivers do).
  mutable RecursiveMutex mu_;

  const uint32_t client_id_;
  Transport* const transport_;
  const SessionOptions options_;
  const RetryPolicy retry_;
  const Address self_;
  LooselySyncedClock clock_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  TimeSource* const time_source_;

  RunStats stats_;

  // Per-transaction state.
  bool active_ GUARDED_BY(mu_) = false;
  TxnPlan plan_ GUARDED_BY(mu_);
  TxnCallback callback_ GUARDED_BY(mu_);
  size_t next_op_ GUARDED_BY(mu_) = 0;
  CoreId core_ GUARDED_BY(mu_) = 0;
  uint64_t txn_seq_ GUARDED_BY(mu_) = 0;
  uint64_t txn_start_ns_ GUARDED_BY(mu_) = 0;
  TxnId last_tid_ GUARDED_BY(mu_);
  Timestamp last_ts_ GUARDED_BY(mu_);

  std::vector<ReadSetEntry> read_set_ GUARDED_BY(mu_);
  ReadValueScratch read_values_ GUARDED_BY(mu_);  // Per-txn repeat-read table (reused).
  std::map<std::string, std::string> write_buffer_ GUARDED_BY(mu_);  // Buffered writes, last-wins.

  // Inter-transaction read cache (null when disabled). The object itself is
  // internally synchronized and shared across sessions; the pointer is const.
  ClientCache* const cache_;

  // Outstanding GET (one at a time; interactive transactions).
  bool get_outstanding_ GUARDED_BY(mu_) = false;
  uint64_t get_seq_ GUARDED_BY(mu_) = 0;
  std::string get_key_ GUARDED_BY(mu_);
  uint32_t get_retries_ GUARDED_BY(mu_) = 0;      // Retransmissions of the outstanding GET.
  uint64_t txn_retransmits_ GUARDED_BY(mu_) = 0;  // All execute-phase re-sends this attempt.

  // One slot per shard (num_shards, sized once): the in-flight commit's
  // coordinator for each shard it touches, null for the others.
  std::vector<std::unique_ptr<CommitCoordinator>> coordinators_ GUARDED_BY(mu_);
  size_t participants_ GUARDED_BY(mu_) = 0;  // Non-null slots.
  // Every participant's VALIDATE fan-out, staged for one send (StartCommit).
  std::vector<Message> validates_ GUARDED_BY(mu_);
  // The finished transaction's COMMIT/ABORT messages between its completion
  // callback and their send (see OnCommitDone); empty otherwise. The
  // capacity of both vectors is reused across transactions.
  std::vector<Message> decision_ GUARDED_BY(mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_SESSION_H_
