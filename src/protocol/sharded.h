// Distributed transactions over partitioned data (paper §5.2.4).
//
// Data is hash-partitioned into shards; each shard is an independent Meerkat
// replica group of n = 2f+1 replicas. Meerkat's validation phase already has
// the structure of an atomic-commitment prepare (decentralized validation
// with a persistent, recoverable vote), so distributing a transaction only
// requires running the validation phase in every involved shard *in
// parallel* and committing iff every shard's validation round decides
// commit:
//
//   client --VALIDATE--> shard A replicas  -.
//          --VALIDATE--> shard B replicas  --> per-shard decision
//          <-----------------------------------'
//   final = AND(shard decisions); ---COMMIT/ABORT---> all involved shards
//
// The per-shard CommitCoordinators decide (fast or slow path) but never send
// the write phase themselves; the session sends the conjunction once it is
// known, to every involved shard in one SendMany. A shard that voted to commit while another aborts receives ABORT,
// and its replicas back out their readers/writers registrations — standard
// OCC 2PC semantics on top of the unchanged replica code.
//
// Simplification vs a production system: backup-coordinator recovery for
// in-flight *distributed* transactions is not wired up (the paper describes
// distributed transactions in one paragraph; its recovery section covers the
// single-group case). See DESIGN.md §7.

#ifndef MEERKAT_SRC_PROTOCOL_SHARDED_H_
#define MEERKAT_SRC_PROTOCOL_SHARDED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/client_session.h"
#include "src/api/system.h"
#include "src/common/annotations.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/read_scratch.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"

namespace meerkat {

// Sharded deployments reuse the single-group deployment configuration for
// everything per-shard (quorum shape, cores, retry, clock quality, overload
// control); the only sharding-specific knob is the shard count. The formerly
// duplicated flat fields (quorum, cores_per_replica, retry, retry_timeout_ns,
// clock_*) live in `system` now.
struct ShardedOptions {
  size_t num_shards = 2;
  SystemOptions system;

  ShardedOptions& WithShards(size_t n) {
    num_shards = n;
    return *this;
  }
  ShardedOptions& WithSystem(const SystemOptions& s) {
    system = s;
    return *this;
  }
};

// Owns num_shards * n replicas; shard s occupies global replica ids
// [s*n, (s+1)*n).
class ShardedCluster {
 public:
  ShardedCluster(const ShardedOptions& options, Transport* transport);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  const ShardedOptions& options() const { return options_; }

  size_t ShardForKey(const std::string& key) const;
  ReplicaId GlobalId(size_t shard, ReplicaId r) const {
    return static_cast<ReplicaId>(shard * options_.system.quorum.n + r);
  }

  // Loads a committed key onto its owning shard's replicas.
  void Load(const std::string& key, const std::string& value);

  ReadResult ReadAt(size_t shard, ReplicaId r, const std::string& key);
  MeerkatReplica* replica(size_t shard, ReplicaId r) {
    return replicas_[shard * options_.system.quorum.n + r].get();
  }

  // The inter-transaction read cache shared by this cluster's sessions
  // (DESIGN.md §13); constructed from system.cache even when disabled (the
  // sessions check enabled() and keep a null pointer otherwise).
  ClientCache& client_cache() { return client_cache_; }

 private:
  const ShardedOptions options_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
  ClientCache client_cache_;
};

// One logical client executing distributed transactions against a
// ShardedCluster. Event-driven like MeerkatSession; runs under either
// transport.
class ShardedSession : public ClientSession {
 public:
  ShardedSession(uint32_t client_id, Transport* transport, TimeSource* time_source,
                 ShardedCluster* cluster, uint64_t seed);
  ~ShardedSession() override;

  void ExecuteAsync(TxnPlan plan, TxnCallback cb) override;
  void Receive(Message&& msg) override;

  uint32_t client_id() const override { return client_id_; }
  RunStats& stats() override { return stats_; }
  // Accessors lock: tests may poll from a different thread than the endpoint
  // worker. The reference returned by last_read_set() is only stable while no
  // transaction is in flight (quiesced inspection).
  TxnId last_tid() const override {
    RecursiveMutexLock lock(mu_);
    return last_tid_;
  }
  Timestamp last_commit_ts() const override {
    RecursiveMutexLock lock(mu_);
    return last_ts_;
  }
  const std::vector<ReadSetEntry>& last_read_set() const override {
    RecursiveMutexLock lock(mu_);
    return read_set_;
  }
  std::vector<WriteSetEntry> last_write_set() const override;
  std::optional<std::string> last_read_value(const std::string& key) const override;

  // Number of shards the last transaction's commit touched.
  size_t last_shard_count() const {
    RecursiveMutexLock lock(mu_);
    return coordinators_.size();
  }

 private:
  static constexpr uint64_t kCoordTimerBase = 1ULL << 62;

  void IssueNextOp() REQUIRES(mu_);
  void SendGet(const std::string& key) REQUIRES(mu_);
  void StartCommit() REQUIRES(mu_);
  void MaybeFinishCommit() REQUIRES(mu_);
  void FailTxn(AbortReason reason) REQUIRES(mu_);
  void FinishTxn(TxnOutcome outcome) REQUIRES(mu_);
  bool DeadlineExceeded() const REQUIRES(mu_);

  // Same threading contract as MeerkatSession: ExecuteAsync (app thread) and
  // Receive (endpoint worker) both mutate per-transaction state; recursive
  // because completion callbacks may start the next transaction synchronously.
  mutable RecursiveMutex mu_;

  const uint32_t client_id_;
  Transport* const transport_;
  ShardedCluster* const cluster_;
  const RetryPolicy retry_;
  const Address self_;
  LooselySyncedClock clock_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  TimeSource* const time_source_;

  RunStats stats_;

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
  ReadValueScratch read_values_ GUARDED_BY(mu_);
  std::map<std::string, std::string> write_buffer_ GUARDED_BY(mu_);

  // Cluster-shared inter-transaction read cache (null when disabled).
  ClientCache* const cache_;

  bool get_outstanding_ GUARDED_BY(mu_) = false;
  uint64_t get_seq_ GUARDED_BY(mu_) = 0;
  std::string get_key_ GUARDED_BY(mu_);
  uint32_t get_retries_ GUARDED_BY(mu_) = 0;
  uint64_t txn_retransmits_ GUARDED_BY(mu_) = 0;

  // shard -> per-shard coordinator for the in-flight commit.
  std::map<size_t, std::unique_ptr<CommitCoordinator>> coordinators_ GUARDED_BY(mu_);
  bool decision_sent_ GUARDED_BY(mu_) = false;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_SHARDED_H_
