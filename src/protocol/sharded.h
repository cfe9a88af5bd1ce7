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
// The client side is MeerkatSession with SessionOptions::num_shards > 1
// (CreateSession below): one CommitCoordinator per involved shard decides
// (fast or slow path), and the session sends the conjunction to every
// involved shard with its next request, like a single-group decision. A
// shard that voted to commit while another aborts receives ABORT, and its
// replicas back out their readers/writers registrations — standard OCC 2PC
// semantics on top of the unchanged replica code.
//
// Simplification vs a production system: backup-coordinator recovery for
// in-flight *distributed* transactions is not wired up (the paper describes
// distributed transactions in one paragraph; its recovery section covers the
// single-group case). See DESIGN.md §7.

#ifndef MEERKAT_SRC_PROTOCOL_SHARDED_H_
#define MEERKAT_SRC_PROTOCOL_SHARDED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/api/system.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
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

  // A client of this deployment. The session's clock skew comes from its
  // own seed, as the sessions of a System draw theirs from the System's.
  std::unique_ptr<MeerkatSession> CreateSession(uint32_t client_id, TimeSource* time_source,
                                                uint64_t seed);

  // Loads a committed key onto its owning shard's replicas (ShardForKey).
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
  Transport* const transport_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
  ClientCache client_cache_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_SHARDED_H_
