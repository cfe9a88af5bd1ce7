#include "src/protocol/sharded.h"

namespace meerkat {

ShardedCluster::ShardedCluster(const ShardedOptions& options, Transport* transport)
    : options_(options), transport_(transport), client_cache_(options.system.cache) {
  const SystemOptions& sys = options.system;
  replicas_.reserve(options.num_shards * sys.quorum.n);
  for (size_t shard = 0; shard < options.num_shards; shard++) {
    ReplicaId base = static_cast<ReplicaId>(shard * sys.quorum.n);
    for (ReplicaId r = 0; r < sys.quorum.n; r++) {
      replicas_.push_back(std::make_unique<MeerkatReplica>(
          base + r, sys.quorum, sys.cores_per_replica, transport, base, sys.retry,
          sys.overload, sys.gc, sys.cache));
    }
  }
}

std::unique_ptr<MeerkatSession> ShardedCluster::CreateSession(uint32_t client_id,
                                                              TimeSource* time_source,
                                                              uint64_t seed) {
  const SystemOptions& sys = options_.system;
  SessionOptions s;
  s.quorum = sys.quorum;
  s.cores_per_replica = sys.cores_per_replica;
  s.retry = sys.retry;
  Rng skew_rng(seed ^ 0xa076'1d64'78bd'642fULL);
  s.clock_skew_ns = DrawSkew(skew_rng, sys.clock.max_skew_ns);
  s.clock_jitter_ns = sys.clock.jitter_ns;
  s.force_slow_path = sys.force_slow_path;
  s.cache = &client_cache_;  // Session opts out itself when disabled.
  s.num_shards = options_.num_shards;
  return std::make_unique<MeerkatSession>(client_id, transport_, time_source, s, seed);
}

void ShardedCluster::Load(const std::string& key, const std::string& value) {
  size_t shard = ShardForKey(key, options_.num_shards);
  for (ReplicaId r = 0; r < options_.system.quorum.n; r++) {
    replicas_[shard * options_.system.quorum.n + r]->LoadKey(key, value, Timestamp{1, 0});
  }
}

ReadResult ShardedCluster::ReadAt(size_t shard, ReplicaId r, const std::string& key) {
  return replicas_[shard * options_.system.quorum.n + r]->store().Read(key);
}

}  // namespace meerkat
