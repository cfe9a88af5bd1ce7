#include "src/protocol/sharded.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "src/common/trace.h"
#include "src/store/vstore.h"

namespace meerkat {
namespace {

// Per-session clock skew drawn uniformly from [-max_skew, +max_skew],
// deterministic in the session seed (mirrors the System factories).
int64_t DrawSkew(uint64_t seed, int64_t max_skew) {
  if (max_skew == 0) {
    return 0;
  }
  Rng rng(seed ^ 0xa076'1d64'78bd'642fULL);
  return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(2 * max_skew + 1))) -
         max_skew;
}

}  // namespace

ShardedCluster::ShardedCluster(const ShardedOptions& options, Transport* transport)
    : options_(options), client_cache_(options.system.cache) {
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

size_t ShardedCluster::ShardForKey(const std::string& key) const {
  // Mix the hash so adjacent std::hash values spread across shards.
  uint64_t h = std::hash<std::string>{}(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 29;
  return h % options_.num_shards;
}

void ShardedCluster::Load(const std::string& key, const std::string& value) {
  size_t shard = ShardForKey(key);
  for (ReplicaId r = 0; r < options_.system.quorum.n; r++) {
    replicas_[shard * options_.system.quorum.n + r]->LoadKey(key, value, Timestamp{1, 0});
  }
}

ReadResult ShardedCluster::ReadAt(size_t shard, ReplicaId r, const std::string& key) {
  return replicas_[shard * options_.system.quorum.n + r]->store().Read(key);
}

ShardedSession::ShardedSession(uint32_t client_id, Transport* transport,
                               TimeSource* time_source, ShardedCluster* cluster, uint64_t seed)
    : client_id_(client_id), transport_(transport), cluster_(cluster),
      retry_(cluster->options().system.retry), self_(Address::Client(client_id)),
      clock_(time_source, DrawSkew(seed, cluster->options().system.clock.max_skew_ns),
             cluster->options().system.clock.jitter_ns, seed ^ 0x9e3779b9),
      rng_(seed), time_source_(time_source),
      cache_(cluster->client_cache().enabled() ? &cluster->client_cache() : nullptr) {
  transport_->RegisterClient(client_id_, this);
}

ShardedSession::~ShardedSession() { transport_->UnregisterClient(client_id_); }

std::vector<WriteSetEntry> ShardedSession::last_write_set() const {
  RecursiveMutexLock lock(mu_);
  std::vector<WriteSetEntry> out;
  out.reserve(write_buffer_.size());
  for (const auto& [key, value] : write_buffer_) {
    out.push_back(WriteSetEntry{key, value});
  }
  return out;
}

std::optional<std::string> ShardedSession::last_read_value(const std::string& key) const {
  RecursiveMutexLock lock(mu_);
  const std::string* value = read_values_.Find(key);
  if (value == nullptr) {
    return std::nullopt;
  }
  return *value;
}

void ShardedSession::ExecuteAsync(TxnPlan plan, TxnCallback cb) {
  RecursiveMutexLock lock(mu_);
  assert(!active_ && "ShardedSession runs one transaction at a time");
  active_ = true;
  plan_ = std::move(plan);
  callback_ = std::move(cb);
  next_op_ = 0;
  txn_seq_++;
  last_tid_ = TxnId{client_id_, txn_seq_};
  txn_start_ns_ = time_source_->NowNanos();
  core_ = static_cast<CoreId>(rng_.NextBounded(cluster_->options().system.cores_per_replica));
  read_set_.clear();
  read_values_.Clear();
  write_buffer_.clear();
  get_outstanding_ = false;
  get_retries_ = 0;
  txn_retransmits_ = 0;
  coordinators_.clear();
  decision_sent_ = false;
  IssueNextOp();
}

void ShardedSession::IssueNextOp() {
  while (next_op_ < plan_.ops.size()) {
    const Op& op = plan_.ops[next_op_];
    switch (op.kind) {
      case Op::Kind::kPut:
        stats_.writes++;
        write_buffer_[op.key] = op.value;
        next_op_++;
        continue;
      case Op::Kind::kRmw:
      case Op::Kind::kGet: {
        stats_.reads++;
        const std::string* repeat = read_values_.Find(op.key);
        if (write_buffer_.count(op.key) != 0 || repeat != nullptr) {
          if (op.kind == Op::Kind::kRmw) {
            stats_.writes++;
            auto buffered = write_buffer_.find(op.key);
            const std::string& base =
                buffered != write_buffer_.end() ? buffered->second : *repeat;
            write_buffer_[op.key] = op.WriteValue(base);
          }
          next_op_++;
          continue;
        }
        // Inter-transaction cache, same contract as MeerkatSession: the
        // cached wts joins the read set, OCC validation backstops staleness.
        if (cache_ != nullptr) {
          ClientCache::Hit hit;
          if (cache_->Lookup(op.key, time_source_->NowNanos(), &hit)) {
            TraceRecord(last_tid_, TraceStep::kCachedRead,
                        static_cast<uint32_t>(read_set_.size()));
            read_set_.push_back(ReadSetEntry{op.key, hit.wts});
            const std::string& value = read_values_.Insert(op.key, hit.value);
            if (op.kind == Op::Kind::kRmw) {
              stats_.writes++;
              write_buffer_[op.key] = op.WriteValue(value);
            }
            next_op_++;
            continue;
          }
        }
        SendGet(op.key);
        return;
      }
    }
  }
  StartCommit();
}

void ShardedSession::SendGet(const std::string& key) {
  get_outstanding_ = true;
  get_seq_++;
  get_key_ = key;
  size_t shard = cluster_->ShardForKey(key);
  ReplicaId r = static_cast<ReplicaId>(rng_.NextBounded(cluster_->options().system.quorum.n));
  Message msg;
  msg.src = self_;
  msg.dst = Address::Replica(cluster_->GlobalId(shard, r));
  msg.core = static_cast<CoreId>(rng_.NextBounded(cluster_->options().system.cores_per_replica));
  msg.payload = GetRequest{last_tid_, get_seq_, key};
  transport_->Send(std::move(msg));
  if (retry_.enabled()) {
    transport_->SetTimer(self_, 0, retry_.DelayNanos(get_retries_, rng_), get_seq_);
  }
}

void ShardedSession::StartCommit() {
  last_ts_ = Timestamp{clock_.Now(), client_id_};

  // Partition the transaction by shard: every involved shard validates its
  // slice at the same timestamp, in parallel.
  std::map<size_t, std::pair<std::vector<ReadSetEntry>, std::vector<WriteSetEntry>>> by_shard;
  for (const ReadSetEntry& read : read_set_) {
    by_shard[cluster_->ShardForKey(read.key)].first.push_back(read);
  }
  for (const auto& [key, value] : write_buffer_) {
    by_shard[cluster_->ShardForKey(key)].second.push_back(WriteSetEntry{key, value});
  }
  if (by_shard.empty()) {
    // Empty transaction commits trivially.
    TxnOutcome out;
    out.result = TxnResult::kCommit;
    out.path = CommitPath::kFast;
    out.tid = last_tid_;
    out.commit_ts = last_ts_;
    FinishTxn(out);
    return;
  }

  uint64_t shard_index = 0;
  for (auto& [shard, sets] : by_shard) {
    auto coordinator = std::make_unique<CommitCoordinator>(
        transport_, self_, cluster_->options().system.quorum, core_, last_tid_, last_ts_,
        std::move(sets.first), std::move(sets.second), retry_,
        kCoordTimerBase + (txn_seq_ * 64 + shard_index) * 4, /*done=*/nullptr);
    coordinator->set_group_base(cluster_->GlobalId(shard, 0));
    coordinator->set_priority(plan_.priority);
    coordinator->set_cache(cache_);  // Piggybacked invalidation hints.
    // One distributed transaction at a time per session: the watermark stamp
    // is the shared timestamp every shard's round proposes.
    coordinator->set_oldest_inflight(last_ts_);
    coordinators_[shard] = std::move(coordinator);
    shard_index++;
  }
  for (auto& [shard, coordinator] : coordinators_) {
    (void)shard;
    coordinator->Start();
  }
}

void ShardedSession::MaybeFinishCommit() {
  if (decision_sent_ || coordinators_.empty()) {
    return;
  }
  bool all_done = true;
  bool all_commit = true;
  bool any_failed = false;
  bool all_fast = true;
  bool any_overload = false;
  AbortReason fail_reason = AbortReason::kNone;
  uint64_t coord_retransmits = 0;
  uint64_t backoff_hint_ns = 0;
  uint64_t conflict_hash = 0;
  bool recovered = false;
  for (auto& [shard, coordinator] : coordinators_) {
    (void)shard;
    if (!coordinator->done()) {
      all_done = false;
      break;
    }
    const CommitOutcome& outcome = coordinator->outcome();
    any_overload = any_overload || outcome.reason == AbortReason::kOverload;
    backoff_hint_ns = std::max(backoff_hint_ns, outcome.backoff_hint_ns);
    if (conflict_hash == 0) {
      conflict_hash = outcome.conflict_hash;  // First shard to name a key wins.
    }
    all_commit = all_commit && outcome.result == TxnResult::kCommit;
    if (outcome.result == TxnResult::kFailed) {
      any_failed = true;
      if (fail_reason == AbortReason::kNone) {
        fail_reason = outcome.reason;
      }
    }
    all_fast = all_fast && outcome.fast_path();
    coord_retransmits += outcome.retransmits;
    recovered = recovered || outcome.epoch_bumped;
  }
  if (!all_done) {
    return;
  }
  decision_sent_ = true;
  // Atomic commitment: commit iff every shard's validation round committed.
  bool commit = all_commit && !any_failed;
  std::vector<Message> decision;
  for (auto& [shard, coordinator] : coordinators_) {
    (void)shard;
    coordinator->AppendDecision(commit, &decision);
  }
  transport_->SendMany(decision.data(), decision.size());
  TxnOutcome out;
  out.tid = last_tid_;
  out.commit_ts = last_ts_;
  out.retransmits = txn_retransmits_ + coord_retransmits;
  out.recovered = recovered;
  out.backoff_hint_ns = backoff_hint_ns;
  if (any_failed) {
    out.result = TxnResult::kFailed;
    out.reason = fail_reason != AbortReason::kNone ? fail_reason : AbortReason::kNoQuorum;
  } else if (!commit) {
    out.result = TxnResult::kAbort;
    // A shed shard (kOverload) dominates: retry loops must back off, not
    // treat it as a data conflict. Otherwise a single-shard abort is the
    // shard's own OCC conflict; with multiple shards involved, the
    // conjunction (atomic commitment) is what killed it.
    if (any_overload) {
      out.reason = AbortReason::kOverload;
    } else {
      out.reason =
          coordinators_.size() > 1 ? AbortReason::kShardAbort : AbortReason::kOccConflict;
    }
  } else {
    out.result = TxnResult::kCommit;
    out.path = all_fast ? CommitPath::kFast : CommitPath::kSlow;
  }
  out.conflict_hash = conflict_hash;
  if (out.result != TxnResult::kCommit && conflict_hash != 0) {
    // Abort-reason fidelity + cache self-invalidation (see MeerkatSession).
    for (const ReadSetEntry& r : read_set_) {
      if (VStore::HashKey(r.key) == conflict_hash) {
        out.conflict_key = r.key;
        if (cache_ != nullptr) {
          TraceRecord(last_tid_, TraceStep::kCacheAbortEvict, 0);
          cache_->EvictForAbort(r.key, conflict_hash);
        }
        break;
      }
    }
    if (out.conflict_key.empty()) {
      for (const auto& [key, value] : write_buffer_) {
        if (VStore::HashKey(key) == conflict_hash) {
          out.conflict_key = key;
          break;
        }
      }
    }
  }
  if (cache_ != nullptr && out.result == TxnResult::kCommit) {
    // Read-your-own-writes across transactions (see MeerkatSession).
    uint64_t now_ns = time_source_->NowNanos();
    for (const auto& [key, value] : write_buffer_) {
      cache_->Insert(key, VStore::HashKey(key), value, last_ts_, now_ns);
    }
  }
  FinishTxn(out);
}

void ShardedSession::FailTxn(AbortReason reason) {
  for (auto& [shard, coordinator] : coordinators_) {
    (void)shard;
    txn_retransmits_ += coordinator->outcome().retransmits;
  }
  coordinators_.clear();
  TxnOutcome out;
  out.result = TxnResult::kFailed;
  out.reason = reason;
  out.tid = last_tid_;
  out.retransmits = txn_retransmits_;
  FinishTxn(out);
}

bool ShardedSession::DeadlineExceeded() const {
  return retry_.attempt_deadline_ns != 0 &&
         time_source_->NowNanos() - txn_start_ns_ > retry_.attempt_deadline_ns;
}

void ShardedSession::FinishTxn(TxnOutcome outcome) {
  switch (outcome.result) {
    case TxnResult::kCommit:
      stats_.committed++;
      if (outcome.fast_path()) {
        stats_.fast_path_commits++;
      } else {
        stats_.slow_path_commits++;
      }
      break;
    case TxnResult::kAbort:
      stats_.aborted++;
      break;
    case TxnResult::kFailed:
      stats_.failed++;
      break;
  }
  stats_.retransmits += outcome.retransmits;
  if (outcome.reason == AbortReason::kNoQuorum || outcome.reason == AbortReason::kDeadline) {
    stats_.timeouts++;
  }
  if (outcome.recovered) {
    stats_.recoveries++;
  }
  stats_.commit_latency.Record(time_source_->NowNanos() - txn_start_ns_);
  active_ = false;
  TxnCallback cb = std::move(callback_);
  callback_ = nullptr;
  if (cb) {
    cb(outcome);
  }
}

void ShardedSession::Receive(Message&& msg) {
  RecursiveMutexLock lock(mu_);
  if (const auto* reply = std::get_if<GetReply>(&msg.payload)) {
    if (!active_ || !get_outstanding_ || reply->req_seq != get_seq_) {
      return;
    }
    get_outstanding_ = false;
    get_retries_ = 0;
    const Op& op = plan_.ops[next_op_];
    Timestamp read_wts = reply->found ? reply->wts : kInvalidTimestamp;
    read_set_.push_back(ReadSetEntry{reply->key, read_wts});
    const std::string& value =
        read_values_.Insert(reply->key, reply->found ? reply->value : std::string());
    if (cache_ != nullptr) {
      cache_->Insert(reply->key, VStore::HashKey(reply->key), value, read_wts,
                     time_source_->NowNanos());
    }
    if (op.kind == Op::Kind::kRmw) {
      stats_.writes++;
      write_buffer_[op.key] = op.WriteValue(value);
    }
    next_op_++;
    IssueNextOp();
    return;
  }
  if (const auto* timer = std::get_if<TimerFire>(&msg.payload)) {
    if (!active_) {
      return;
    }
    if (timer->timer_id >= kCoordTimerBase) {
      if (!decision_sent_ && !coordinators_.empty() && DeadlineExceeded()) {
        FailTxn(AbortReason::kDeadline);
        return;
      }
      for (auto& [shard, coordinator] : coordinators_) {
        (void)shard;
        if (coordinator->OnTimer(timer->timer_id)) {
          break;
        }
      }
      MaybeFinishCommit();
      return;
    }
    if (get_outstanding_ && timer->timer_id == get_seq_) {
      if (DeadlineExceeded()) {
        FailTxn(AbortReason::kDeadline);
        return;
      }
      if (++get_retries_ > retry_.max_attempts) {
        FailTxn(AbortReason::kNoQuorum);
        return;
      }
      txn_retransmits_++;
      SendGet(get_key_);
    }
    return;
  }
  if (!active_ || coordinators_.empty()) {
    return;
  }
  // Protocol replies carry the global replica id; route to that shard's
  // coordinator.
  ReplicaId from = msg.src.id;
  size_t shard = from / cluster_->options().system.quorum.n;
  auto it = coordinators_.find(shard);
  if (it != coordinators_.end()) {
    it->second->OnMessage(msg);
    MaybeFinishCommit();
  }
}

}  // namespace meerkat
