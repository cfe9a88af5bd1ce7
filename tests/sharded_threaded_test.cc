// Distributed transactions on the threaded runtime: real threads, real
// locks, cross-shard invariant conservation under concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/protocol/sharded.h"
#include "src/transport/threaded_transport.h"

namespace meerkat {
namespace {

class ShardedThreadedFixture : public ::testing::Test {
 protected:
  ShardedThreadedFixture() {
    ShardedOptions options;
    options.num_shards = 2;
    options.system.quorum = QuorumConfig::ForReplicas(3);
    options.system.cores_per_replica = 2;
    options.system.retry = RetryPolicy::WithTimeout(3'000'000);
    cluster_ = std::make_unique<ShardedCluster>(options, &transport_);
  }

  ~ShardedThreadedFixture() override { transport_.Stop(); }

  // Blocking one-shot transaction through a fresh session.
  TxnResult Run(MeerkatSession& session, TxnPlan plan) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    TxnResult result = TxnResult::kFailed;
    // ExecuteAsync outside mu: the session locks itself, and the completion
    // callback takes mu while holding that lock (same order as
    // BlockingClient::Execute).
    session.ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
      std::lock_guard<std::mutex> inner(mu);
      result = o.result;
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return result;
  }

  size_t Shard(const std::string& key) const {
    return ShardForKey(key, cluster_->options().num_shards);
  }

  std::pair<std::string, std::string> CrossShardKeys() {
    std::string a = "alpha";
    for (int i = 0; i < 1000; i++) {
      std::string b = "beta" + std::to_string(i);
      if (Shard(b) != Shard(a)) {
        return {a, b};
      }
    }
    return {a, a};
  }

  ThreadedTransport transport_;
  SystemTimeSource time_source_;
  std::unique_ptr<ShardedCluster> cluster_;
};

TEST_F(ShardedThreadedFixture, CrossShardCommitOnRealThreads) {
  auto [a, b] = CrossShardKeys();
  cluster_->Load(a, "0");
  cluster_->Load(b, "0");
  auto session = cluster_->CreateSession(1, &time_source_, 7);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw(a, "1"));
  plan.ops.push_back(Op::Rmw(b, "1"));
  ASSERT_EQ(Run(*session, plan), TxnResult::kCommit);
  EXPECT_EQ(session->last_shard_count(), 2u);
  transport_.DrainForTesting();
  EXPECT_EQ(cluster_->ReadAt(Shard(a), 0, a).value, "1");
  EXPECT_EQ(cluster_->ReadAt(Shard(b), 1, b).value, "1");
}

TEST_F(ShardedThreadedFixture, ConcurrentCrossShardTransfersConserveTotal) {
  auto [a, b] = CrossShardKeys();
  cluster_->Load(a, "1000");
  cluster_->Load(b, "1000");

  constexpr int kThreads = 3;
  std::atomic<int> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto session = cluster_->CreateSession(static_cast<uint32_t>(t + 1), &time_source_,
                                             static_cast<uint64_t>(t) * 13 + 5);
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < 25; i++) {
        int64_t amount = static_cast<int64_t>(rng.NextInRange(1, 9));
        bool forward = rng.NextBool(0.5);
        const std::string& from = forward ? a : b;
        const std::string& to = forward ? b : a;
        TxnPlan plan;
        plan.ops.push_back(Op::RmwFn(from, [amount](const std::string& v) {
          return std::to_string(std::stoll(v) - amount);
        }));
        plan.ops.push_back(Op::RmwFn(to, [amount](const std::string& v) {
          return std::to_string(std::stoll(v) + amount);
        }));
        if (Run(*session, plan) == TxnResult::kCommit) {
          commits.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  transport_.DrainForTesting();
  EXPECT_GT(commits.load(), 0);
  // The cross-shard invariant: totals conserved on every replica pair.
  for (ReplicaId r = 0; r < 3; r++) {
    int64_t total = std::stoll(cluster_->ReadAt(Shard(a), r, a).value) +
                    std::stoll(cluster_->ReadAt(Shard(b), r, b).value);
    EXPECT_EQ(total, 2000) << "replica " << r;
  }
}

}  // namespace
}  // namespace meerkat
