// Distributed transactions across hash-partitioned shards (paper §5.2.4):
// a 3-shard, 9-replica deployment where single transactions atomically span
// shards — the validation phase doubles as the atomic-commitment prepare.
//
//   $ ./multi_shard

#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "src/protocol/sharded.h"
#include "src/transport/threaded_transport.h"

using namespace meerkat;

int main() {
  ThreadedTransport transport;
  SystemTimeSource time_source;

  ShardedOptions options;
  options.num_shards = 3;
  options.system.quorum = QuorumConfig::ForReplicas(3);  // 9 replicas total.
  options.system.cores_per_replica = 2;
  options.system.retry = RetryPolicy::WithTimeout(5'000'000);
  ShardedCluster cluster(options, &transport);

  // Find keys on three different shards, then load them.
  std::string keys[3];
  size_t found = 0;
  for (int i = 0; found < 3 && i < 10000; i++) {
    std::string candidate = "item-" + std::to_string(i);
    if (ShardForKey(candidate, options.num_shards) == found) {
      keys[found++] = candidate;
    }
  }
  for (const std::string& key : keys) {
    cluster.Load(key, "100");
    printf("loaded %-8s on shard %zu\n", key.c_str(), ShardForKey(key, options.num_shards));
  }

  auto session = cluster.CreateSession(1, &time_source, 7);
  std::mutex mu;
  std::condition_variable cv;
  auto run = [&](TxnPlan plan, const char* label) {
    bool done = false;
    TxnResult result = TxnResult::kFailed;
    // Called without mu held: an empty transaction completes inside
    // ExecuteAsync, and its callback takes mu.
    session->ExecuteAsync(std::move(plan), [&](const TxnOutcome& outcome) {
      std::lock_guard<std::mutex> inner(mu);
      result = outcome.result;
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    printf("%-32s -> %s (%zu shard%s involved)\n", label, ToString(result),
           session->last_shard_count(), session->last_shard_count() == 1 ? "" : "s");
    return result;
  };

  // A three-shard atomic transfer: move 10 units from item 0 to items 1 and 2.
  TxnPlan transfer =
      Txn()
          .RmwFn(keys[0], [](const std::string& v) { return std::to_string(std::stoi(v) - 10); })
          .RmwFn(keys[1], [](const std::string& v) { return std::to_string(std::stoi(v) + 5); })
          .RmwFn(keys[2], [](const std::string& v) { return std::to_string(std::stoi(v) + 5); })
          .Build();
  run(std::move(transfer), "3-shard transfer");

  // A cross-shard read-only transaction observes a consistent snapshot.
  TxnBuilder audit_builder = Txn();
  for (const std::string& key : keys) {
    audit_builder.Get(key);
  }
  TxnPlan audit = audit_builder.Build();
  run(std::move(audit), "3-shard consistent read");

  transport.DrainForTesting();
  int total = 0;
  for (const std::string& key : keys) {
    ReadResult r = cluster.ReadAt(ShardForKey(key, options.num_shards), 0, key);
    printf("%-8s = %s\n", key.c_str(), r.value.c_str());
    total += std::stoi(r.value);
  }
  printf("total = %d %s\n", total, total == 300 ? "(conserved across shards)" : "(VIOLATION!)");
  transport.Stop();
  return total == 300 ? 0 : 1;
}
