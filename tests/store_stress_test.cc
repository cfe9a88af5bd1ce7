// Real-thread stress tests on the storage layer: per-key locks and OCC
// registration under genuine concurrency. Complements the logic tests in
// store_test.cc by hammering the same entries from multiple hardware threads
// and checking structural invariants afterwards.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/store/occ.h"
#include "src/store/vstore.h"
#include "src/workload/workload.h"

namespace meerkat {
namespace {

TEST(StoreStressTest, ConcurrentValidateCommitLeavesNoResidue) {
  VStore store;
  constexpr int kKeys = 8;
  for (int i = 0; i < kKeys; i++) {
    store.LoadKey(FormatKey(static_cast<uint64_t>(i), 8), "0", Timestamp{1, 0});
  }

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 3000;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 3);
      for (int i = 0; i < kTxnsPerThread; i++) {
        std::string key = FormatKey(rng.NextBounded(kKeys), 8);
        ReadResult read = store.Read(key);
        std::vector<ReadSetEntry> reads{{key, read.wts}};
        std::vector<WriteSetEntry> writes{{key, "v"}};
        // Monotonic per-thread timestamps, globally unique via client id.
        Timestamp ts{static_cast<uint64_t>(i) + 10, static_cast<uint32_t>(t + 1)};
        if (OccValidate(store, reads, writes, ts) == TxnStatus::kValidatedOk) {
          OccCommit(store, reads, writes, ts);
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_GT(committed.load(), 0u);
  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  // Invariant: after every transaction finalized, no pending registrations
  // remain and every entry's rts/wts is a timestamp some thread proposed.
  for (int i = 0; i < kKeys; i++) {
    KeyEntry* entry = store.Find(FormatKey(static_cast<uint64_t>(i), 8));
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->readers.empty()) << "leaked reader on key " << i;
    EXPECT_TRUE(entry->writers.empty()) << "leaked writer on key " << i;
    EXPECT_LE(entry->wts.time, static_cast<uint64_t>(kTxnsPerThread) + 10);
  }
}

TEST(StoreStressTest, ConcurrentInsertsKeepPointersStable) {
  VStore store(16);
  constexpr int kThreads = 4;
  std::vector<KeyEntry*> first_seen(kThreads * 1000, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Every thread creates its own range and repeatedly re-looks-up a
      // shared range; FindOrCreate must return stable pointers throughout.
      for (int i = 0; i < 1000; i++) {
        std::string own = "t" + std::to_string(t) + "-" + std::to_string(i);
        KeyEntry* e = store.FindOrCreate(own);
        first_seen[static_cast<size_t>(t) * 1000 + static_cast<size_t>(i)] = e;
        KeyEntry* shared = store.FindOrCreate("shared-" + std::to_string(i % 50));
        std::lock_guard<KeyLock> lock(shared->lock);
        // Any last writer wins; must not corrupt.
        shared->InstallCommitted(own, Timestamp{static_cast<uint64_t>(i) + 1,
                                                static_cast<uint32_t>(t + 1)});
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < 1000; i++) {
      std::string own = "t" + std::to_string(t) + "-" + std::to_string(i);
      EXPECT_EQ(store.Find(own), first_seen[static_cast<size_t>(t) * 1000 + static_cast<size_t>(i)]);
    }
  }
  EXPECT_EQ(store.SizeForTesting(), static_cast<size_t>(kThreads) * 1000 + 50);
}

TEST(StoreStressTest, LockFreeReadsDuringInsertStorm) {
  // Readers hammer Find/Read/ReadVersion on a stable key set while writer
  // threads insert thousands of fresh keys into the same shards, forcing
  // repeated index resizes. Probes must never crash, tear, or miss a key that
  // was present before the readers started.
  VStore store(4);  // Few shards -> many resizes under contention.
  constexpr int kStableKeys = 64;
  for (int i = 0; i < kStableKeys; i++) {
    store.LoadKey(FormatKey(static_cast<uint64_t>(i), 8), "stable",
                  Timestamp{static_cast<uint64_t>(i) + 1, 1});
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; t++) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 31 + 7);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t i = rng.NextBounded(kStableKeys);
        std::string key = FormatKey(i, 8);
        ReadResult read = store.Read(key);
        ASSERT_TRUE(read.found) << "stable key vanished during inserts";
        ASSERT_EQ(read.value, "stable");
        ASSERT_EQ(read.wts, (Timestamp{i + 1, 1}));
        VersionProbe probe = store.ReadVersion(key);
        ASSERT_TRUE(probe.found);
        ASSERT_EQ(probe.wts, (Timestamp{i + 1, 1}));
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; i++) {
        KeyEntry* e = store.FindOrCreate("w" + std::to_string(t) + "-" + std::to_string(i));
        ASSERT_NE(e, nullptr);
      }
    });
  }
  threads[3].join();
  threads[4].join();
  stop.store(true, std::memory_order_release);
  for (int t = 0; t < 3; t++) {
    threads[static_cast<size_t>(t)].join();
  }
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_EQ(store.SizeForTesting(), static_cast<size_t>(kStableKeys) + 2 * 4000);
}

// Writers install values that deterministically encode the version they
// belong to; readers assert the (value, wts) pair they get back is always
// internally consistent. A torn seqlock read would pair a value with the
// wrong version (or mix bytes of two values).
template <typename ValueFor>
void RunTornReadStorm(ValueFor value_for) {
  VStore store;
  store.LoadKey("hot", value_for(Timestamp{1, 1}), Timestamp{1, 1});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ReadResult read = store.Read("hot");
        ASSERT_TRUE(read.found);
        ASSERT_EQ(read.value, value_for(read.wts)) << "torn read: value/version mismatch";
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      KeyEntry* e = store.Find("hot");
      ASSERT_NE(e, nullptr);
      for (uint64_t i = 2; i < 20000; i++) {
        Timestamp ts{i, static_cast<uint32_t>(w + 1)};
        std::lock_guard<KeyLock> lock(e->lock);
        if (ts > e->wts) {
          e->InstallCommitted(value_for(ts), ts);
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_GT(checked.load(), 0u);
  // Final state is the largest installed version, via both read paths.
  ReadResult final_read = store.Read("hot");
  EXPECT_EQ(final_read.wts, (Timestamp{19999, 2}));
  EXPECT_EQ(final_read.value, value_for(final_read.wts));
  EXPECT_EQ(store.ReadVersion("hot").wts, (Timestamp{19999, 2}));
}

// A value of `size` bytes that names its version and is padded with a
// version-dependent letter.
std::string VersionedValue(const Timestamp& ts, size_t size) {
  std::string v = std::to_string(ts.time) + ":" + std::to_string(ts.client_id) + "|";
  v.resize(size, static_cast<char>('a' + ts.time % 26));
  return v;
}

TEST(StoreStressTest, SeqlockReadsNeverObserveTornValues) {
  // 40 bytes: five of the mirror's eight words.
  RunTornReadStorm([](const Timestamp& ts) { return VersionedValue(ts, 40); });
}

TEST(StoreStressTest, SeqlockReadsOfFullMirrorNeverTear) {
  // 64 bytes (kInlineValueBytes), the paper's item size: every mirror word
  // carries payload.
  static_assert(KeyEntry::kInlineValueBytes == 64);
  RunTornReadStorm([](const Timestamp& ts) { return VersionedValue(ts, 64); });
}

TEST(StoreStressTest, ReadsNeverTearAcrossTheMirrorBoundary) {
  // Sizes 60..71 alternate between the lock-free mirror and the locked
  // overflow buffer from one version to the next, so readers race both the
  // seqlock publish and the switch between the two homes of the value.
  RunTornReadStorm([](const Timestamp& ts) { return VersionedValue(ts, 60 + ts.time % 12); });
}

TEST(StoreStressTest, OverflowValuesFallBackToLockedRead) {
  // Values larger than the inline mirror must still read consistently (the
  // reader takes the per-key lock instead).
  VStore store;
  auto big_value_for = [](uint64_t i) { return std::string(200, 'a' + static_cast<char>(i % 26)); };
  store.LoadKey("big", big_value_for(1), Timestamp{1, 1});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    KeyEntry* e = store.Find("big");
    for (uint64_t i = 2; i < 5000; i++) {
      std::lock_guard<KeyLock> lock(e->lock);
      e->InstallCommitted(big_value_for(i), Timestamp{i, 1});
    }
    stop.store(true, std::memory_order_release);
  });
  while (!stop.load(std::memory_order_acquire)) {
    ReadResult read = store.Read("big");
    ASSERT_TRUE(read.found);
    ASSERT_EQ(read.value, big_value_for(read.wts.time));
    ASSERT_EQ(read.value.size(), 200u);
  }
  writer.join();
}

TEST(StoreStressTest, RmwCounterSerializesCorrectly) {
  // The canonical lost-update check at the storage layer: concurrent
  // increments through full OCC; the final value equals the commit count.
  VStore store;
  store.LoadKey("counter", "0", Timestamp{1, 0});
  constexpr int kThreads = 4;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; i++) {
        ReadResult read = store.Read("counter");
        int value = std::stoi(read.value);
        std::vector<ReadSetEntry> reads{{"counter", read.wts}};
        std::vector<WriteSetEntry> writes{{"counter", std::to_string(value + 1)}};
        Timestamp ts{static_cast<uint64_t>(i) + 10, static_cast<uint32_t>(t + 1)};
        if (OccValidate(store, reads, writes, ts) == TxnStatus::kValidatedOk) {
          // A validated increment still only installs if it is the newest
          // version (Thomas rule); stale-but-validated increments cannot
          // happen because validation pins the read version.
          OccCommit(store, reads, writes, ts);
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          OccCleanup(store, reads, writes, ts);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(static_cast<uint64_t>(std::stoi(store.Read("counter").value)), committed.load());
}

}  // namespace
}  // namespace meerkat
