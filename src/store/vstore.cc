#include "src/store/vstore.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "src/common/annotations.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/sim/sim_context.h"

namespace meerkat {
namespace {

// Sim-personality cost parity: the threaded runtime's lock-free probes and
// seqlock reads replace what used to be KeyLock acquisitions, but on the
// simulated hardware they still cost roughly one small atomic region each.
// Charging the same constant keeps the calibrated cost model stable across
// the fast-path rewrite (the simulator models the protocol, not our locks).
void ChargeSimKeyOps(uint64_t n) {
  if (SimContext* ctx = SimContext::Current()) {
    ctx->stats().key_lock_ops += n;
    ctx->Charge(n * ctx->cost().key_lock_op_ns);
  }
}

// Bounded seqlock read attempts before falling back to the per-key lock. A
// reader only loses an attempt while a writer is mid-publish, so in practice
// one retry suffices; the bound keeps the fallback path exercised and the
// worst case latency-bounded.
constexpr int kSeqlockAttempts = 4;

// Mirror words holding a value of `len` (<= kInlineValueBytes) bytes.
constexpr size_t WordsFor(size_t len) { return (len + sizeof(uint64_t) - 1) / sizeof(uint64_t); }

const MetricId kStructuralInserts = MetricsRegistry::Counter("vstore.structural_inserts");

}  // namespace

PendingList::~PendingList() {
  if (spilled()) {
    delete[] heap_;
  }
}

PendingList& PendingList::operator=(std::initializer_list<Timestamp> list) {
  clear();
  for (const Timestamp& ts : list) {
    push_back(ts);
  }
  return *this;
}

void PendingList::push_back(const Timestamp& ts) {
  if (size_ == capacity_) {
    uint32_t grown_capacity = spilled() ? capacity_ * 2 : 4;
    // zcp-analyzer: allow(ZCPA002) spill past the inline slot: only a key
    // with two or more concurrently pending transactions allocates, and the
    // array is reused from then on (the vector growth this list replaces).
    Timestamp* grown = new Timestamp[grown_capacity];
    std::copy(begin(), end(), grown);
    if (spilled()) {
      delete[] heap_;
    }
    heap_ = grown;
    capacity_ = grown_capacity;
  }
  data()[size_++] = ts;
}

void PendingList::Remove(const Timestamp& ts) {
  Timestamp* first = data();
  Timestamp* last = first + size_;
  Timestamp* it = std::find(first, last, ts);
  if (it != last) {
    *it = last[-1];
    size_--;
  }
}

KeyEntry::Ptr KeyEntry::Create(std::string_view key, uint64_t hash) {
  // zcp-analyzer: allow(ZCPA002) first-touch key creation (FindOrCreate's
  // miss path, under the shard structural lock); every later access takes
  // the lock-free probe.
  void* block = ::operator new(sizeof(KeyEntry) + key.size());
  Ptr entry(new (block) KeyEntry());
  std::memcpy(static_cast<char*>(block) + sizeof(KeyEntry), key.data(), key.size());
  entry->key_len_ = static_cast<uint32_t>(key.size());
  entry->hash = hash;
  return entry;
}

void KeyEntry::Deleter::operator()(KeyEntry* entry) const {
  entry->~KeyEntry();
  ::operator delete(entry);
}

Timestamp KeyEntry::MinWriter() const {
  Timestamp min = kInvalidTimestamp;
  for (const Timestamp& t : writers) {
    if (!min.Valid() || t < min) {
      min = t;
    }
  }
  return min;
}

Timestamp KeyEntry::MaxReader() const {
  Timestamp max = kInvalidTimestamp;
  for (const Timestamp& t : readers) {
    if (t > max) {
      max = t;
    }
  }
  return max;
}

ZCP_FAST_PATH void KeyEntry::InstallCommitted(const std::string& new_value, Timestamp new_wts) {
  bool fits = new_value.size() <= kInlineValueBytes;
  // Seqlock write protocol (Boehm, "Can seqlocks get along with programming
  // language memory models?"): odd seq -> release fence -> relaxed data
  // stores -> even seq with release. Writers are serialized by `lock`.
  uint32_t seq = pub_seq.load(std::memory_order_relaxed);
  pub_seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  if (fits) {
    uint64_t words[kInlineValueWords] = {};
    std::memcpy(words, new_value.data(), new_value.size());
    for (size_t i = 0; i < WordsFor(new_value.size()); i++) {
      pub_words[i].store(words[i], std::memory_order_relaxed);
    }
    pub_len.store(static_cast<uint32_t>(new_value.size()), std::memory_order_relaxed);
  } else {
    pub_len.store(kOverflowLen, std::memory_order_relaxed);
  }
  pub_wts_time.store(new_wts.time, std::memory_order_relaxed);
  pub_wts_client.store(new_wts.client_id, std::memory_order_relaxed);
  pub_seq.store(seq + 2, std::memory_order_release);

  // The overflow buffer is only read under `lock`, which the caller holds,
  // so it needs no seqlock window of its own.
  uint32_t new_len = static_cast<uint32_t>(new_value.size());
  if (fits) {
    overflow_.reset();
    overflow_len_ = 0;
  } else {
    if (!overflow_ || std::bit_ceil(new_len) != std::bit_ceil(overflow_len_)) {
      // Values over kInlineValueBytes only; the power-of-two buffer is reused
      // until the value's size class changes.
      overflow_.reset(new char[std::bit_ceil(new_len)]);  // zcp-lint: allow(ZCP002)
    }
    std::memcpy(overflow_.get(), new_value.data(), new_len);
    overflow_len_ = new_len;
  }
  wts = new_wts;
}

std::string KeyEntry::Value() const {
  if (overflow_) {
    return std::string(overflow_.get(), overflow_len_);
  }
  // The mirror is the master copy; holding `lock` excludes its only writer.
  uint32_t len = pub_len.load(std::memory_order_relaxed);
  uint64_t words[kInlineValueWords];
  for (size_t i = 0; i < WordsFor(len); i++) {
    words[i] = pub_words[i].load(std::memory_order_relaxed);
  }
  return std::string(reinterpret_cast<const char*>(words), len);
}

ZCP_FAST_PATH bool KeyEntry::TryReadFast(bool* found, std::string* value_out, Timestamp* wts_out) const {
  for (int attempt = 0; attempt < kSeqlockAttempts; attempt++) {
    uint32_t s1 = pub_seq.load(std::memory_order_acquire);
    if (s1 & 1) {
      LocalFastPathCounters().vstore_seqlock_retries++;
      continue;  // Writer mid-publish.
    }
    uint32_t len = pub_len.load(std::memory_order_relaxed);
    if (len == kOverflowLen) {
      return false;  // Value too large for the mirror; caller locks.
    }
    uint64_t words[kInlineValueWords];
    for (size_t i = 0; i < WordsFor(len); i++) {
      words[i] = pub_words[i].load(std::memory_order_relaxed);
    }
    Timestamp ts{pub_wts_time.load(std::memory_order_relaxed),
                 pub_wts_client.load(std::memory_order_relaxed)};
    std::atomic_thread_fence(std::memory_order_acquire);
    uint32_t s2 = pub_seq.load(std::memory_order_relaxed);
    if (s1 != s2) {
      LocalFastPathCounters().vstore_seqlock_retries++;
      continue;  // Torn by a concurrent writer; retry.
    }
    if (!ts.Valid()) {
      *found = false;  // Entry exists (pending writers) but never committed.
      return true;
    }
    *found = true;
    value_out->assign(reinterpret_cast<const char*>(words), len);
    *wts_out = ts;
    return true;
  }
  return false;
}

ZCP_FAST_PATH bool KeyEntry::TryReadVersionFast(bool* found, Timestamp* wts_out) const {
  for (int attempt = 0; attempt < kSeqlockAttempts; attempt++) {
    uint32_t s1 = pub_seq.load(std::memory_order_acquire);
    if (s1 & 1) {
      LocalFastPathCounters().vstore_seqlock_retries++;
      continue;
    }
    Timestamp ts{pub_wts_time.load(std::memory_order_relaxed),
                 pub_wts_client.load(std::memory_order_relaxed)};
    std::atomic_thread_fence(std::memory_order_acquire);
    uint32_t s2 = pub_seq.load(std::memory_order_relaxed);
    if (s1 != s2) {
      LocalFastPathCounters().vstore_seqlock_retries++;
      continue;
    }
    *found = ts.Valid();
    *wts_out = ts;
    return true;
  }
  return false;
}

VStore::Table::Table(size_t cap)
    : capacity(cap), mask(cap - 1), slots(new std::atomic<KeyEntry*>[cap]) {
  for (size_t i = 0; i < cap; i++) {
    slots[i].store(nullptr, std::memory_order_relaxed);
  }
}

VStore::VStore(size_t num_shards) : shards_(num_shards) {
  for (Shard& shard : shards_) {
    LockGuard<KeyLock> lock(shard.structural_lock);
    auto table = std::make_unique<Table>(kInitialTableCapacity);
    shard.table.store(table.get(), std::memory_order_release);
    shard.tables.push_back(std::move(table));
  }
}

VStore::~VStore() = default;

uint64_t VStore::HashKey(const std::string& key) {
  // splitmix64 finalizer over std::hash: the shard index consumes the high
  // bits and the probe start the low bits, so they must be independently
  // well-mixed even for sequential keys.
  uint64_t x = std::hash<std::string>{}(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

VStore::Shard& VStore::ShardFor(uint64_t hash) {
  return shards_[(hash >> 32) % shards_.size()];
}

ZCP_FAST_PATH KeyEntry* VStore::Probe(const Table* table, const std::string& key, uint64_t hash) {
  size_t i = hash & table->mask;
  while (true) {
    KeyEntry* e = table->slots[i].load(std::memory_order_acquire);
    if (e == nullptr) {
      return nullptr;  // Null terminates the probe chain: key absent.
    }
    if (e->hash == hash && e->key() == key) {
      return e;
    }
    i = (i + 1) & table->mask;
  }
}

ZCP_FAST_PATH KeyEntry* VStore::Find(const std::string& key) { return FindWithHash(key, HashKey(key)); }

ZCP_FAST_PATH KeyEntry* VStore::FindWithHash(const std::string& key, uint64_t hash) {
  ChargeSimKeyOps(1);
  Shard& shard = ShardFor(hash);
  return Probe(shard.table.load(std::memory_order_acquire), key, hash);
}

KeyEntry* VStore::FindOrCreate(const std::string& key) {
  return FindOrCreateWithHash(key, HashKey(key));
}

KeyEntry* VStore::FindOrCreateWithHash(const std::string& key, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  // Steady state: the key exists and the lookup stays lock-free.
  if (KeyEntry* e = Probe(shard.table.load(std::memory_order_acquire), key, hash)) {
    ChargeSimKeyOps(1);
    return e;
  }
  LockGuard<KeyLock> lock(shard.structural_lock);
  // Re-probe under the lock: a racing insert may have won, and the table may
  // have been swapped by a resize.
  if (KeyEntry* e = Probe(shard.table.load(std::memory_order_acquire), key, hash)) {
    return e;
  }
  // First touch of the key: the one allocation its entry ever makes unless
  // it later holds an overflow value or several pending transactions.
  KeyEntry::Ptr entry = KeyEntry::Create(key, hash);
  KeyEntry* raw = entry.get();
  InsertLocked(shard, std::move(entry));
  return raw;
}

void VStore::InsertLocked(Shard& shard, KeyEntry::Ptr entry) {
  Table* table = shard.table.load(std::memory_order_relaxed);
  // Resize before load factor reaches 3/4 so probe chains stay short and
  // always terminate at a null slot.
  if ((shard.size + 1) * 4 > table->capacity * 3) {
    // zcp-analyzer: allow(ZCPA002) geometric growth: O(log n) resizes over
    // the table lifetime, amortized away on the per-op path.
    auto grown = std::make_unique<Table>(table->capacity * 2);
    for (const auto& existing : shard.entries) {
      size_t i = existing->hash & grown->mask;
      while (grown->slots[i].load(std::memory_order_relaxed) != nullptr) {
        i = (i + 1) & grown->mask;
      }
      grown->slots[i].store(existing.get(), std::memory_order_relaxed);
    }
    table = grown.get();
    // Publish the new generation; readers mid-probe on the old table finish
    // there (it stays alive in shard.tables until the store is destroyed).
    shard.table.store(table, std::memory_order_release);
    shard.tables.push_back(std::move(grown));
  }
  size_t i = entry->hash & table->mask;
  while (table->slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table->mask;
  }
  KeyEntry* raw = entry.get();
  shard.entries.push_back(std::move(entry));
  shard.size++;
  // Structural inserts are the slow (lock-taking) minority; a high rate
  // relative to fastpath.vstore_fast_reads flags a working set still growing.
  MetricIncr(kStructuralInserts);
  // Release store publishes the fully-constructed entry to lock-free probes.
  table->slots[i].store(raw, std::memory_order_release);
}

ZCP_FAST_PATH ReadResult VStore::Read(const std::string& key) {
  ReadResult result;
  uint64_t hash = HashKey(key);
  KeyEntry* entry = FindWithHash(key, hash);
  if (entry == nullptr) {
    return result;
  }
  ChargeSimKeyOps(1);  // Parity with the per-key lock this read used to take.
  if (entry->TryReadFast(&result.found, &result.value, &result.wts)) {
    LocalFastPathCounters().vstore_fast_reads++;
    return result;
  }
  LocalFastPathCounters().vstore_locked_reads++;
  LockGuard<KeyLock> lock(entry->lock);
  if (!entry->wts.Valid()) {
    return result;  // Entry exists (pending writers) but was never committed.
  }
  result.found = true;
  result.value = entry->Value();
  result.wts = entry->wts;
  return result;
}

ZCP_FAST_PATH VersionProbe VStore::ReadVersion(const std::string& key) {
  VersionProbe probe;
  KeyEntry* entry = Find(key);
  if (entry == nullptr) {
    return probe;
  }
  ChargeSimKeyOps(1);
  LocalFastPathCounters().vstore_version_probes++;
  if (entry->TryReadVersionFast(&probe.found, &probe.wts)) {
    return probe;
  }
  LockGuard<KeyLock> lock(entry->lock);
  probe.found = entry->wts.Valid();
  probe.wts = entry->wts;
  return probe;
}

void VStore::LoadKey(const std::string& key, const std::string& value, Timestamp wts) {
  KeyEntry* entry = FindOrCreate(key);
  LockGuard<KeyLock> lock(entry->lock);
  // Thomas write rule here too: state transfer during recovery must never
  // roll a key back to an older version.
  if (wts > entry->wts) {
    entry->InstallCommitted(value, wts);
  }
}

void VStore::ClearPendingAll() {
  for (Shard& shard : shards_) {
    LockGuard<KeyLock> slock(shard.structural_lock);
    for (auto& entry : shard.entries) {
      LockGuard<KeyLock> lock(entry->lock);
      entry->readers.clear();
      entry->writers.clear();
    }
  }
}

void VStore::ClearAll() {
  for (Shard& shard : shards_) {
    LockGuard<KeyLock> slock(shard.structural_lock);
    auto fresh = std::make_unique<Table>(kInitialTableCapacity);
    shard.table.store(fresh.get(), std::memory_order_release);
    // Quiesced by contract (no concurrent readers), so retired tables and
    // entries can actually be freed here.
    shard.tables.clear();
    shard.tables.push_back(std::move(fresh));
    shard.entries.clear();
    shard.size = 0;
  }
}

size_t VStore::SizeForTesting() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    LockGuard<KeyLock> lock(shard.structural_lock);
    n += shard.size;
  }
  return n;
}

size_t VStore::PendingCountForTesting() {
  size_t n = 0;
  for (Shard& shard : shards_) {
    LockGuard<KeyLock> slock(shard.structural_lock);
    for (const KeyEntry::Ptr& entry : shard.entries) {
      LockGuard<KeyLock> lock(entry->lock);
      n += entry->readers.size() + entry->writers.size();
    }
  }
  return n;
}

void VStore::ForEachCommitted(
    const std::function<void(const std::string&, const std::string&, Timestamp)>& fn) {
  for (Shard& shard : shards_) {
    LockGuard<KeyLock> slock(shard.structural_lock);
    for (auto& entry : shard.entries) {
      LockGuard<KeyLock> lock(entry->lock);
      if (entry->wts.Valid()) {
        fn(std::string(entry->key()), entry->Value(), entry->wts);
      }
    }
  }
}

}  // namespace meerkat
