// The vstore: Meerkat's versioned storage layer (paper §4.2).
//
// A sharded hash table mapping keys to entries. Each entry carries, besides
// the current value:
//   * wts — write timestamp of the transaction that last wrote the key,
//   * rts — read timestamp of the transaction that last read the key,
//   * readers — timestamps of pending validated transactions that read it,
//   * writers — timestamps of pending validated transactions that write it,
// all protected by a fine-grained per-key lock (KeyLock), preserving DAP:
// transactions touching disjoint keys touch disjoint cache lines.
//
// An entry is one heap block: the fixed header, then the key bytes. Values
// of up to kInlineValueBytes (the paper's 64-byte item) live only in the
// entry's seqlock mirror; longer ones live in one out-of-line buffer guarded
// by the per-key lock. readers/writers keep their first element inline, so a
// key with at most one pending transaction costs no further allocation.
//
// The steady-state fast path is lock-free end to end (see DESIGN.md,
// "Fast-path memory model"):
//   * Lookup goes through a per-shard open-addressed index of atomic
//     KeyEntry* slots. Readers probe with acquire loads and never take the
//     shard's structural lock; inserts and resizes take it, and publish new
//     entries/tables with release stores. Entries are pointer-stable for the
//     store's lifetime; retired index tables are kept alive until the store
//     is destroyed so a racing reader can finish its probe.
//   * Each entry publishes (value, wts) through a word-atomic seqlock
//     mirror, so Read/ReadVersion return a consistent snapshot without
//     acquiring the per-key lock in the uncontended case. Values longer than
//     kInlineValueBytes are read under the per-key lock instead.
//
// The store is shared by all cores of one replica. Structural inserts take a
// per-shard lock; steady-state operations take at most the per-key lock.

#ifndef MEERKAT_SRC_STORE_VSTORE_H_
#define MEERKAT_SRC_STORE_VSTORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/types.h"
#include "src/sim/primitives.h"

namespace meerkat {

// Timestamps of one key's pending transactions: an unordered flat list with
// one inline slot, so zero or one pending transaction (the uncontended case)
// never allocates. A second element spills the list to a heap array, which
// is kept for reuse, like a vector's capacity, until the list is destroyed.
class PendingList {
 public:
  PendingList() : inline_() {}
  ~PendingList();
  PendingList(const PendingList&) = delete;
  PendingList& operator=(const PendingList&) = delete;
  PendingList& operator=(std::initializer_list<Timestamp> list);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Timestamp* begin() const { return data(); }
  const Timestamp* end() const { return data() + size_; }
  void push_back(const Timestamp& ts);
  // Removes one occurrence of `ts` (the last element takes its place); no-op
  // if absent.
  void Remove(const Timestamp& ts);
  void clear() { size_ = 0; }

 private:
  bool spilled() const { return capacity_ > 1; }
  Timestamp* data() { return spilled() ? heap_ : &inline_; }
  const Timestamp* data() const { return spilled() ? heap_ : &inline_; }

  union {
    Timestamp inline_;  // Active while capacity_ == 1.
    Timestamp* heap_;   // Active once spilled.
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
};

struct KeyEntry {
  // Maximum value size (bytes) held by the seqlock mirror: the paper's
  // 64-byte item (§6.2).
  static constexpr size_t kInlineValueWords = 8;
  static constexpr size_t kInlineValueBytes = kInlineValueWords * sizeof(uint64_t);
  // pub_len sentinel: value too large for the mirror, readers must lock.
  static constexpr uint32_t kOverflowLen = 0xFFFFFFFFu;

  // Entries are allocated by Create (header and key bytes in one block) and
  // freed by Deleter. A default-constructed entry has an empty key.
  struct Deleter {
    void operator()(KeyEntry* entry) const;
  };
  using Ptr = std::unique_ptr<KeyEntry, Deleter>;
  static Ptr Create(std::string_view key, uint64_t hash);

  KeyEntry() = default;
  KeyEntry(const KeyEntry&) = delete;
  KeyEntry& operator=(const KeyEntry&) = delete;

  KeyLock lock;

 private:
  uint32_t key_len_ = 0;  // The key's bytes follow the header.

 public:
  // Identity; immutable after construction (set by Create under the shard's
  // structural lock, published together with the entry pointer).
  std::string_view key() const {
    return {reinterpret_cast<const char*>(this + 1), key_len_};
  }
  uint64_t hash = 0;

  // Authoritative state, guarded by `lock`. The value itself lives in the
  // mirror below (<= kInlineValueBytes) or in `overflow_`; read it with
  // Value().
  Timestamp wts GUARDED_BY(lock);  // Version of the value.
  Timestamp rts GUARDED_BY(lock);  // Largest committed read timestamp.
  // Pending (validated, not yet finalized) transactions.
  PendingList readers GUARDED_BY(lock);
  PendingList writers GUARDED_BY(lock);

  // Seqlock-published (value, wts). Writers mutate it only while holding
  // `lock` (so mirror writers are serialized); readers validate pub_seq
  // around word-atomic relaxed loads and retry on a concurrent update.
  // Everything in the mirror is a std::atomic, so the protocol is
  // data-race-free by construction (no "benign race" UB, clean under TSan).
  // For values of at most kInlineValueBytes the mirror is the only copy.
  std::atomic<uint32_t> pub_seq{0};
  std::atomic<uint32_t> pub_len{0};  // kOverflowLen => value in overflow_.
  std::atomic<uint64_t> pub_wts_time{0};
  std::atomic<uint32_t> pub_wts_client{0};

 private:
  uint32_t overflow_len_ GUARDED_BY(lock) = 0;
  // Value bytes when longer than the mirror; capacity bit_ceil(overflow_len_).
  std::unique_ptr<char[]> overflow_ GUARDED_BY(lock);

 public:
  std::array<std::atomic<uint64_t>, kInlineValueWords> pub_words{};

  // Helpers used by validation; caller must hold `lock`.
  Timestamp MinWriter() const REQUIRES(lock);  // kInvalidTimestamp if none (treated as +inf by callers).
  Timestamp MaxReader() const REQUIRES(lock);  // kInvalidTimestamp if none (-inf).
  bool HasWriters() const REQUIRES(lock) { return !writers.empty(); }
  bool HasReaders() const REQUIRES(lock) { return !readers.empty(); }
  void RemoveReader(const Timestamp& ts) REQUIRES(lock) { readers.Remove(ts); }
  void RemoveWriter(const Timestamp& ts) REQUIRES(lock) { writers.Remove(ts); }

  // Installs a committed (value, wts): the value into the mirror or the
  // overflow buffer, the version into `wts` and the mirror. Caller must hold
  // `lock`.
  void InstallCommitted(const std::string& new_value, Timestamp new_wts) REQUIRES(lock);

  // The committed value (empty if never committed). Caller must hold `lock`.
  std::string Value() const REQUIRES(lock);

  // Seqlock read of (value, wts). Returns false if the value overflows the
  // mirror or a concurrent writer kept invalidating the read — the caller
  // falls back to the per-key lock. Never blocks.
  bool TryReadFast(bool* found, std::string* value_out, Timestamp* wts_out) const;

  // Seqlock read of wts only (no value copy). Same contract as TryReadFast
  // but never overflows: the version words always ride the mirror.
  bool TryReadVersionFast(bool* found, Timestamp* wts_out) const;
};

// Result of a versioned read.
struct ReadResult {
  bool found = false;
  std::string value;
  Timestamp wts;
};

// Result of a version-only probe (no value copy).
struct VersionProbe {
  bool found = false;
  Timestamp wts;
};

class VStore {
 public:
  // num_shards bounds structural-insert contention; entries themselves are
  // pointer-stable for the store's lifetime.
  explicit VStore(size_t num_shards = 256);
  ~VStore();

  VStore(const VStore&) = delete;
  VStore& operator=(const VStore&) = delete;

  // Hashes a key once; pass the result to the *WithHash overloads when one
  // operation needs several lookups of the same key.
  static uint64_t HashKey(const std::string& key);

  // Returns the entry for `key`, or nullptr if it was never written.
  // Lock-free: probes the shard index without any lock.
  KeyEntry* Find(const std::string& key);
  KeyEntry* FindWithHash(const std::string& key, uint64_t hash);

  // Returns the entry, creating an empty one if absent. Takes the shard's
  // structural lock only when the key is absent.
  KeyEntry* FindOrCreate(const std::string& key);
  KeyEntry* FindOrCreateWithHash(const std::string& key, uint64_t hash);

  // Versioned read (execute phase): value + version, lock-free via the
  // entry's seqlock mirror in the common case.
  ReadResult Read(const std::string& key);

  // Version-only probe: wts without copying the value, lock-free. Used by
  // OCC validation's staleness pre-check and by epoch-change re-validation.
  VersionProbe ReadVersion(const std::string& key);

  // Direct committed write used for database loading and recovery state
  // transfer (bypasses OCC; installs only if `wts` is newer than the entry).
  void LoadKey(const std::string& key, const std::string& value, Timestamp wts);

  // Drops every pending reader/writer registration (epoch change: all
  // in-flight transactions have just been force-finalized by the merge).
  void ClearPendingAll();

  // Drops everything (crash-restart without durable state). Requires
  // external quiescence: no concurrent readers may hold entry pointers
  // (callers hold the replica's epoch gate exclusively).
  void ClearAll();

  size_t SizeForTesting() const;

  // Total pending reader + writer registrations across all entries (tests:
  // the GC orphan sweep must leave no stragglers behind). Takes each per-key
  // lock in turn; not atomic across keys.
  size_t PendingCountForTesting();

  // Iterates committed state (key, value, wts). Not atomic across keys; used
  // for epoch-change state transfer while the replica is quiesced.
  void ForEachCommitted(
      const std::function<void(const std::string&, const std::string&, Timestamp)>& fn);

 private:
  // One generation of a shard's open-addressed index. Slot pointers are
  // published with release stores; null terminates a probe chain (entries are
  // never removed from a live table). Capacity is a power of two and the
  // table is resized before load factor reaches 3/4, so probes terminate.
  struct Table {
    explicit Table(size_t cap);
    const size_t capacity;
    const size_t mask;
    std::unique_ptr<std::atomic<KeyEntry*>[]> slots;
  };

  struct Shard {
    // mutable so const accessors (SizeForTesting) can lock instead of racing
    // structural inserts.
    mutable KeyLock structural_lock;
    std::atomic<Table*> table{nullptr};
    // Owns the current table plus every retired generation: a reader loaded
    // `table` before a resize may still be probing the old array.
    std::vector<std::unique_ptr<Table>> tables GUARDED_BY(structural_lock);
    std::vector<KeyEntry::Ptr> entries GUARDED_BY(structural_lock);
    size_t size GUARDED_BY(structural_lock) = 0;
  };

  static constexpr size_t kInitialTableCapacity = 16;

  Shard& ShardFor(uint64_t hash);
  static KeyEntry* Probe(const Table* table, const std::string& key, uint64_t hash);
  // Inserts into `shard`'s current table, resizing first if needed. Caller
  // holds the structural lock.
  void InsertLocked(Shard& shard, KeyEntry::Ptr entry)
      REQUIRES(shard.structural_lock);

  std::vector<Shard> shards_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_STORE_VSTORE_H_
