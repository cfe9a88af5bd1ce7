// zcp_analyzer fixture: atomics held in arrays are inventoried like scalar
// atomic members. Element operations through a subscript, on the enclosing
// class's member and through a pointer receiver, aggregate under the array
// member and must match atomic_order_arrays.json exactly; an analyzer that
// skips them reports the baseline's array sites as removed.
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace fixture {

struct Mirror {
  void Publish(const uint64_t* src) {
    for (size_t i = 0; i < 4; i++) {
      words[i].store(src[i], std::memory_order_relaxed);
    }
    seq.store(2, std::memory_order_release);
  }

  std::atomic<uint32_t> seq{0};
  std::array<std::atomic<uint64_t>, 4> words{};
};

class Table {
 public:
  explicit Table(size_t n) : slots_(new std::atomic<Mirror*>[n]) {}

  Mirror* Get(size_t i) const { return slots_[i].load(std::memory_order_acquire); }

  uint64_t FirstWord(const Mirror* m) const {
    return m->words[0].load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<Mirror*>[]> slots_;
};

}  // namespace fixture
