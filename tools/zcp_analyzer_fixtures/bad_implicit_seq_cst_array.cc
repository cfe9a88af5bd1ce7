// zcp_analyzer fixture: ZCPA004 must fire for an element of an array of
// atomics, exactly as for a scalar atomic member.
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fixture {

class Counters {
 public:
  void Bump(size_t i) {
    slots_[i].fetch_add(1);  // implicit seq_cst
  }

 private:
  std::array<std::atomic<uint64_t>, 8> slots_{};
};

}  // namespace fixture
