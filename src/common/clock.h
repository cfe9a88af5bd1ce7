// Loosely synchronized client clocks (paper §3).
//
// Meerkat clients propose commit timestamps from their local clocks. The
// protocol is correct with arbitrarily skewed clocks; synchronization quality
// only affects performance (a client with a slow clock proposes timestamps in
// the past, which are more likely to fail validation). To study that effect,
// each clock carries a configurable constant offset plus a small random
// per-read jitter, emulating PTP-grade or NTP-grade synchronization.

#ifndef MEERKAT_SRC_COMMON_CLOCK_H_
#define MEERKAT_SRC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/common/rng.h"

namespace meerkat {

// Source of "physical" nanoseconds. The threaded runtime reads the machine
// clock; the simulator supplies virtual time.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  virtual uint64_t NowNanos() = 0;
};

// Reads std::chrono::steady_clock.
class SystemTimeSource : public TimeSource {
 public:
  uint64_t NowNanos() override {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }
};

// A session's constant clock offset, drawn uniformly from
// [-max_skew_ns, +max_skew_ns]; draws nothing from `rng` when max_skew_ns is
// 0. Each deployment keeps its own seed stream for it, so seeded runs replay.
inline int64_t DrawSkew(Rng& rng, int64_t max_skew_ns) {
  if (max_skew_ns == 0) {
    return 0;
  }
  return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(2 * max_skew_ns + 1))) -
         max_skew_ns;
}

// A client's view of time: underlying source + fixed skew + bounded jitter.
// Also guarantees strict local monotonicity, which keeps a single client's
// proposed timestamps increasing even if the source is coarse.
class LooselySyncedClock {
 public:
  LooselySyncedClock(TimeSource* source, int64_t skew_ns = 0, uint64_t jitter_ns = 0,
                     uint64_t seed = 1)
      : source_(source), skew_ns_(skew_ns), jitter_ns_(jitter_ns), rng_(seed) {}

  uint64_t Now() {
    int64_t t = static_cast<int64_t>(source_->NowNanos()) + skew_ns_;
    if (jitter_ns_ != 0) {
      t += static_cast<int64_t>(rng_.NextBounded(2 * jitter_ns_ + 1)) -
           static_cast<int64_t>(jitter_ns_);
    }
    uint64_t now = t > 1 ? static_cast<uint64_t>(t) : 1;
    if (now <= last_) {
      now = last_ + 1;
    }
    last_ = now;
    return now;
  }

  int64_t skew_ns() const { return skew_ns_; }

 private:
  TimeSource* source_;  // Not owned.
  int64_t skew_ns_;
  uint64_t jitter_ns_;
  Rng rng_;
  uint64_t last_ = 0;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_CLOCK_H_
