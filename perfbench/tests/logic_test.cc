// Tests of the benchmark's own logic: critical-path stitching on synthetic
// event logs and percentiles with failed attempts.
//
//   perf_logic_test   (exit 0 = pass)

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/critical_path.h"
#include "perfbench/src/latency_stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT_EQ_U64(actual, expected)                                                   \
  do {                                                                                    \
    const unsigned long long a_ = (actual), e_ = (expected);                              \
    if (a_ != e_) {                                                                       \
      std::fprintf(stderr, "%s:%d: %s = %llu, expected %llu\n", __FILE__, __LINE__, #actual, \
                   a_, e_);                                                               \
      g_failures++;                                                                       \
    }                                                                                     \
  } while (0)

#define EXPECT_TRUE(cond)                                                    \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      g_failures++;                                                          \
    }                                                                        \
  } while (0)

TraceEvent Ev(uint64_t t, EventKind kind, MsgType msg, bool at_client, uint32_t replica,
              uint64_t aux = 0) {
  return TraceEvent{t, kind, msg, at_client, replica, aux};
}

// Client-side send of `msg` to `replica` at [entry, ret]; replica receives
// it at `recv`.
void Request(std::vector<TraceEvent>* ev, MsgType msg, uint32_t replica, uint64_t entry,
             uint64_t ret, uint64_t recv, uint64_t aux = 0) {
  ev->push_back(Ev(entry, EventKind::kSendEntry, msg, true, replica, aux));
  ev->push_back(Ev(ret, EventKind::kSendReturn, msg, true, replica, aux));
  ev->push_back(Ev(recv, EventKind::kRecvEntry, msg, false, replica, aux));
}

// Replica-side send of `msg` at [entry, ret]; the client receives it at
// `recv`.
void Reply(std::vector<TraceEvent>* ev, MsgType msg, uint32_t replica, uint64_t entry,
           uint64_t ret, uint64_t recv, uint64_t aux = 0) {
  ev->push_back(Ev(entry, EventKind::kSendEntry, msg, false, replica, aux));
  ev->push_back(Ev(ret, EventKind::kSendReturn, msg, false, replica, aux));
  ev->push_back(Ev(recv, EventKind::kRecvEntry, msg, true, replica, aux));
}

// One GET, a 3-way VALIDATE fan-out, the COMMIT broadcast, with every layer
// time chosen distinct so a misattribution shows.
void TestStitchKnownLayers() {
  std::vector<TraceEvent> ev;
  // start 1000. issue 100.
  Request(&ev, MsgType::kGet, 2, 1100, 1300, 2300, /*aux=*/1);    // send 200, wire 1000
  Reply(&ev, MsgType::kGetReply, 2, 2500, 2570, 3570, /*aux=*/1);  // dispatch 200, send 70, wire 1000
  // session receive 30, then one SendMany to all three replicas.
  for (uint32_t r = 0; r < 3; r++) {
    Request(&ev, MsgType::kValidate, r, 3600, 3900, 4500 + 100 * r);  // send 300
  }
  // Replica 1 answers last: its reply decides. Its request arrived at 4600
  // (wire 700), dispatch 4600..4650 (50), send 4650..4700 (50), reply wire
  // 4700..6000 (1300).
  Reply(&ev, MsgType::kValidateReply, 0, 4520, 4540, 5000);
  Reply(&ev, MsgType::kValidateReply, 2, 4720, 4740, 5400);
  Reply(&ev, MsgType::kValidateReply, 1, 4650, 4700, 6000);
  // Decision: session 6000..6040 (40), commit SendMany 6040..6240 (200),
  // session 6240..6250 (10), callback at 6250.
  for (uint32_t r = 0; r < 3; r++) {
    Request(&ev, MsgType::kCommit, r, 6040, 6240, 7000 + r);
  }
  const PathBreakdown b = StitchCriticalPath(1000, 6250, ev);
  EXPECT_EQ_U64(b.latency_ns, 5250);
  EXPECT_EQ_U64(b.at(Layer::kSessionIssue), 100);
  EXPECT_EQ_U64(b.at(Layer::kClientSend), 200 + 300 + 200);
  EXPECT_EQ_U64(b.at(Layer::kWireGet), 1000);
  EXPECT_EQ_U64(b.at(Layer::kReplicaDispatch), 200 + 50);
  EXPECT_EQ_U64(b.at(Layer::kReplicaSend), 70 + 50);
  EXPECT_EQ_U64(b.at(Layer::kWireGetReply), 1000);
  EXPECT_EQ_U64(b.at(Layer::kSessionReceive), 30 + 40 + 10);
  EXPECT_EQ_U64(b.at(Layer::kWireValidate), 700);
  EXPECT_EQ_U64(b.at(Layer::kWireValidateReply), 1300);
  EXPECT_EQ_U64(b.at(Layer::kUnattributed), 0);
  uint64_t sum = 0;
  for (uint64_t ns : b.ns) {
    sum += ns;
  }
  EXPECT_EQ_U64(sum, b.latency_ns);
  EXPECT_TRUE(b.validated);
  EXPECT_EQ_U64(b.validate_wait_ns, 6000 - 3900);
  EXPECT_EQ_U64(b.straggler_ns, 6000 - 5000);

  // Per-message wire times: every receive is matched with its send.
  std::vector<int64_t> get_wire;
  size_t matched = 0;
  ForEachWireTime(ev, [&](MsgType m, int64_t ns) {
    matched++;
    if (m == MsgType::kGet) {
      get_wire.push_back(ns);
    }
  });
  EXPECT_EQ_U64(matched, 2 + 3 + 3 + 3);
  EXPECT_TRUE(get_wire.size() == 1 && get_wire[0] == 1000);
}

// Loopback can deliver a datagram before the sender's sendmmsg returns: the
// overlapping stamps must be counted once, so the layers still sum to the
// latency.
void TestStitchOverlapCountsOnce() {
  std::vector<TraceEvent> ev;
  Request(&ev, MsgType::kValidate, 0, 100, 500, 300);  // received mid-send
  Reply(&ev, MsgType::kValidateReply, 0, 600, 650, 900);
  const PathBreakdown b = StitchCriticalPath(0, 1000, ev);
  uint64_t sum = 0;
  for (uint64_t ns : b.ns) {
    sum += ns;
  }
  EXPECT_EQ_U64(sum, 1000);
  EXPECT_EQ_U64(b.at(Layer::kClientSend), 400);
  EXPECT_EQ_U64(b.at(Layer::kWireValidate), 0);
  EXPECT_EQ_U64(b.at(Layer::kReplicaDispatch), 100);  // 500..600, after the overlap
  EXPECT_EQ_U64(b.at(Layer::kUnattributed), 0);
}

// A reply whose send was never stamped cannot be attributed.
void TestStitchMissingHopIsUnattributed() {
  std::vector<TraceEvent> ev;
  ev.push_back(Ev(700, EventKind::kRecvEntry, MsgType::kValidateReply, true, 0));
  const PathBreakdown b = StitchCriticalPath(0, 1000, ev);
  EXPECT_EQ_U64(b.at(Layer::kUnattributed), 700);
  EXPECT_EQ_U64(b.at(Layer::kSessionReceive), 300);
}

// A transaction served entirely from the client cache and without any
// message is all session issue time.
void TestStitchNoMessages() {
  const PathBreakdown b = StitchCriticalPath(10, 60, {});
  EXPECT_EQ_U64(b.at(Layer::kSessionIssue), 50);
  EXPECT_TRUE(!b.validated);
}

void TestPercentiles() {
  std::vector<double> lat;
  for (int i = 1; i <= 100; i++) {
    lat.push_back(i);
  }
  EXPECT_TRUE(Percentile(lat, 0.50) == 50);
  EXPECT_TRUE(Percentile(lat, 0.99) == 99);
  // One failed attempt in 100: it is the slowest, so p99 is still finite
  // but p100 is not.
  lat[0] = kInfiniteLatency;
  EXPECT_TRUE(Percentile(lat, 0.99) == 100);
  EXPECT_TRUE(std::isinf(Percentile(lat, 1.0)));
  // Two failed attempts in 100 put p99 at infinity; the median moves up by
  // the slots they took.
  lat[1] = kInfiniteLatency;
  EXPECT_TRUE(std::isinf(Percentile(lat, 0.99)));
  EXPECT_TRUE(Percentile(lat, 0.50) == 52);
  // All failed.
  std::vector<double> failed(10, kInfiniteLatency);
  EXPECT_TRUE(std::isinf(Percentile(failed, 0.50)));
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
  EXPECT_TRUE(Median({3, 1, 2}) == 2);
  EXPECT_TRUE(Median({4, 1, 2, 3}) == 2.5);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestStitchKnownLayers();
  perfbench::TestStitchOverlapCountsOnce();
  perfbench::TestStitchMissingHopIsUnattributed();
  perfbench::TestStitchNoMessages();
  perfbench::TestPercentiles();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perf_logic_test: %d failures\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perf_logic_test: all passed\n");
  return 0;
}
