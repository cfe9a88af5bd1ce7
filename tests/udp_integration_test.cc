// End-to-end integration over the loopback-UDP transport: every protocol
// message crosses a real socket, gets serialized/deserialized, and is
// kernel-steered to its destination core's poller thread. All four system
// kinds must stay serializable, survive genuine + injected datagram loss,
// and (via tests/zcp_conformance.h) produce zero DAP violations while doing
// so — the wire runtime preserves the same zero-coordination structure as
// the in-process runtimes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/api/blocking_client.h"
#include "src/common/metrics.h"
#include "src/workload/driver.h"
#include "src/workload/ycsb_t.h"
#include "tests/serializability_checker.h"
#include "tests/test_util.h"
#include "tests/trace_dump_on_failure.h"
#include "tests/zcp_conformance.h"

namespace meerkat {
namespace {

// Runs a short concurrent YCSB-T workload over UDP and checks the committed
// history for serializability. Shared by the per-kind and lossy suites.
void RunWorkloadOverUdp(UdpHarness& h, int num_clients, int duration_ms,
                        const char* context) {
  YcsbTOptions y;
  y.num_keys = 64;
  y.key_size = 8;
  y.value_size = 8;
  YcsbTWorkload workload(y);

  SerializabilityChecker checker;
  workload.ForEachInitialKey([&](const std::string& key, const std::string& value) {
    h.system().Load(key, value);
    checker.RecordLoadedKey(key);
  });

  ThreadedRunOptions run;
  run.num_clients = num_clients;
  run.duration_ms = duration_ms;
  run.load_initial_keys = false;
  run.on_txn_done = [&checker](ClientSession& session, const TxnOutcome& outcome) {
    if (outcome.committed()) {
      checker.RecordCommit(session);
    }
  };
  RunResult result = RunThreadedWorkload(h.system(), workload, run);

  EXPECT_GT(result.stats.committed, 5u) << "no progress over UDP (" << context << ")";
  std::vector<std::string> violations = checker.Check();
  for (const std::string& v : violations) {
    ADD_FAILURE() << context << ": " << v;
  }
}

// All four system kinds run the same workload over the wire.
class UdpAllKindsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(UdpAllKindsTest, ServesSerializableTrafficOverLoopback) {
  SystemOptions options = DefaultOptions(GetParam(), /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpHarness h(options);

  uint64_t sent_before = SnapshotMetrics().CounterValue("udp.sent_datagrams");
  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/250, ToString(GetParam()));

  // The traffic really took the wire path: datagrams were sent and received.
  // Stop the transport first (idempotent; the harness destructor repeats it):
  // histogram snapshots are only race-free at quiescent points (metrics.cc),
  // and the timer thread records wire histograms for as long as it runs.
  h.transport().Stop();
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_GT(snap.CounterValue("udp.sent_datagrams"), sent_before);
  EXPECT_EQ(snap.CounterValue("udp.missteered_drops"), 0u)
      << "kernel steering delivered a datagram to the wrong core's socket";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, UdpAllKindsTest,
                         ::testing::Values(SystemKind::kMeerkat, SystemKind::kMeerkatPb,
                                           SystemKind::kTapir, SystemKind::kKuaFu),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           switch (info.param) {
                             case SystemKind::kMeerkat:
                               return std::string("Meerkat");
                             case SystemKind::kMeerkatPb:
                               return std::string("MeerkatPb");
                             case SystemKind::kTapir:
                               return std::string("Tapir");
                             case SystemKind::kKuaFu:
                               return std::string("KuaFu");
                           }
                           return std::string("Unknown");
                         });

// Injected drop/duplicate probability on top of genuine UDP loss: the
// protocol must mask both with retransmissions and stay serializable.
class UdpLossyNetworkTest : public ::testing::TestWithParam<double> {};

TEST_P(UdpLossyNetworkTest, MeerkatSurvivesDropsOverUdp) {
  double drop = GetParam();
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpHarness h(options);
  h.transport().faults().SetDropProbability(drop);
  h.transport().faults().SetDuplicateProbability(drop);
  h.transport().faults().SetMaxExtraDelay(1'000'000);

  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/250,
                     ("drop=" + std::to_string(drop)).c_str());
}

INSTANTIATE_TEST_SUITE_P(DropRates, UdpLossyNetworkTest, ::testing::Values(0.01, 0.05, 0.15),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "drop" + std::to_string(static_cast<int>(info.param * 100));
                         });

// Delayed delivery rides the transport's timer heap rather than the direct
// sendmmsg path; the protocol must tolerate the induced reordering.
TEST(UdpDelayTest, ReorderingUnderBaseDelay) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpTransport::Options udp;
  udp.base_delay_ns = 200'000;  // 0.2 ms each way.
  UdpHarness h(options, udp);
  h.transport().faults().SetMaxExtraDelay(500'000);

  RunWorkloadOverUdp(h, /*num_clients=*/2, /*duration_ms=*/200, "base_delay");
}

TEST(UdpFiveReplicaTest, FastAndSlowPathQuorumsOverUdp) {
  // n=5 (f=2) over the wire: fast path needs 4 matching votes; with two
  // replicas crashed the slow path (3 votes) must still commit.
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2, /*replicas=*/5);
  // The retransmit timer is also what moves a coordinator short of a fast
  // quorum onto the slow path. 200 ms is far above delivery time, so the
  // fourth vote always beats it in the fast-path phase, while the crash
  // phases below still reach the slow path through it.
  options.retry = RetryPolicy::WithTimeout(200'000'000);
  UdpHarness h(options);
  h.system().Load("k", "v0");

  BlockingClient client(h.system(), 1);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "v1"));
  ASSERT_EQ(client.ExecuteWithRetry(plan).result, TxnResult::kCommit);
  EXPECT_GE(client.session().stats().fast_path_commits, 1u);

  h.transport().faults().CrashReplica(4);
  TxnPlan plan2;
  plan2.ops.push_back(Op::Rmw("k", "v2"));
  ASSERT_EQ(client.ExecuteWithRetry(plan2).result, TxnResult::kCommit);

  h.transport().faults().CrashReplica(3);
  TxnPlan plan3;
  plan3.ops.push_back(Op::Rmw("k", "v3"));
  ASSERT_EQ(client.ExecuteWithRetry(plan3).result, TxnResult::kCommit);
  EXPECT_GE(client.session().stats().slow_path_commits, 1u);
  h.transport().DrainForTesting();
  EXPECT_EQ(h.system().ReadAtReplica(0, "k").value, "v3");
}

// The distinct-port fallback must be a drop-in: same protocol behavior when
// every (replica, core) endpoint has its own port instead of a cBPF-steered
// reuseport group.
TEST(UdpFallbackModeTest, DistinctPortsServeSerializableTraffic) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpTransport::Options udp;
  udp.force_distinct_ports = true;
  UdpHarness h(options, udp);
  EXPECT_FALSE(h.transport().reuseport_steering());

  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/200, "distinct_ports");
}

}  // namespace
}  // namespace meerkat
