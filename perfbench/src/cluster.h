// One measured deployment: a 3-replica Meerkat System over a real
// UdpTransport, loaded with a workload's keys, driven by closed-loop client
// sessions.
//
// Load shape (every workload): kClients sessions, each one UDP socket plus
// its poller thread. A session issues its next transaction from its own
// completion callback, so the main thread only opens and closes the
// measuring window. An aborted attempt counts; the session then draws a
// fresh transaction instead of retrying it (paper §6.2 methodology).

#ifndef PERFBENCH_SRC_CLUSTER_H_
#define PERFBENCH_SRC_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/tracing_transport.h"
#include "src/api/system.h"
#include "src/common/clock.h"
#include "src/transport/udp_transport.h"
#include "src/workload/workload.h"
#include "tests/serializability_checker.h"

namespace perfbench {

inline constexpr size_t kClients = 4;

struct WorkloadSpec {
  std::string name;
  meerkat::SystemOptions options;
  std::function<std::unique_ptr<meerkat::Workload>()> make;
};

// The named workload's configuration; false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* out);

// One transaction attempt, from the ExecuteAsync call to its callback.
struct Attempt {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0: never completed.
  meerkat::TxnResult result = meerkat::TxnResult::kFailed;
  meerkat::CommitPath path = meerkat::CommitPath::kNone;
  uint64_t retransmits = 0;
};

// A sampled transaction's span, for the critical-path stitcher.
struct Span {
  meerkat::TxnId tid;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// One slice of the measuring window; the window is cut into one slice per
// second so the headline figures can be medians over slices, which a brief
// burst of interference on the host moves much less than a pooled figure.
struct Slice {
  double seconds = 0;
  double cpu_seconds = 0;  // Process user+sys CPU.
  uint64_t committed = 0;
  // Latency of each attempt started in the slice, kInfiniteLatency for a
  // failed one.
  std::vector<double> latencies_ns;
};

// Everything measured over one window, plus whole-run totals.
struct WindowResult {
  uint64_t window_start_ns = 0;
  uint64_t window_end_ns = 0;
  double seconds = 0;
  // Attempts started inside the window.
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;
  uint64_t fast_decisions = 0;
  uint64_t slow_decisions = 0;
  uint64_t retransmits = 0;
  std::vector<Slice> slices;
  // Whole run (first issue to drain): attempts issued and completed, and
  // the deltas of the library counters the per-layer metrics read.
  uint64_t run_attempts = 0;
  uint64_t run_sent_datagrams = 0;
  uint64_t run_cache_hits = 0;
  uint64_t run_cache_misses = 0;
  uint64_t run_cache_expired = 0;
  uint64_t run_cache_invalidated = 0;
};

class ClosedLoopClient;

class Cluster {
 public:
  // `collector` non-null wraps the transport in the tracing decorator;
  // `checker` non-null records the committed history.
  Cluster(const WorkloadSpec& spec, uint64_t seed, TraceCollector* collector,
          meerkat::SerializabilityChecker* checker);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Transport and System creation, key load and session creation.
  double setup_seconds() const { return setup_seconds_; }

  // Starts every session, warms up, measures `seconds`, then stops issuing,
  // drains, runs the post-drain checks and stops the transport.
  WindowResult Run(double warmup_seconds, double seconds);

  // Post-Run correctness; each appends a reason to `why` on failure.
  bool CheckAccounting(std::string* why) const;
  bool replicas_agree() const { return replicas_agree_; }
  const std::string& agreement_report() const { return agreement_report_; }

  // trecord.live_records after the drain, relative to before set-up.
  int64_t live_records() const { return live_records_; }
  bool reuseport_steering() const { return udp_->reuseport_steering(); }
  meerkat::Workload& workload() { return *workload_; }

  // Resident bytes of the benchmark's own per-attempt records.
  size_t RecordBytes() const;

  // Sampled spans of every client (traced clusters only), valid after Run.
  std::vector<Span> Spans() const;

 private:
  void CheckReplicaAgreement();

  std::unique_ptr<meerkat::Workload> workload_;
  std::unique_ptr<meerkat::UdpTransport> udp_;
  std::unique_ptr<TracingTransport> tap_;
  meerkat::SystemTimeSource clock_;
  std::unique_ptr<meerkat::System> system_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> active_{0};
  double setup_seconds_ = 0;
  int64_t live_before_ = 0;
  int64_t live_records_ = 0;
  bool replicas_agree_ = false;
  std::string agreement_report_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLUSTER_H_
