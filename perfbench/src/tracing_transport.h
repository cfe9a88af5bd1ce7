// The traced run's Transport decorator and the per-thread logs it fills.
//
// TracingTransport wraps the real UdpTransport. It times every Send/SendMany
// call, and wraps every receiver handed to RegisterReplica/RegisterClient so
// it can time ReceiveBatch. All stamps come from one steady_clock, shared by
// every thread of the process, so stamps taken on a client thread and on a
// replica core line up.
//
// Aggregates (call counts and times) cover every call. Per-message stamps,
// and copies of the messages for the store and codec replays, are kept only
// for sampled transactions (TxnId::seq % kSampleEvery == 0), which bounds
// the tracing work and memory per transaction.
//
// Recording is per thread: each thread appends to its own ThreadLog, created
// on the thread's first record. Logs are read only after the transport has
// been stopped (its threads joined).

#ifndef PERFBENCH_SRC_TRACING_TRANSPORT_H_
#define PERFBENCH_SRC_TRACING_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/src/critical_path.h"
#include "perfbench/src/replay.h"
#include "src/common/types.h"
#include "src/transport/message.h"
#include "src/transport/udp_transport.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One traced transaction's stamps, tagged with its id.
struct TaggedEvent {
  meerkat::TxnId tid;
  TraceEvent event;
};

// Call totals of one side (client threads or replica cores).
struct SideTotals {
  uint64_t send_calls = 0;
  uint64_t send_msgs = 0;
  uint64_t send_ns = 0;
  uint64_t recv_calls = 0;
  uint64_t recv_msgs = 0;
  // ReceiveBatch time minus the send calls and benchmark callbacks nested in
  // it.
  uint64_t recv_self_ns = 0;
};

struct ThreadLog {
  // Time spent in nested, separately attributed calls on this thread (send
  // calls, benchmark callbacks); a ReceiveBatch subtracts the growth of this
  // counter across its own call to get its self time.
  uint64_t nested_ns = 0;
  SideTotals client;
  SideTotals replica;
  // Replica-sent validate replies by status.
  uint64_t validate_replies = 0;
  uint64_t abort_votes = 0;
  uint64_t shed_replies = 0;
  // Client-sent GET requests.
  uint64_t gets_sent = 0;
  // Benchmark-side session and workload timings.
  uint64_t issue_calls = 0;
  uint64_t issue_self_ns = 0;
  uint64_t gen_calls = 0;
  uint64_t gen_ns = 0;
  std::vector<TaggedEvent> events;
  std::vector<CapturedMessage> captured;
};

class TraceCollector {
 public:
  static constexpr uint64_t kSampleEvery = 8;
  // Caps the message copies kept for the replays.
  static constexpr size_t kMaxCapturedPerThread = 1 << 16;

  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  static bool Sampled(const meerkat::TxnId& tid) {
    return tid.seq % kSampleEvery == 0 && tid.client_id != 0;
  }

  // The calling thread's log, created on first use.
  ThreadLog& Local();

  // Every thread's log. Only valid once the recording threads have stopped.
  std::vector<const ThreadLog*> Logs() const;

 private:
  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class TracingTransport : public meerkat::Transport {
 public:
  TracingTransport(meerkat::UdpTransport* inner, TraceCollector* collector);
  ~TracingTransport() override;
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void RegisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core,
                       meerkat::TransportReceiver* receiver) override;
  void RegisterClient(uint32_t client_id, meerkat::TransportReceiver* receiver) override;
  void UnregisterClient(uint32_t client_id) override;
  void UnregisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core) override;
  void Send(meerkat::Message msg) override;
  void SendMany(meerkat::Message* msgs, size_t n) override;
  void SetTimer(const meerkat::Address& to, meerkat::CoreId core, uint64_t delay_ns,
                uint64_t timer_id) override;
  meerkat::FaultInjector* fault_injector() override { return inner_->fault_injector(); }

 private:
  class ReceiverTap;

  // CreateSystem sets the batch governor on this decorator, and
  // set_batch_options is not virtual: copy it into the wrapped transport
  // before its first endpoint (and poller thread) exists.
  void ForwardBatchOptionsOnce();
  void TimedSend(meerkat::Message* msgs, size_t n, bool many);

  meerkat::UdpTransport* const inner_;
  TraceCollector* const collector_;
  bool batch_forwarded_ = false;
  std::mutex taps_mu_;
  std::vector<std::unique_ptr<ReceiverTap>> taps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACING_TRANSPORT_H_
