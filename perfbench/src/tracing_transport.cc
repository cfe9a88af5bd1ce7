#include "perfbench/src/tracing_transport.h"

#include <array>
#include <atomic>
#include <utility>
#include <variant>

namespace perfbench {
namespace {

using meerkat::Address;
using meerkat::Message;

std::atomic<uint64_t> g_next_generation{1};

// What the trace needs to know about one message, read before the message is
// handed (moved) to the wrapped transport.
struct MsgInfo {
  bool traced = false;
  meerkat::TxnId tid;
  MsgType type = MsgType::kGet;
  uint32_t replica = 0;
  uint64_t aux = 0;
};

template <typename T>
void Fill(const T& payload, MsgType type, MsgInfo* info) {
  info->tid = payload.tid;
  info->type = type;
}

// Classifies client<->replica protocol messages; timers, replica<->replica
// traffic and the baselines' payloads are not traced.
MsgInfo Classify(const Message& m) {
  MsgInfo info;
  const bool to_replica =
      m.src.kind == Address::Kind::kClient && m.dst.kind == Address::Kind::kReplica;
  const bool to_client =
      m.src.kind == Address::Kind::kReplica && m.dst.kind == Address::Kind::kClient;
  if (!to_replica && !to_client) {
    return info;
  }
  info.replica = to_replica ? m.dst.id : m.src.id;
  if (const auto* p = std::get_if<meerkat::GetRequest>(&m.payload)) {
    Fill(*p, MsgType::kGet, &info);
    info.aux = p->req_seq;
  } else if (const auto* p = std::get_if<meerkat::GetReply>(&m.payload)) {
    Fill(*p, MsgType::kGetReply, &info);
    info.aux = p->req_seq;
  } else if (const auto* p = std::get_if<meerkat::ValidateRequest>(&m.payload)) {
    Fill(*p, MsgType::kValidate, &info);
  } else if (const auto* p = std::get_if<meerkat::ValidateReply>(&m.payload)) {
    Fill(*p, MsgType::kValidateReply, &info);
  } else if (const auto* p = std::get_if<meerkat::AcceptRequest>(&m.payload)) {
    Fill(*p, MsgType::kAccept, &info);
  } else if (const auto* p = std::get_if<meerkat::AcceptReply>(&m.payload)) {
    Fill(*p, MsgType::kAcceptReply, &info);
  } else if (const auto* p = std::get_if<meerkat::CommitRequest>(&m.payload)) {
    Fill(*p, MsgType::kCommit, &info);
  } else if (const auto* p = std::get_if<meerkat::CommitReply>(&m.payload)) {
    Fill(*p, MsgType::kCommitReply, &info);
  } else {
    return info;
  }
  info.traced = TraceCollector::Sampled(info.tid);
  return info;
}

// The replays copy every message of one transaction in kCaptureEvery; the
// stitcher uses every sampled transaction.
constexpr uint64_t kCaptureEvery = 64;

}  // namespace

TraceCollector::TraceCollector() : generation_(g_next_generation.fetch_add(1)) {}

ThreadLog& TraceCollector::Local() {
  thread_local uint64_t owner = 0;
  thread_local ThreadLog* log = nullptr;
  if (owner != generation_) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->events.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    log = fresh.get();
    logs_.push_back(std::move(fresh));
    owner = generation_;
  }
  return *log;
}

std::vector<const ThreadLog*> TraceCollector::Logs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadLog*> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) {
    out.push_back(log.get());
  }
  return out;
}

// Wraps one registered receiver: stamps ReceiveBatch entry for sampled
// messages and accumulates the call's self time.
class TracingTransport::ReceiverTap : public meerkat::TransportReceiver {
 public:
  ReceiverTap(meerkat::TransportReceiver* inner, TraceCollector* collector, bool client_side)
      : inner_(inner), collector_(collector), client_side_(client_side) {}

  void Receive(Message&& msg) override {
    Timed(&msg, 1, [&] { inner_->Receive(std::move(msg)); });
  }

  void ReceiveBatch(Message* msgs, size_t n) override {
    Timed(msgs, n, [&] { inner_->ReceiveBatch(msgs, n); });
  }

 private:
  template <typename Call>
  void Timed(const Message* msgs, size_t n, Call call) {
    ThreadLog& log = collector_->Local();
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; i++) {
      MsgInfo info = Classify(msgs[i]);
      if (info.traced) {
        log.events.push_back(TaggedEvent{
            info.tid,
            TraceEvent{t0, EventKind::kRecvEntry, info.type, client_side_, info.replica, info.aux}});
      }
    }
    const uint64_t nested_before = log.nested_ns;
    call();
    const uint64_t elapsed = NowNs() - t0;
    const uint64_t nested = log.nested_ns - nested_before;
    SideTotals& side = client_side_ ? log.client : log.replica;
    side.recv_calls++;
    side.recv_msgs += n;
    side.recv_self_ns += elapsed > nested ? elapsed - nested : 0;
  }

  meerkat::TransportReceiver* const inner_;
  TraceCollector* const collector_;
  const bool client_side_;
};

TracingTransport::TracingTransport(meerkat::UdpTransport* inner, TraceCollector* collector)
    : inner_(inner), collector_(collector) {}

TracingTransport::~TracingTransport() = default;

void TracingTransport::ForwardBatchOptionsOnce() {
  if (!batch_forwarded_) {
    inner_->set_batch_options(batch_options());
    batch_forwarded_ = true;
  }
}

void TracingTransport::RegisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core,
                                       meerkat::TransportReceiver* receiver) {
  ForwardBatchOptionsOnce();
  auto tap = std::make_unique<ReceiverTap>(receiver, collector_, /*client_side=*/false);
  meerkat::TransportReceiver* raw = tap.get();
  {
    std::lock_guard<std::mutex> lock(taps_mu_);
    taps_.push_back(std::move(tap));
  }
  inner_->RegisterReplica(replica, core, raw);
}

void TracingTransport::RegisterClient(uint32_t client_id, meerkat::TransportReceiver* receiver) {
  ForwardBatchOptionsOnce();
  auto tap = std::make_unique<ReceiverTap>(receiver, collector_, /*client_side=*/true);
  meerkat::TransportReceiver* raw = tap.get();
  {
    std::lock_guard<std::mutex> lock(taps_mu_);
    taps_.push_back(std::move(tap));
  }
  inner_->RegisterClient(client_id, raw);
}

void TracingTransport::UnregisterClient(uint32_t client_id) { inner_->UnregisterClient(client_id); }

void TracingTransport::UnregisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core) {
  inner_->UnregisterReplica(replica, core);
}

void TracingTransport::SetTimer(const Address& to, meerkat::CoreId core, uint64_t delay_ns,
                                uint64_t timer_id) {
  inner_->SetTimer(to, core, delay_ns, timer_id);
}

void TracingTransport::Send(Message msg) { TimedSend(&msg, 1, /*many=*/false); }

void TracingTransport::SendMany(Message* msgs, size_t n) { TimedSend(msgs, n, /*many=*/true); }

// Classifies and captures before the call (the messages are moved by it),
// times the wrapped send, then files the stamps and totals.
void TracingTransport::TimedSend(Message* msgs, size_t n, bool many) {
  if (n == 0) {
    return;
  }
  ThreadLog& log = collector_->Local();
  constexpr size_t kStack = 16;
  std::array<MsgInfo, kStack> stack_infos;
  std::vector<MsgInfo> heap_infos;
  MsgInfo* infos = stack_infos.data();
  if (n > kStack) {
    heap_infos.resize(n);
    infos = heap_infos.data();
  }
  const bool client_side = msgs[0].src.kind == Address::Kind::kClient;
  for (size_t i = 0; i < n; i++) {
    infos[i] = Classify(msgs[i]);
    if (infos[i].traced && infos[i].tid.seq % kCaptureEvery == 0 &&
        log.captured.size() < TraceCollector::kMaxCapturedPerThread) {
      log.captured.push_back(CapturedMessage{infos[i].tid, msgs[i]});
    }
    if (client_side && std::holds_alternative<meerkat::GetRequest>(msgs[i].payload)) {
      log.gets_sent++;
    }
    if (!client_side) {
      if (const auto* reply = std::get_if<meerkat::ValidateReply>(&msgs[i].payload)) {
        log.validate_replies++;
        log.abort_votes += reply->status == meerkat::TxnStatus::kValidatedAbort ? 1 : 0;
        log.shed_replies += reply->status == meerkat::TxnStatus::kRetryLater ? 1 : 0;
      }
    }
  }

  const uint64_t t0 = NowNs();
  if (many) {
    inner_->SendMany(msgs, n);
  } else {
    inner_->Send(std::move(msgs[0]));
  }
  const uint64_t t1 = NowNs();

  SideTotals& side = client_side ? log.client : log.replica;
  side.send_calls++;
  side.send_msgs += n;
  side.send_ns += t1 - t0;
  log.nested_ns += t1 - t0;
  for (size_t i = 0; i < n; i++) {
    if (!infos[i].traced) {
      continue;
    }
    TraceEvent e{t0, EventKind::kSendEntry, infos[i].type, client_side, infos[i].replica,
                 infos[i].aux};
    log.events.push_back(TaggedEvent{infos[i].tid, e});
    e.t_ns = t1;
    e.kind = EventKind::kSendReturn;
    log.events.push_back(TaggedEvent{infos[i].tid, e});
  }
}

}  // namespace perfbench
