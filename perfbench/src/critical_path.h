// Critical-path stitching for one sampled transaction.
//
// The traced run stamps every layer boundary a message of a sampled
// transaction crosses — send-call entry and return on the sending thread,
// ReceiveBatch entry on the receiving thread — with one shared steady_clock.
// The benchmark adds the transaction's ExecuteAsync call (start) and its
// completion callback (end). From those stamps this file rebuilds the chain
// of steps that the callback actually waited for, walking backwards from the
// end:
//
//   client processing  <- last reply received before the callback
//   wire (reply)       <- the replica's send of that reply
//   replica send       <- send-call entry .. return
//   replica dispatch   <- ReceiveBatch entry of the request it answered
//   wire (request)     <- the client's send of that request
//   client send        <- send-call entry .. return
//   client processing  <- previous reply received, or the start
//
// and attributes each interval to its layer. Intervals are clamped so they
// never overlap: loopback delivery can hand a datagram to the receiver's
// poller before the sender's sendmmsg returns, which would otherwise count
// that overlap twice. With a complete chain the layer times sum to exactly
// the transaction's latency; a hop whose stamps are missing ends the walk
// and the rest of the latency is reported as unattributed.
//
// Header-only and free of meerkat types, so the logic test drives it with
// synthetic event logs.

#ifndef PERFBENCH_SRC_CRITICAL_PATH_H_
#define PERFBENCH_SRC_CRITICAL_PATH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class MsgType : uint8_t {
  kGet = 0,
  kGetReply,
  kValidate,
  kValidateReply,
  kAccept,
  kAcceptReply,
  kCommit,
  kCommitReply,
  kCount,
};

enum class EventKind : uint8_t { kSendEntry = 0, kSendReturn, kRecvEntry };

// One stamp of one message of one sampled transaction.
struct TraceEvent {
  uint64_t t_ns = 0;
  EventKind kind = EventKind::kSendEntry;
  MsgType msg = MsgType::kGet;
  // Where the stamp was taken: a client session's thread or a replica core's.
  bool at_client = true;
  // The replica at the other end of the message (its destination for a
  // request, its source for a reply).
  uint32_t replica = 0;
  // Disambiguates repeated messages of one type in one transaction: the GET
  // request sequence number; 0 for the other types.
  uint64_t aux = 0;
};

enum class Layer : uint8_t {
  kSessionIssue = 0,  // ExecuteAsync to the first send (or to the end).
  kSessionReceive,    // A reply's ReceiveBatch entry to the next send.
  kClientSend,        // Send/SendMany calls on the client thread.
  kReplicaSend,       // Send/SendMany calls on a replica core.
  kReplicaDispatch,   // A request's ReceiveBatch entry to its reply's send.
  kWireGet,           // Send return to ReceiveBatch entry, per message type.
  kWireGetReply,
  kWireValidate,
  kWireValidateReply,
  kWireAccept,
  kWireAcceptReply,
  kUnattributed,
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSessionIssue:
      return "session.issue";
    case Layer::kSessionReceive:
      return "session.receive";
    case Layer::kClientSend:
      return "transport.client_send";
    case Layer::kReplicaSend:
      return "transport.replica_send";
    case Layer::kReplicaDispatch:
      return "replica.dispatch";
    case Layer::kWireGet:
      return "wire.get";
    case Layer::kWireGetReply:
      return "wire.get_reply";
    case Layer::kWireValidate:
      return "wire.validate";
    case Layer::kWireValidateReply:
      return "wire.validate_reply";
    case Layer::kWireAccept:
      return "wire.accept";
    case Layer::kWireAcceptReply:
      return "wire.accept_reply";
    case Layer::kUnattributed:
    case Layer::kCount:
      break;
  }
  return "unattributed";
}

inline bool IsReply(MsgType m) {
  return m == MsgType::kGetReply || m == MsgType::kValidateReply ||
         m == MsgType::kAcceptReply || m == MsgType::kCommitReply;
}

// The request a reply answers.
inline MsgType RequestOf(MsgType reply) {
  return static_cast<MsgType>(static_cast<uint8_t>(reply) - 1);
}

inline Layer WireLayer(MsgType m) {
  switch (m) {
    case MsgType::kGet:
      return Layer::kWireGet;
    case MsgType::kGetReply:
      return Layer::kWireGetReply;
    case MsgType::kValidate:
      return Layer::kWireValidate;
    case MsgType::kValidateReply:
      return Layer::kWireValidateReply;
    case MsgType::kAccept:
      return Layer::kWireAccept;
    case MsgType::kAcceptReply:
      return Layer::kWireAcceptReply;
    default:
      return Layer::kUnattributed;
  }
}

struct PathBreakdown {
  uint64_t latency_ns = 0;
  std::array<uint64_t, kLayerCount> ns{};
  // Validation round (when the transaction validated): last validate send's
  // return to the deciding reply's arrival, and first reply's arrival to the
  // deciding reply's arrival.
  bool validated = false;
  uint64_t validate_wait_ns = 0;
  uint64_t straggler_ns = 0;

  uint64_t at(Layer layer) const { return ns[static_cast<size_t>(layer)]; }
};

namespace internal {

inline bool SameMessage(const TraceEvent& e, MsgType msg, uint32_t replica, uint64_t aux) {
  return e.msg == msg && e.replica == replica && e.aux == aux;
}

// Index of the latest event matching the predicate with t_ns <= bound, or -1.
template <typename Pred>
long LatestAtOrBefore(const std::vector<TraceEvent>& ev, uint64_t bound, Pred pred) {
  for (long i = static_cast<long>(ev.size()) - 1; i >= 0; i--) {
    const TraceEvent& e = ev[static_cast<size_t>(i)];
    if (e.t_ns <= bound && pred(e)) {
      return i;
    }
  }
  return -1;
}

// The return stamp paired with the send-entry stamp at index `entry`: the
// first send return of the same message on the same side at or after it.
inline long ReturnOf(const std::vector<TraceEvent>& ev, long entry) {
  const TraceEvent& in = ev[static_cast<size_t>(entry)];
  for (size_t i = static_cast<size_t>(entry); i < ev.size(); i++) {
    const TraceEvent& e = ev[i];
    if (e.kind == EventKind::kSendReturn && e.at_client == in.at_client &&
        SameMessage(e, in.msg, in.replica, in.aux)) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// The interval that ends at `t` belongs to `layer`.
struct Boundary {
  uint64_t t;
  Layer layer;
};

}  // namespace internal

// Stitches one transaction's critical path. `events` holds every stamp of
// the transaction's messages, in any order.
inline PathBreakdown StitchCriticalPath(uint64_t start_ns, uint64_t end_ns,
                                        std::vector<TraceEvent> events) {
  using internal::Boundary;
  using internal::LatestAtOrBefore;
  using internal::ReturnOf;
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.t_ns < b.t_ns; });
  PathBreakdown out;
  out.latency_ns = end_ns > start_ns ? end_ns - start_ns : 0;

  // Built end-to-start, reversed at the end.
  std::vector<Boundary> rev;
  rev.push_back({end_ns, Layer::kSessionReceive});  // Client processing; relabeled below.
  uint64_t cursor = end_ns;
  for (;;) {
    long r = LatestAtOrBefore(events, cursor, [&](const TraceEvent& e) {
      return e.kind == EventKind::kRecvEntry && e.at_client && IsReply(e.msg) &&
             e.t_ns >= start_ns;
    });
    const uint64_t lo = r >= 0 ? events[static_cast<size_t>(r)].t_ns : start_ns;
    const Layer session = r >= 0 ? Layer::kSessionReceive : Layer::kSessionIssue;
    // Client processing in (lo, cursor], less the send calls made inside it
    // (the commit broadcast before the callback, for one). The interval
    // ending at `cursor` was pushed by the previous step with a placeholder
    // layer; it is client processing.
    rev.back().layer = session;
    uint64_t last_entry = UINT64_MAX;
    for (long i = static_cast<long>(events.size()) - 1; i >= 0; i--) {
      const TraceEvent& e = events[static_cast<size_t>(i)];
      if (e.kind != EventKind::kSendEntry || !e.at_client || e.t_ns < lo ||
          e.t_ns >= cursor || e.t_ns == last_entry) {
        continue;  // Messages of one SendMany share their stamps.
      }
      long ret = ReturnOf(events, i);
      if (ret < 0) {
        continue;
      }
      last_entry = e.t_ns;
      rev.push_back({events[static_cast<size_t>(ret)].t_ns, Layer::kClientSend});
      rev.push_back({e.t_ns, session});
    }
    if (r < 0) {
      break;  // Reached the start: (start, first boundary] is session issue.
    }
    const TraceEvent& reply = events[static_cast<size_t>(r)];
    long se = LatestAtOrBefore(events, reply.t_ns, [&](const TraceEvent& e) {
      return e.kind == EventKind::kSendEntry && !e.at_client &&
             internal::SameMessage(e, reply.msg, reply.replica, reply.aux);
    });
    long sr = se >= 0 ? ReturnOf(events, se) : -1;
    long q = -1;
    if (sr >= 0) {
      const uint64_t reply_sent = events[static_cast<size_t>(se)].t_ns;
      q = LatestAtOrBefore(events, reply_sent, [&](const TraceEvent& e) {
        return e.kind == EventKind::kRecvEntry && !e.at_client &&
               internal::SameMessage(e, RequestOf(reply.msg), reply.replica, reply.aux);
      });
    }
    long pe = -1;
    long pr = -1;
    if (q >= 0) {
      const TraceEvent& req = events[static_cast<size_t>(q)];
      pe = LatestAtOrBefore(events, req.t_ns, [&](const TraceEvent& e) {
        return e.kind == EventKind::kSendEntry && e.at_client &&
               internal::SameMessage(e, req.msg, req.replica, req.aux);
      });
      pr = pe >= 0 ? ReturnOf(events, pe) : -1;
    }
    // The hop from the reply back to its request's send. Each boundary ends
    // the interval of the layer named with it.
    rev.push_back({reply.t_ns, WireLayer(reply.msg)});
    if (pr < 0) {
      // A stamp of this hop is missing: nothing before the reply can be
      // attributed with confidence.
      rev.back().layer = Layer::kUnattributed;
      rev.push_back({start_ns, Layer::kUnattributed});
      break;
    }
    const TraceEvent& req = events[static_cast<size_t>(q)];
    rev.push_back({events[static_cast<size_t>(sr)].t_ns, Layer::kReplicaSend});
    rev.push_back({events[static_cast<size_t>(se)].t_ns, Layer::kReplicaDispatch});
    rev.push_back({req.t_ns, WireLayer(req.msg)});
    rev.push_back({events[static_cast<size_t>(pr)].t_ns, Layer::kClientSend});
    cursor = events[static_cast<size_t>(pe)].t_ns;
    rev.push_back({cursor, Layer::kSessionReceive});  // Placeholder, see above.
  }

  // Forward pass: each boundary closes, for its layer, the interval since
  // the furthest point reached so far, clamped into [start, end] so
  // overlapping stamps count once.
  uint64_t reached = start_ns;
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    uint64_t t = std::min(std::max(it->t, start_ns), end_ns);
    if (t > reached) {
      out.ns[static_cast<size_t>(it->layer)] += t - reached;
      reached = t;
    }
  }

  // Validation round summary.
  long deciding = LatestAtOrBefore(events, end_ns, [](const TraceEvent& e) {
    return e.kind == EventKind::kRecvEntry && e.at_client && e.msg == MsgType::kValidateReply;
  });
  if (deciding >= 0) {
    const uint64_t t_dec = events[static_cast<size_t>(deciding)].t_ns;
    long ve = LatestAtOrBefore(events, t_dec, [](const TraceEvent& e) {
      return e.kind == EventKind::kSendEntry && e.at_client && e.msg == MsgType::kValidate;
    });
    long vr = ve >= 0 ? ReturnOf(events, ve) : -1;
    if (vr >= 0) {
      const uint64_t sent_entry = events[static_cast<size_t>(ve)].t_ns;
      const uint64_t sent_return = events[static_cast<size_t>(vr)].t_ns;
      uint64_t first = t_dec;
      for (const TraceEvent& e : events) {
        if (e.kind == EventKind::kRecvEntry && e.at_client &&
            e.msg == MsgType::kValidateReply && e.t_ns >= sent_entry) {
          first = std::min(first, e.t_ns);
        }
      }
      out.validated = true;
      out.validate_wait_ns = t_dec > sent_return ? t_dec - sent_return : 0;
      out.straggler_ns = t_dec - first;
    }
  }
  return out;
}

// Per-message wire time: for every receive stamp, the time since its send
// call returned (signed: a loopback datagram can reach the receiver before
// the sending sendmmsg returns). Calls fn(msg_type, wire_ns).
template <typename Fn>
void ForEachWireTime(std::vector<TraceEvent> events, Fn fn) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.t_ns < b.t_ns; });
  for (const TraceEvent& recv : events) {
    if (recv.kind != EventKind::kRecvEntry) {
      continue;
    }
    long se = internal::LatestAtOrBefore(events, recv.t_ns, [&](const TraceEvent& e) {
      return e.kind == EventKind::kSendEntry && e.at_client != recv.at_client &&
             internal::SameMessage(e, recv.msg, recv.replica, recv.aux);
    });
    long sr = se >= 0 ? internal::ReturnOf(events, se) : -1;
    if (sr >= 0) {
      fn(recv.msg, static_cast<int64_t>(recv.t_ns) -
                       static_cast<int64_t>(events[static_cast<size_t>(sr)].t_ns));
    }
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CRITICAL_PATH_H_
