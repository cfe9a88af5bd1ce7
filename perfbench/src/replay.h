// Store and codec layer costs, measured by replaying the traced run's
// captured messages through the layers' public functions on the main thread:
//
//  - store: every captured GET key through VStore::Read, and every captured
//    VALIDATE through OccValidate, then OccCommit when it validates, on a
//    store loaded with the workload's initial keys;
//  - codec: every captured message through EncodeMessageInto and back
//    through DecodeMessage.
//
// Replaying off the critical path keeps the traced run's transport timings
// free of per-operation clock reads inside the store, and times each layer
// alone, with no poller or socket work interleaved.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <vector>

#include "src/common/types.h"
#include "src/transport/message.h"
#include "src/workload/workload.h"

namespace perfbench {

// A message of a sampled transaction, copied before it was sent.
struct CapturedMessage {
  meerkat::TxnId tid;
  meerkat::Message msg;
};

struct ReplayResult {
  double read_ns = 0;
  double validate_ns = 0;
  double commit_ns = 0;
  double encode_ns_per_msg = 0;
  double decode_ns_per_msg = 0;
  // Encoded bytes of every captured message, per captured transaction.
  double bytes_per_txn = 0;
  size_t messages = 0;
  size_t decode_failures = 0;
};

ReplayResult ReplayStoreAndCodec(const std::vector<const CapturedMessage*>& captured,
                                 meerkat::Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
