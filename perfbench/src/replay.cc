#include "perfbench/src/replay.h"

#include <algorithm>
#include <set>

#include "perfbench/src/tracing_transport.h"
#include "src/store/occ.h"
#include "src/store/vstore.h"
#include "src/transport/serialization.h"

namespace perfbench {
namespace {

// Each replay repeats until it has timed at least this many operations, so
// a short traced run still gives a steady per-operation figure.
constexpr size_t kMinTimedOps = 50000;

size_t PassesFor(size_t per_pass) {
  return per_pass == 0 ? 0 : std::max<size_t>(1, (kMinTimedOps + per_pass - 1) / per_pass);
}

double PerOp(uint64_t ns, size_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(ops);
}

void ReplayCodec(const std::vector<const CapturedMessage*>& captured, ReplayResult* out) {
  std::vector<std::vector<uint8_t>> encoded(captured.size());
  std::set<meerkat::TxnId> tids;
  size_t bytes = 0;
  for (size_t i = 0; i < captured.size(); i++) {
    meerkat::EncodeMessageInto(captured[i]->msg, &encoded[i]);
    bytes += encoded[i].size();
    tids.insert(captured[i]->tid);
  }
  out->messages = captured.size();
  out->bytes_per_txn = tids.empty() ? 0.0 : static_cast<double>(bytes) / tids.size();
  const size_t passes = PassesFor(captured.size());

  std::vector<uint8_t> buf;
  size_t sink = 0;
  uint64_t t0 = NowNs();
  for (size_t p = 0; p < passes; p++) {
    for (const CapturedMessage* c : captured) {
      buf.clear();
      meerkat::EncodeMessageInto(c->msg, &buf);
      sink += buf.size();
    }
  }
  out->encode_ns_per_msg = PerOp(NowNs() - t0, passes * captured.size());

  meerkat::Message decoded;
  t0 = NowNs();
  for (size_t p = 0; p < passes; p++) {
    for (const std::vector<uint8_t>& bytes_in : encoded) {
      if (!meerkat::DecodeMessage(bytes_in.data(), bytes_in.size(), &decoded)) {
        out->decode_failures++;
      }
    }
  }
  out->decode_ns_per_msg = PerOp(NowNs() - t0, passes * encoded.size());
  if (sink != bytes * passes) {
    out->decode_failures++;  // Re-encoding must reproduce the same sizes.
  }
}

void ReplayStore(const std::vector<const CapturedMessage*>& captured, meerkat::Workload& workload,
                 ReplayResult* out) {
  meerkat::VStore store;
  workload.ForEachInitialKey([&](const std::string& key, const std::string& value) {
    store.LoadKey(key, value, meerkat::Timestamp{1, 0});
  });

  std::vector<const std::string*> read_keys;
  std::vector<const meerkat::ValidateRequest*> validates;
  std::set<meerkat::TxnId> validated;
  for (const CapturedMessage* c : captured) {
    if (const auto* get = std::get_if<meerkat::GetRequest>(&c->msg.payload)) {
      read_keys.push_back(&get->key);
    } else if (const auto* v = std::get_if<meerkat::ValidateRequest>(&c->msg.payload)) {
      // One copy per fan-out: every replica validates the same request.
      if (validated.insert(c->tid).second) {
        validates.push_back(v);
      }
    }
  }

  const size_t read_passes = PassesFor(read_keys.size());
  uint64_t t0 = NowNs();
  for (size_t p = 0; p < read_passes; p++) {
    for (const std::string* key : read_keys) {
      store.Read(*key);
    }
  }
  out->read_ns = PerOp(NowNs() - t0, read_passes * read_keys.size());

  // Validate in timestamp order, each read set refreshed to the replay
  // store's current version, so the replay walks the same checks and
  // registrations a replica does for a transaction that commits (the
  // captured versions belong to the live run's store, not this one).
  std::sort(validates.begin(), validates.end(),
            [](const meerkat::ValidateRequest* a, const meerkat::ValidateRequest* b) {
              return a->ts < b->ts;
            });
  uint64_t validate_ns = 0;
  uint64_t commit_ns = 0;
  size_t commits = 0;
  std::vector<meerkat::ReadSetEntry> reads;
  for (const meerkat::ValidateRequest* v : validates) {
    reads = v->read_set();
    for (meerkat::ReadSetEntry& r : reads) {
      r.read_wts = store.ReadVersion(r.key).wts;
    }
    const uint64_t a = NowNs();
    const meerkat::TxnStatus status = meerkat::OccValidate(store, reads, v->write_set(), v->ts);
    const uint64_t b = NowNs();
    validate_ns += b - a;
    if (status == meerkat::TxnStatus::kValidatedOk) {
      meerkat::OccCommit(store, reads, v->write_set(), v->ts);
      commit_ns += NowNs() - b;
      commits++;
    }
  }
  out->validate_ns = PerOp(validate_ns, validates.size());
  out->commit_ns = PerOp(commit_ns, commits);
}

}  // namespace

ReplayResult ReplayStoreAndCodec(const std::vector<const CapturedMessage*>& captured,
                                 meerkat::Workload& workload) {
  ReplayResult out;
  ReplayCodec(captured, &out);
  ReplayStore(captured, workload, &out);
  return out;
}

}  // namespace perfbench
