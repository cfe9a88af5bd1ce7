#include "perfbench/src/cluster.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <utility>

#include "perfbench/src/latency_stats.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/workload/retwis.h"
#include "src/workload/ycsb_b.h"
#include "src/workload/ycsb_t.h"

namespace perfbench {

using meerkat::TxnOutcome;
using meerkat::TxnResult;

namespace {

// Every workload's keys and values are 64 bytes (paper §6.2).
constexpr size_t kItemBytes = 64;
constexpr uint64_t kWorkloadKeys = 100000;
// ycsbb_cached: a key set the client cache can hold.
constexpr uint64_t kCachedKeys = 1024;
// One attempt in this many records its first written key for the
// post-drain replica agreement check.
constexpr size_t kKeySampleEvery = 64;
// Attempt records reserved per session up front, so the record vector never
// reallocates mid-run (a reallocation briefly holds two copies, which would
// show in the peak RSS). Reserved pages only become resident when written.
constexpr size_t kReservedAttempts = size_t{1} << 21;
// How long the drain waits for the last in-flight attempts.
constexpr double kDrainTimeoutSeconds = 5.0;

meerkat::SystemOptions Deployment(size_t cores) {
  return meerkat::SystemOptions()
      .WithKind(meerkat::SystemKind::kMeerkat)
      .WithReplicas(3)
      .WithCores(cores);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  out->name = name;
  if (name == "ycsbt_uniform") {
    out->options = Deployment(1);
    out->make = [] {
      meerkat::YcsbTOptions y;
      y.num_keys = kWorkloadKeys;
      y.zipf_theta = 0.0;
      y.key_size = kItemBytes;
      y.value_size = kItemBytes;
      y.rmws_per_txn = 1;
      return std::unique_ptr<meerkat::Workload>(new meerkat::YcsbTWorkload(y));
    };
    return true;
  }
  if (name == "retwis_zipf") {
    out->options = Deployment(2);
    out->make = [] {
      meerkat::RetwisOptions r;
      r.num_keys = kWorkloadKeys;
      r.zipf_theta = 0.8;
      r.key_size = kItemBytes;
      r.value_size = kItemBytes;
      return std::unique_ptr<meerkat::Workload>(new meerkat::RetwisWorkload(r));
    };
    return true;
  }
  if (name == "ycsbb_cached") {
    // CacheOptions as in bench/bench_client_cache.cc.
    out->options = Deployment(1).WithCache(meerkat::CacheOptions()
                                               .WithEnabled(true)
                                               .WithCapacity(2 * kCachedKeys)
                                               .WithLease(10'000'000)
                                               .WithContendedThreshold(64));
    out->make = [] {
      meerkat::YcsbBOptions y;
      y.num_keys = kCachedKeys;
      y.zipf_theta = 0.99;
      y.key_size = kItemBytes;
      y.value_size = kItemBytes;
      y.ops_per_txn = 4;
      y.read_fraction = 0.95;
      return std::unique_ptr<meerkat::Workload>(new meerkat::YcsbBWorkload(y));
    };
    return true;
  }
  return false;
}

// One closed-loop session. Issue and OnDone run on the session's poller
// thread (the very first Issue runs on the main thread, before any reply can
// arrive); nothing here is shared with another session.
class ClosedLoopClient {
 public:
  ClosedLoopClient(std::unique_ptr<meerkat::ClientSession> session, meerkat::Workload* workload,
                   uint64_t seed, std::atomic<bool>* stop, std::atomic<size_t>* active,
                   TraceCollector* collector, meerkat::SerializabilityChecker* checker)
      : session_(std::move(session)), workload_(workload), rng_(seed), stop_(stop),
        active_(active), collector_(collector), checker_(checker) {
    attempts_.reserve(kReservedAttempts);
  }

  void Issue() {
    ThreadLog* log = collector_ != nullptr ? &collector_->Local() : nullptr;
    const uint64_t gen_start = log != nullptr ? NowNs() : 0;
    meerkat::TxnPlan plan = workload_->NextTxn(rng_);
    if (log != nullptr) {
      log->gen_calls++;
      log->gen_ns += NowNs() - gen_start;
    }
    if (attempts_.size() % kKeySampleEvery == 0) {
      for (const meerkat::Op& op : plan.ops) {
        if (op.kind != meerkat::Op::Kind::kGet) {
          sample_keys_.push_back(op.key);
          break;
        }
      }
    }
    Attempt& attempt = attempts_.emplace_back();
    const uint64_t start = NowNs();
    attempt.start_ns = start;
    const uint64_t nested_before = log != nullptr ? log->nested_ns : 0;
    // Once ExecuteAsync returns, the reply path may already own attempts_.
    session_->ExecuteAsync(std::move(plan), [this](const TxnOutcome& o) { OnDone(o); });
    if (log != nullptr) {
      const uint64_t elapsed = NowNs() - start;
      const uint64_t nested = log->nested_ns - nested_before;
      log->issue_calls++;
      log->issue_self_ns += elapsed > nested ? elapsed - nested : 0;
    }
  }

  const std::vector<Attempt>& attempts() const { return attempts_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& sample_keys() const { return sample_keys_; }
  meerkat::ClientSession& session() const { return *session_; }

 private:
  void OnDone(const TxnOutcome& outcome) {
    const uint64_t end = NowNs();
    ThreadLog* log = collector_ != nullptr ? &collector_->Local() : nullptr;
    const uint64_t nested_before = log != nullptr ? log->nested_ns : 0;
    Attempt& attempt = attempts_.back();
    attempt.end_ns = end;
    attempt.result = outcome.result;
    attempt.path = outcome.path;
    attempt.retransmits = outcome.retransmits;
    if (log != nullptr && TraceCollector::Sampled(outcome.tid)) {
      spans_.push_back(Span{outcome.tid, attempt.start_ns, end});
    }
    if (checker_ != nullptr && outcome.committed()) {
      checker_->RecordCommit(*session_);
    }
    if (stop_->load(std::memory_order_acquire)) {
      active_->fetch_sub(1, std::memory_order_acq_rel);
    } else {
      Issue();
    }
    if (log != nullptr) {
      // The whole callback is nested time for the enclosing ReceiveBatch;
      // the send calls inside it are already part of that span.
      log->nested_ns = nested_before + (NowNs() - end);
    }
  }

  std::unique_ptr<meerkat::ClientSession> session_;
  meerkat::Workload* const workload_;
  meerkat::Rng rng_;
  std::atomic<bool>* const stop_;
  std::atomic<size_t>* const active_;
  TraceCollector* const collector_;
  meerkat::SerializabilityChecker* const checker_;
  std::vector<Attempt> attempts_;
  std::vector<Span> spans_;
  std::vector<std::string> sample_keys_;
};

Cluster::Cluster(const WorkloadSpec& spec, uint64_t seed, TraceCollector* collector,
                 meerkat::SerializabilityChecker* checker) {
  live_before_ = meerkat::SnapshotMetrics(false).GaugeValue("trecord.live_records");
  const uint64_t t0 = NowNs();
  workload_ = spec.make();
  udp_ = std::make_unique<meerkat::UdpTransport>();
  meerkat::Transport* transport = udp_.get();
  if (collector != nullptr) {
    tap_ = std::make_unique<TracingTransport>(udp_.get(), collector);
    transport = tap_.get();
  }
  system_ = meerkat::CreateSystem(spec.options, transport, &clock_);
  workload_->ForEachInitialKey([&](const std::string& key, const std::string& value) {
    system_->Load(key, value);
    if (checker != nullptr) {
      checker->RecordLoadedKey(key);
    }
  });
  for (size_t i = 0; i < kClients; i++) {
    const uint32_t client_id = static_cast<uint32_t>(i + 1);
    clients_.push_back(std::make_unique<ClosedLoopClient>(
        system_->CreateSession(client_id, seed * 7919 + i), workload_.get(),
        seed * 104729 + i * 31, &stop_, &active_, collector, checker));
  }
  setup_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
}

Cluster::~Cluster() {
  // Pollers first: no callback may run while sessions and replicas die.
  udp_->Stop();
  clients_.clear();
  system_.reset();
  tap_.reset();
  udp_.reset();
}

WindowResult Cluster::Run(double warmup_seconds, double seconds) {
  const meerkat::MetricsSnapshot before = meerkat::SnapshotMetrics(false);
  active_.store(clients_.size(), std::memory_order_release);
  for (auto& client : clients_) {
    client->Issue();
  }
  SleepSeconds(warmup_seconds);
  const size_t num_slices = std::max<long>(1, std::lround(seconds));
  std::vector<uint64_t> bounds{NowNs()};
  std::vector<double> cpu{CpuSeconds()};
  for (size_t i = 1; i <= num_slices; i++) {
    const double offset = seconds * static_cast<double>(i) / static_cast<double>(num_slices);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(bounds[0] + static_cast<uint64_t>(offset * 1e9))));
    bounds.push_back(NowNs());
    cpu.push_back(CpuSeconds());
  }
  const uint64_t w0 = bounds.front();
  const uint64_t w1 = bounds.back();
  stop_.store(true, std::memory_order_release);
  const uint64_t drain_deadline = NowNs() + static_cast<uint64_t>(kDrainTimeoutSeconds * 1e9);
  while (active_.load(std::memory_order_acquire) != 0 && NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the asynchronous COMMIT broadcasts land before reading replicas.
  udp_->DrainForTesting();
  const meerkat::MetricsSnapshot after = meerkat::SnapshotMetrics(false);
  CheckReplicaAgreement();
  live_records_ = after.GaugeValue("trecord.live_records") - live_before_;
  udp_->Stop();  // Joins every poller: the clients' logs are now stable.

  WindowResult r;
  r.window_start_ns = w0;
  r.window_end_ns = w1;
  r.seconds = static_cast<double>(w1 - w0) / 1e9;
  r.slices.resize(num_slices);
  for (size_t i = 0; i < num_slices; i++) {
    r.slices[i].seconds = static_cast<double>(bounds[i + 1] - bounds[i]) / 1e9;
    r.slices[i].cpu_seconds = cpu[i + 1] - cpu[i];
  }
  for (const auto& client : clients_) {
    for (const Attempt& a : client->attempts()) {
      r.run_attempts++;
      if (a.start_ns < w0 || a.start_ns >= w1) {
        continue;
      }
      r.attempted++;
      Slice& slice = r.slices[static_cast<size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), a.start_ns) - bounds.begin() - 1)];
      const bool completed = a.end_ns != 0;
      if (!completed || a.result == TxnResult::kFailed) {
        r.failed++;
        slice.latencies_ns.push_back(kInfiniteLatency);
        continue;
      }
      slice.latencies_ns.push_back(static_cast<double>(a.end_ns - a.start_ns));
      if (a.result == TxnResult::kCommit) {
        r.committed++;
        slice.committed++;
      } else {
        r.aborted++;
      }
      r.fast_decisions += a.path == meerkat::CommitPath::kFast ? 1 : 0;
      r.slow_decisions += a.path == meerkat::CommitPath::kSlow ? 1 : 0;
      r.retransmits += a.retransmits;
    }
  }
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  r.run_sent_datagrams = delta("udp.sent_datagrams");
  r.run_cache_hits = delta("cache.hit");
  r.run_cache_misses = delta("cache.miss");
  r.run_cache_expired = delta("cache.lease_expired");
  r.run_cache_invalidated = delta("cache.invalidated");
  return r;
}

void Cluster::CheckReplicaAgreement() {
  std::set<std::string> keys;
  for (const auto& client : clients_) {
    keys.insert(client->sample_keys().begin(), client->sample_keys().end());
  }
  const meerkat::Timestamp load_version{1, 0};
  size_t written = 0;
  size_t disagree = 0;
  for (const std::string& key : keys) {
    const meerkat::ReadResult first = system_->ReadAtReplica(0, key);
    for (meerkat::ReplicaId r = 1; r < 3; r++) {
      const meerkat::ReadResult other = system_->ReadAtReplica(r, key);
      if (other.found != first.found || other.value != first.value || other.wts != first.wts) {
        disagree++;
        break;
      }
    }
    written += first.found && first.wts != load_version ? 1 : 0;
  }
  replicas_agree_ = !keys.empty() && disagree == 0 && written > 0;
  agreement_report_ = std::to_string(keys.size()) + " sampled keys, " + std::to_string(written) +
                      " rewritten, " + std::to_string(disagree) + " disagreeing";
}

bool Cluster::CheckAccounting(std::string* why) const {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;
  meerkat::RunStats sessions;
  for (const auto& client : clients_) {
    sessions.Merge(client->session().stats());
    for (const Attempt& a : client->attempts()) {
      issued++;
      if (a.end_ns == 0) {
        continue;
      }
      completed++;
      committed += a.result == TxnResult::kCommit ? 1 : 0;
      aborted += a.result == TxnResult::kAbort ? 1 : 0;
      failed += a.result == TxnResult::kFailed ? 1 : 0;
    }
  }
  // The sessions' own counters must agree with the outcomes the callbacks
  // saw. A session has at most one attempt in flight, so at most one per
  // session may be left without a callback (it counts as failed).
  const bool ok = sessions.committed == committed && sessions.aborted == aborted &&
                  sessions.failed == failed && committed + aborted + failed == completed &&
                  completed <= issued && issued - completed <= clients_.size();
  if (!ok) {
    *why += "accounting: issued " + std::to_string(issued) + ", completed " +
            std::to_string(completed) + " (" + std::to_string(committed) + " committed, " +
            std::to_string(aborted) + " aborted, " + std::to_string(failed) +
            " failed), sessions counted " + std::to_string(sessions.committed) + "/" +
            std::to_string(sessions.aborted) + "/" + std::to_string(sessions.failed) + "; ";
  }
  return ok;
}

size_t Cluster::RecordBytes() const {
  size_t bytes = 0;
  for (const auto& client : clients_) {
    bytes += client->attempts().size() * sizeof(Attempt);
  }
  return bytes;
}

std::vector<Span> Cluster::Spans() const {
  std::vector<Span> out;
  for (const auto& client : clients_) {
    out.insert(out.end(), client->spans().begin(), client->spans().end());
  }
  return out;
}

}  // namespace perfbench
