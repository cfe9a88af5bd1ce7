// End-to-end transaction benchmark over real UDP sockets.
//
//   perf_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures what a user of the system sees, with the UdpTransport
// handed straight to CreateSystem. --trace 1 first runs the same untraced
// window (for the tracing overhead and the datagram fidelity check), then a
// traced run whose decorator splits the time by layer. Either way the
// program prints one info line and then, as its last line, the result:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// and exits non-zero when a correctness check fails.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/cluster.h"
#include "perfbench/src/critical_path.h"
#include "perfbench/src/latency_stats.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/tracing_transport.h"
#include "src/sim/cost_model.h"
#include "src/sim/sim_time_source.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_transport.h"
#include "src/workload/driver.h"

namespace perfbench {
namespace {

// Warm-up before each measuring window: sessions, caches and socket buffers
// reach steady state.
constexpr double kWarmupSeconds = 1.0;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// A percentile that lands on a failed attempt is infinite; JSON has no
// infinity, so it prints as this many microseconds (longer than any run).
constexpr double kFailedLatencyUs = 1e9;
// Traced and untraced runs must send the same datagrams per attempt within
// this share (abort and cache-hit ratios move a little with timing).
constexpr double kFidelityTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Ordered name -> value map rendered as a JSON object.
class JsonObject {
 public:
  void Raw(const std::string& key, const std::string& json) {
    items_.emplace_back(key, json);
  }
  void Number(const std::string& key, double v) { Raw(key, Num(v)); }
  void String(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); i++) {
      out += (i == 0 ? "" : ", ") + Quote(items_[i].first) + ": " + items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    JsonObject m;
    m.Number("value", value);
    m.String("unit", unit);
    obj_.Raw(name, m.Render());
  }
  std::string Render() const { return obj_.Render(); }

 private:
  JsonObject obj_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double LatencyUs(double ns) { return std::isfinite(ns) ? ns / 1e3 : kFailedLatencyUs; }

// Peak resident set of the process, less the benchmark's per-attempt records:
// they grow with throughput, and on a small key set they would otherwise
// dominate the figure.
double PeakRssMb(size_t record_bytes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak = static_cast<double>(ru.ru_maxrss) * 1024.0;  // ru_maxrss is in KiB.
  return (peak - static_cast<double>(record_bytes)) / (1024.0 * 1024.0);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Kernel() {
  utsname u{};
  return uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";
}

std::string Fingerprint(bool reuseport_steering) {
  JsonObject fp;
  fp.Number("nproc", std::thread::hardware_concurrency());
  fp.String("cpu_model", CpuModel());
  fp.String("kernel", Kernel());
#if defined(__clang__)
  fp.String("compiler", std::string("clang ") + __clang_version__);
#else
  fp.String("compiler", std::string("gcc ") + __VERSION__);
#endif
  fp.String("build_type", PERFBENCH_BUILD_TYPE);
  fp.Bool("meerkat_trace", MEERKAT_TRACE != 0);
  fp.Bool("meerkat_dap_check", MEERKAT_DAP_CHECK != 0);
  fp.Bool("reuseport_steering", reuseport_steering);
  return fp.Render();
}

struct Outcome {
  bool correct = true;
  std::string errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  JsonObject info;
};

void Fail(Outcome* out, const std::string& why) {
  out->correct = false;
  out->errors += why + "; ";
}

// Post-run checks every cluster must pass.
void CheckCluster(const Cluster& cluster, const char* which, Outcome* out) {
  std::string why;
  if (!cluster.CheckAccounting(&why)) {
    Fail(out, std::string(which) + " " + why);
  }
  if (!cluster.replicas_agree()) {
    Fail(out, std::string(which) + " replica disagreement: " + cluster.agreement_report());
  }
}

// Headline figures of a window: each is computed per one-second slice and
// reported as the median over slices.
struct Headline {
  double goodput_tps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_commit = 0;
};

Headline Summarize(const WindowResult& w) {
  std::vector<double> goodput, p50, p99, cpu;
  for (const Slice& s : w.slices) {
    goodput.push_back(Ratio(s.committed, s.seconds));
    p50.push_back(LatencyUs(Percentile(s.latencies_ns, 0.50)));
    p99.push_back(LatencyUs(Percentile(s.latencies_ns, 0.99)));
    cpu.push_back(Ratio(s.cpu_seconds * 1e6, s.committed));
  }
  return Headline{Median(goodput), Median(p50), Median(p99), Median(cpu)};
}

double Goodput(const WindowResult& w) { return Summarize(w).goodput_tps; }

double DatagramsPerAttempt(const WindowResult& w) {
  return Ratio(static_cast<double>(w.run_sent_datagrams), static_cast<double>(w.run_attempts));
}

void RunUntraced(const WorkloadSpec& spec, const Args& args, Outcome* out) {
  std::vector<double> setups;
  for (int i = 1; i < kSetups; i++) {
    Cluster discarded(spec, args.seed, nullptr, nullptr);
    setups.push_back(discarded.setup_seconds());
  }
  Cluster cluster(spec, args.seed, nullptr, nullptr);
  setups.push_back(cluster.setup_seconds());
  const WindowResult w = cluster.Run(kWarmupSeconds, args.seconds);
  CheckCluster(cluster, "untraced", out);

  out->attempted = w.attempted;
  out->failed = w.failed;
  out->metrics.Add("setup_s", Median(setups), "s");
  const Headline h = Summarize(w);
  out->metrics.Add("goodput_tps", h.goodput_tps, "1/s");
  out->metrics.Add("txn_p50_us", h.p50_us, "us");
  out->metrics.Add("txn_p99_us", h.p99_us, "us");
  out->metrics.Add("commit_ratio", Ratio(w.committed, w.attempted), "ratio");
  out->metrics.Add("cpu_us_per_commit", h.cpu_us_per_commit, "us");
  out->metrics.Add("peak_rss_mb", PeakRssMb(cluster.RecordBytes()), "MB");
  out->info.Raw("fingerprint", Fingerprint(cluster.reuseport_steering()));
  out->info.Number("aborted", w.aborted);
  out->info.Number("datagrams_per_attempt", DatagramsPerAttempt(w));
  out->info.String("replica_check", cluster.agreement_report());
}

// The simulator's cost model for the kernel UDP stack, which the measured
// per-message costs are reported against.
meerkat::CostModel LinuxUdpModel() {
  return meerkat::CostModel::ForStack(meerkat::NetworkStack::kLinuxUdp);
}

double SimGoodput(const WorkloadSpec& spec, uint64_t seed) {
  meerkat::SystemOptions options = spec.options;
  options.cost = LinuxUdpModel();
  meerkat::Simulator sim(options.cost);
  meerkat::SimTransport transport(&sim);
  meerkat::SimTimeSource time_source(&sim);
  std::unique_ptr<meerkat::System> system = meerkat::CreateSystem(options, &transport, &time_source);
  std::unique_ptr<meerkat::Workload> workload = spec.make();
  meerkat::SimRunOptions run;
  run.num_clients = kClients;
  run.warmup_ns = 20'000'000;
  run.measure_ns = 200'000'000;
  run.seed = seed;
  meerkat::RunResult r = meerkat::RunSimWorkload(sim, transport, *system, *workload, run);
  return r.stats.GoodputPerSec(r.elapsed_seconds);
}

struct Mean {
  double sum = 0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    n++;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

void RunTraced(const WorkloadSpec& spec, const Args& args, Outcome* out) {
  // The run's time is split between an untraced reference window and the
  // traced window: same seed, same length, with and without the decorator.
  const double window = std::max(1.0, args.seconds / 2);
  double untraced_goodput = 0;
  double untraced_datagrams = 0;
  {
    Cluster reference(spec, args.seed, nullptr, nullptr);
    const WindowResult w = reference.Run(kWarmupSeconds, window);
    CheckCluster(reference, "untraced", out);
    untraced_goodput = Goodput(w);
    untraced_datagrams = DatagramsPerAttempt(w);
  }

  TraceCollector collector;
  meerkat::SerializabilityChecker checker;
  Cluster cluster(spec, args.seed, &collector, &checker);
  const WindowResult w = cluster.Run(kWarmupSeconds, window);
  CheckCluster(cluster, "traced", out);
  const std::vector<std::string> violations = checker.Check();
  if (!violations.empty()) {
    Fail(out, std::to_string(violations.size()) + " serializability violations, first: " +
                  violations.front());
  }
  const double traced_datagrams = DatagramsPerAttempt(w);
  const double fidelity = Ratio(std::fabs(traced_datagrams - untraced_datagrams), untraced_datagrams);
  if (!(fidelity <= kFidelityTolerance)) {
    Fail(out, "traced run sent " + Num(traced_datagrams) + " datagrams/attempt, untraced " +
                  Num(untraced_datagrams));
  }

  // Totals over every thread's log.
  SideTotals client;
  SideTotals replica;
  uint64_t validate_replies = 0, abort_votes = 0, shed_replies = 0, gets_sent = 0;
  uint64_t issue_calls = 0, issue_self_ns = 0, gen_calls = 0, gen_ns = 0;
  std::unordered_map<meerkat::TxnId, std::vector<TraceEvent>, meerkat::TxnIdHash> events;
  std::vector<const CapturedMessage*> captured;
  for (const ThreadLog* log : collector.Logs()) {
    for (const auto& [mine, total] : {std::pair{&log->client, &client},
                                      std::pair{&log->replica, &replica}}) {
      total->send_calls += mine->send_calls;
      total->send_msgs += mine->send_msgs;
      total->send_ns += mine->send_ns;
      total->recv_calls += mine->recv_calls;
      total->recv_msgs += mine->recv_msgs;
      total->recv_self_ns += mine->recv_self_ns;
    }
    validate_replies += log->validate_replies;
    abort_votes += log->abort_votes;
    shed_replies += log->shed_replies;
    gets_sent += log->gets_sent;
    issue_calls += log->issue_calls;
    issue_self_ns += log->issue_self_ns;
    gen_calls += log->gen_calls;
    gen_ns += log->gen_ns;
    for (const TaggedEvent& e : log->events) {
      events[e.tid].push_back(e.event);
    }
    for (const CapturedMessage& c : log->captured) {
      captured.push_back(&c);
    }
  }

  // Critical paths and wire times of the sampled transactions that started
  // inside the window.
  std::array<Mean, kLayerCount> path;
  Mean latency, unattributed, validate_wait, straggler;
  std::array<Mean, static_cast<size_t>(MsgType::kCount)> wire;
  for (const Span& span : cluster.Spans()) {
    if (span.start_ns < w.window_start_ns || span.start_ns >= w.window_end_ns) {
      continue;
    }
    auto it = events.find(span.tid);
    if (it == events.end()) {
      continue;
    }
    const PathBreakdown b = StitchCriticalPath(span.start_ns, span.end_ns, it->second);
    latency.Add(static_cast<double>(b.latency_ns));
    for (size_t l = 0; l < kLayerCount; l++) {
      path[l].Add(static_cast<double>(b.ns[l]));
    }
    unattributed.Add(static_cast<double>(b.at(Layer::kUnattributed)));
    if (b.validated) {
      validate_wait.Add(static_cast<double>(b.validate_wait_ns));
      straggler.Add(static_cast<double>(b.straggler_ns));
    }
    ForEachWireTime(it->second, [&](MsgType m, int64_t ns) {
      wire[static_cast<size_t>(m)].Add(static_cast<double>(ns));
    });
  }

  const ReplayResult replay = ReplayStoreAndCodec(captured, cluster.workload());
  if (replay.decode_failures != 0) {
    Fail(out, std::to_string(replay.decode_failures) + " codec replay failures");
  }
  const double sim_goodput = SimGoodput(spec, args.seed);
  const double traced_goodput = Goodput(w);
  const double run_attempts = static_cast<double>(w.run_attempts);
  auto wire_ns = [&](MsgType m) { return wire[static_cast<size_t>(m)].value(); };
  const double client_send_ns = Ratio(client.send_ns, client.send_calls);
  const double replica_send_ns = Ratio(replica.send_ns, replica.send_calls);

  out->attempted = w.attempted;
  out->failed = w.failed;
  Metrics& m = out->metrics;
  m.Add("transport.client_send_ns", client_send_ns, "ns");
  m.Add("transport.replica_send_ns", replica_send_ns, "ns");
  m.Add("transport.msgs_per_send",
        Ratio(client.send_msgs + replica.send_msgs, client.send_calls + replica.send_calls), "msgs");
  m.Add("transport.wire_get_ns", wire_ns(MsgType::kGet), "ns");
  m.Add("transport.wire_get_reply_ns", wire_ns(MsgType::kGetReply), "ns");
  m.Add("transport.wire_validate_ns", wire_ns(MsgType::kValidate), "ns");
  m.Add("transport.wire_validate_reply_ns", wire_ns(MsgType::kValidateReply), "ns");
  m.Add("transport.wire_commit_ns", wire_ns(MsgType::kCommit), "ns");
  m.Add("transport.msgs_per_txn", Ratio(client.send_msgs + replica.send_msgs, run_attempts), "msgs");
  m.Add("transport.bytes_per_txn", replay.bytes_per_txn, "bytes");
  m.Add("transport.msgs_per_recv_batch",
        Ratio(client.recv_msgs + replica.recv_msgs, client.recv_calls + replica.recv_calls), "msgs");
  m.Add("serialization.encode_ns_per_msg", replay.encode_ns_per_msg, "ns");
  m.Add("serialization.decode_ns_per_msg", replay.decode_ns_per_msg, "ns");
  m.Add("replica.dispatch_self_ns", Ratio(replica.recv_self_ns, replica.recv_msgs), "ns");
  m.Add("replica.abort_vote_ratio", Ratio(abort_votes, validate_replies), "ratio");
  m.Add("replica.shed_ratio", Ratio(shed_replies, validate_replies), "ratio");
  m.Add("store.read_ns", replay.read_ns, "ns");
  m.Add("store.validate_ns", replay.validate_ns, "ns");
  m.Add("store.commit_ns", replay.commit_ns, "ns");
  m.Add("trecord.live_records", static_cast<double>(cluster.live_records()), "count");
  m.Add("session.issue_self_ns", Ratio(issue_self_ns, issue_calls), "ns");
  m.Add("session.receive_self_ns", Ratio(client.recv_self_ns, client.recv_msgs), "ns");
  m.Add("session.gets_per_txn", Ratio(gets_sent, run_attempts), "count");
  m.Add("coordinator.validate_wait_ns", validate_wait.value(), "ns");
  m.Add("coordinator.straggler_ns", straggler.value(), "ns");
  m.Add("coordinator.fast_path_ratio",
        Ratio(w.fast_decisions, w.fast_decisions + w.slow_decisions), "ratio");
  m.Add("coordinator.retransmits_per_txn", Ratio(w.retransmits, w.attempted), "count");
  const double lookups =
      static_cast<double>(w.run_cache_hits + w.run_cache_misses + w.run_cache_expired);
  m.Add("cache.hit_ratio", Ratio(w.run_cache_hits, lookups), "ratio");
  m.Add("cache.gets_saved_per_txn", Ratio(w.run_cache_hits, run_attempts), "count");
  m.Add("cache.invalidations_per_txn", Ratio(w.run_cache_invalidated, run_attempts), "count");
  m.Add("workload.gen_ns", Ratio(gen_ns, gen_calls), "ns");
  m.Add("trace.unattributed_ns", unattributed.value(), "ns");
  m.Add("trace.overhead_ratio", Ratio(traced_goodput, untraced_goodput), "ratio");
  m.Add("sim.goodput_error", Ratio(std::fabs(sim_goodput - untraced_goodput), untraced_goodput),
        "ratio");

  JsonObject layers;
  for (size_t l = 0; l < kLayerCount; l++) {
    layers.Number(LayerName(static_cast<Layer>(l)), path[l].value());
  }
  JsonObject critical;
  critical.Number("sampled_txns", static_cast<double>(latency.n));
  critical.Number("mean_latency_ns", latency.value());
  critical.Raw("mean_layer_ns", layers.Render());
  const meerkat::CostModel model = LinuxUdpModel();
  JsonObject sim;
  sim.Number("sim_goodput_tps", sim_goodput);
  sim.Number("untraced_goodput_tps", untraced_goodput);
  sim.Number("model_send_ns", model.msg_send_cpu_ns);
  sim.Number("measured_client_send_ns", client_send_ns);
  sim.Number("measured_replica_send_ns", replica_send_ns);
  sim.Number("model_recv_ns", model.msg_recv_cpu_ns);
  sim.Number("measured_dispatch_self_ns", Ratio(replica.recv_self_ns, replica.recv_msgs));
  sim.Number("model_one_way_ns", model.one_way_latency_ns);
  sim.Number("measured_wire_validate_ns", wire_ns(MsgType::kValidate));
  sim.Number("measured_wire_validate_reply_ns", wire_ns(MsgType::kValidateReply));
  JsonObject fidelity_info;
  fidelity_info.Number("untraced_datagrams_per_attempt", untraced_datagrams);
  fidelity_info.Number("traced_datagrams_per_attempt", traced_datagrams);
  out->info.Raw("fingerprint", Fingerprint(cluster.reuseport_steering()));
  out->info.Raw("critical_path", critical.Render());
  out->info.Raw("simulator", sim.Render());
  out->info.Raw("fidelity", fidelity_info.Render());
  out->info.Number("serializability_checked_commits", static_cast<double>(checker.CommittedCount()));
  out->info.Number("replayed_messages", static_cast<double>(replay.messages));
  out->info.String("replica_check", cluster.agreement_report());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "perf_e2e: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Outcome out;
  if (args.trace) {
    RunTraced(spec, args, &out);
  } else {
    RunUntraced(spec, args, &out);
  }
  out.info.String("workload", spec.name);
  out.info.Number("seed", static_cast<double>(args.seed));
  out.info.Bool("traced", args.trace);
  out.info.String("errors", out.errors);
  JsonObject info_line;
  info_line.Raw("info", out.info.Render());
  JsonObject result;
  result.Bool("correct", out.correct);
  result.Raw("attempted", std::to_string(out.attempted));
  result.Raw("failed", std::to_string(out.failed));
  result.Raw("metrics", out.metrics.Render());
  std::printf("%s\n%s\n", info_line.Render().c_str(), result.Render().c_str());
  std::fflush(stdout);
  if (!out.correct) {
    std::fprintf(stderr, "perf_e2e: correctness check failed: %s\n", out.errors.c_str());
    return 1;
  }
  return out.attempted == 0 ? 1 : 0;
}
