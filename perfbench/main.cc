// The serving benchmark: builds the SpaceTwist serving stack from a
// generated dataset, drives one workload through the public client API
// (service::RemoteQuery over engine::EventEngine::Port), checks every
// answer against the in-process oracle, and prints one JSON line of
// metrics. perfbench/README.md describes the workloads and the metrics;
// perfbench/run.py builds this binary and runs it.
//
//   perfbench --workload table1-open --seed 7 --seconds 10 --trace 0

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "datasets/dataset.h"
#include "datasets/generator.h"
#include "drive.h"
#include "layers.h"
#include "net/wire.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"
#include "workload.h"

namespace spacetwist::perfbench {
namespace {

/// Builds of the serving index per run; setup_s is their median.
constexpr int kSetupBuilds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
      have_seconds = args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      args->scale = std::strtod(value, nullptr);
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         args->scale > 0.0 && args->scale <= 1.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Ordered name -> (value, unit) list, printed as the result's metrics.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void Add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
};

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// Counts, throughput and latency of one pass. The rates and percentiles
/// are taken per round and reported as the median over the rounds.
struct PassSummary {
  size_t attempted = 0;
  size_t ok = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double link_p99_ms = 0.0;  ///< over attempted queries
};

PassSummary Summarize(const PassResult& pass) {
  PassSummary s;
  const size_t rounds = pass.round_wall_s.size();
  std::vector<std::vector<double>> latency_ms(rounds), link_ms(rounds);
  for (const QueryRecord& r : pass.records) {
    ++s.attempted;
    link_ms[r.round].push_back(
        static_cast<double>(r.latency_ns + r.link_ns) / 1e6);
    if (!r.ok) continue;
    ++s.ok;
    latency_ms[r.round].push_back(static_cast<double>(r.latency_ns) / 1e6);
  }
  std::vector<double> qps, p50, p99, link_p99;
  for (size_t i = 0; i < rounds; ++i) {
    qps.push_back(Ratio(static_cast<double>(latency_ms[i].size()),
                        pass.round_wall_s[i]));
    p50.push_back(Quantile(latency_ms[i], 0.50));
    p99.push_back(Quantile(latency_ms[i], 0.99));
    link_p99.push_back(Quantile(link_ms[i], 0.99));
  }
  s.qps = Median(qps);
  s.p50_ms = Median(p50);
  s.p99_ms = Median(p99);
  s.link_p99_ms = Median(link_p99);
  return s;
}

/// Order-sensitive digest of the succeeded queries at `positions`.
uint64_t DigestAt(const PassResult& pass,
                  const std::vector<size_t>& positions) {
  uint64_t digest = 0xCBF29CE484222325ULL;
  size_t i = 0;
  for (const QueryRecord& r : pass.records) {
    while (i < positions.size() && positions[i] < r.pos) ++i;
    if (i == positions.size()) break;
    if (positions[i] != r.pos) continue;
    digest = (digest ^ r.stream_hash) * 0x100000001B3ULL;
  }
  return digest;
}

/// Positions that succeeded in both passes.
std::vector<size_t> CommonOk(const PassResult& a, const PassResult& b) {
  std::vector<size_t> ok_a, ok_b, both;
  for (const QueryRecord& r : a.records) {
    if (r.ok) ok_a.push_back(r.pos);
  }
  for (const QueryRecord& r : b.records) {
    if (r.ok) ok_b.push_back(r.pos);
  }
  std::set_intersection(ok_a.begin(), ok_a.end(), ok_b.begin(), ok_b.end(),
                        std::back_inserter(both));
  return both;
}

void EndToEndMetrics(const PassResult& pass, const GateReport& gate,
                     double setup_s, Metrics* m) {
  const PassSummary s = Summarize(pass);
  double packets = 0.0, round_trips = 0.0;
  for (const QueryRecord& r : pass.records) {
    round_trips += static_cast<double>(r.retry.attempts);
    if (r.ok) packets += static_cast<double>(r.outcome.packets);
  }
  m->Add("setup_s", setup_s, "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  m->Add("qps", s.qps, "1/s");
  m->Add("latency_p50_ms", s.p50_ms, "ms");
  m->Add("latency_p99_ms", s.p99_ms, "ms");
  m->Add("goodput", Ratio(static_cast<double>(s.ok), s.attempted), "share");
  m->Add("packets_per_query", Ratio(packets, s.ok), "count");
  m->Add("round_trips_per_query", Ratio(round_trips, s.attempted), "count");
  m->Add("link_ms_p99", s.link_p99_ms, "ms");
  m->Add("knn_dist_m", gate.knn_dist_m, "m");
  m->Add("privacy_gamma_m", gate.gamma_m, "m");
}

/// Times the public codec on the frames the traced pass captured:
/// net::EncodeRequest on the decoded requests, net::DecodeResponse on the
/// intact replies. Returns microseconds per frame.
std::pair<double, double> CodecMicros(const PassResult& pass) {
  telemetry::RealClock clock;
  std::vector<net::Request> requests;
  for (const std::vector<uint8_t>& frame : pass.requests) {
    Result<net::Request> r = net::DecodeRequest(frame);
    if (r.ok()) requests.push_back(std::move(*r));
  }
  std::vector<const std::vector<uint8_t>*> responses;
  for (const std::vector<uint8_t>& frame : pass.responses) {
    if (net::DecodeResponse(frame).ok()) responses.push_back(&frame);
  }
  // Repeat each set for at least 50 ms so the clock's cost vanishes; the
  // volatile sink keeps the codec calls from being optimized away.
  constexpr uint64_t kMinNs = 50'000'000;
  volatile size_t sink = 0;
  auto time_loop = [&](size_t n, auto&& body) {
    if (n == 0) return 0.0;
    uint64_t frames = 0;
    const uint64_t start = clock.NowNs();
    uint64_t elapsed = 0;
    do {
      for (size_t i = 0; i < n; ++i) sink = sink + body(i);
      frames += n;
      elapsed = clock.NowNs() - start;
    } while (elapsed < kMinNs);
    return static_cast<double>(elapsed) / 1e3 / static_cast<double>(frames);
  };
  const double encode = time_loop(requests.size(), [&](size_t i) {
    return net::EncodeRequest(requests[i]).size();
  });
  const double decode = time_loop(responses.size(), [&](size_t i) {
    return static_cast<size_t>(net::DecodeResponse(*responses[i]).ok());
  });
  return {encode, decode};
}

void PerLayerMetrics(const PassResult& plain,
                     const PassResult& traced, const LayerTotals& t,
                     const GateReport& gate, Metrics* m) {
  const PassSummary base = Summarize(plain);
  const PassSummary s = Summarize(traced);
  const double q = static_cast<double>(s.attempted);
  double latency = 0.0, wait = 0.0, remote = 0.0;
  double retries = 0.0, stale = 0.0, reopens = 0.0;
  for (const QueryRecord& r : traced.records) {
    latency += static_cast<double>(r.latency_ns);
    wait += static_cast<double>(r.wait_ns);
    remote += static_cast<double>(r.remote_ns);
    retries += static_cast<double>(r.retry.retries);
    stale += static_cast<double>(r.retry.stale_replies);
    reopens += static_cast<double>(r.retry.reopens);
  }
  auto load = [](const std::atomic<uint64_t>& v) {
    return static_cast<double>(v.load());
  };
  const double transport_ns = load(t.transport_ns);
  const double port_ns = load(t.port_ns);
  const double port_frames = load(t.port_frames);
  const double index_ns = load(t.open_ns) + load(t.pull_ns);
  const double queue_ns = static_cast<double>(traced.queue_delay.sum);
  const auto [encode_us, decode_us] = CodecMicros(traced);
  std::vector<double> lag;
  for (uint64_t v : traced.lag_ns) lag.push_back(static_cast<double>(v));

  m->Add("core.loop_us_per_query", Ratio(remote - transport_ns, q) / 1e3, "us");
  m->Add("core.error_m", gate.error_m, "m");
  m->Add("net.encode_us_per_frame", encode_us, "us");
  m->Add("net.decode_us_per_frame", decode_us, "us");
  m->Add("net.frames_per_query", Ratio(load(t.transport_frames), q), "count");
  m->Add("net.bytes_per_query", Ratio(load(t.transport_bytes), q), "bytes");
  m->Add("net.link_us_per_query", Ratio(transport_ns - port_ns, q) / 1e3,
         "us");
  m->Add("net.retries_per_query", Ratio(retries, q), "count");
  m->Add("net.stale_per_query", Ratio(stale, q), "count");
  m->Add("net.reopens_per_query", Ratio(reopens, q), "count");
  m->Add("engine.roundtrip_us_per_frame", Ratio(port_ns, port_frames) / 1e3,
         "us");
  m->Add("engine.queue_wait_us_p50", traced.queue_delay.Percentile(0.50) / 1e3,
         "us");
  m->Add("engine.queue_wait_us_p99", traced.queue_delay.Percentile(0.99) / 1e3,
         "us");
  m->Add("service.self_us_per_frame",
         Ratio(port_ns - index_ns - queue_ns, port_frames) / 1e3, "us");
  m->Add("service.sessions_per_query",
         Ratio(static_cast<double>(traced.sessions_opened), q), "count");
  m->Add("service.evicted_per_query",
         Ratio(static_cast<double>(traced.sessions_evicted), q), "count");
  m->Add("index.open_us_per_query", Ratio(load(t.open_ns), q) / 1e3, "us");
  m->Add("index.pull_us_per_query", Ratio(load(t.pull_ns), q) / 1e3, "us");
  m->Add("index.node_reads_per_query", Ratio(load(t.node_reads), q), "count");
  m->Add("index.heap_pops_per_query", Ratio(load(t.heap_pops), q), "count");
  m->Add("index.points_per_pull",
         Ratio(load(t.pulled_points), load(t.pulls)), "count");
  m->Add("storage.logical_reads_per_query",
         Ratio(static_cast<double>(traced.io.logical_reads), q), "count");
  m->Add("storage.physical_reads_per_query",
         Ratio(static_cast<double>(traced.io.physical_reads), q), "count");
  m->Add("shard.pulls_per_query",
         Ratio(static_cast<double>(traced.shard_pulls), q), "count");
  m->Add("shard.fanout_mean",
         Ratio(static_cast<double>(traced.fanout_sum),
               static_cast<double>(traced.fanout_count)),
         "count");
  m->Add("shard.merge_pops_per_query",
         Ratio(static_cast<double>(traced.merge_pops), q), "count");
  if (!traced.lag_ns.empty()) {  // the open loop's generator
    m->Add("gen.lag_us_p99", Quantile(lag, 0.99) / 1e3, "us");
    m->Add("gen.wait_us_per_query", Ratio(wait, q) / 1e3, "us");
  }
  // The service layer is the Port time not spent queued or in the index,
  // so the layers tile the client call; what is left is time the pass
  // spent outside the seams (dispatch bookkeeping around each call).
  m->Add("residual_share", Ratio(latency - wait - remote, latency), "share");
  m->Add("trace.overhead_qps_share", Ratio(base.qps - s.qps, base.qps),
         "share");
  m->Add("trace.overhead_p50_share",
         Ratio(s.p50_ms - base.p50_ms, base.p50_ms), "share");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  Result<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *found;
  const size_t points = std::max<size_t>(
      1000, static_cast<size_t>(std::llround(kDatasetPoints * args.scale)));
  const datasets::Dataset dataset =
      datasets::GenerateUniform(points, kDatasetSeed);
  const geom::Rect domain = datasets::DefaultDomain();

  // Set-up: build the serving index several times from the in-memory
  // dataset and keep the last one.
  telemetry::RealClock clock;
  telemetry::MetricRegistry router_registry;
  std::unique_ptr<ServingStack> stack;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupBuilds; ++i) {
    stack.reset();
    const uint64_t start = clock.NowNs();
    Result<std::unique_ptr<ServingStack>> built =
        ServingStack::Build(spec, dataset, &router_registry);
    setup_s.push_back(static_cast<double>(clock.NowNs() - start) / 1e9);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    stack = built.MoveValueOrDie();
  }
  Result<std::unique_ptr<server::LbsServer>> reference =
      BuildReference(dataset);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference build failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  PassOptions pass_options;
  pass_options.seed = args.seed;
  pass_options.keep_outcomes = kPrivacySample;
  // The traced run splits its time between an untraced and a traced pass
  // of the same schedule; their difference is the tracing overhead.
  pass_options.seconds = args.trace ? args.seconds / 2 : args.seconds;

  LayerTotals totals;
  std::vector<PassResult> passes;
  for (int i = 0; i < (args.trace ? 2 : 1); ++i) {
    pass_options.totals = i == 1 ? &totals : nullptr;
    passes.push_back(RunPass(spec, stack.get(), domain, pass_options));
  }

  // Correctness gate, outside the timed passes.
  std::vector<GateReport> gates;
  std::vector<std::string> errors;
  size_t attempted = 0, failed = 0;
  for (const PassResult& pass : passes) {
    gates.push_back(
        CheckPass(spec, pass, reference->get(), domain, args.seed));
    for (const std::string& e : gates.back().errors) errors.push_back(e);
    const PassSummary s = Summarize(pass);
    attempted += s.attempted;
    failed += s.attempted - s.ok;
    if (s.ok == 0) errors.push_back("a pass completed no query");
  }
  // Why the client gave up, by status code, over every pass.
  std::map<std::string, size_t> failure_codes;
  for (const PassResult& pass : passes) {
    for (const QueryRecord& r : pass.records) {
      if (!r.ok) ++failure_codes[StatusCodeName(r.failure)];
    }
  }
  std::string failures;
  for (const auto& [code, count] : failure_codes) {
    failures += (failures.empty() ? "\"" : ", \"") + code +
                "\": " + std::to_string(count);
  }
  std::string digests;
  if (args.trace) {
    const std::vector<size_t> common = CommonOk(passes[0], passes[1]);
    const uint64_t a = DigestAt(passes[0], common);
    const uint64_t b = DigestAt(passes[1], common);
    if (a != b) errors.push_back("traced and untraced digests differ");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"common_queries\": %zu, \"digest_untraced\": \"%016llx\""
                  ", \"digest_traced\": \"%016llx\"",
                  common.size(), static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    digests = buf;
  }

  Metrics metrics;
  std::sort(setup_s.begin(), setup_s.end());
  if (args.trace) {
    PerLayerMetrics(passes[0], passes[1], totals, gates[0], &metrics);
  } else {
    EndToEndMetrics(passes[0], gates[0], setup_s[setup_s.size() / 2],
                    &metrics);
  }

  // Run metadata: everything needed to reproduce or compare the run.
  std::string error_list;
  for (const std::string& e : errors) {
    error_list += (error_list.empty() ? "\"" : ", \"") + JsonEscape(e) + "\"";
  }
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"src_digest\": \"%s\", "
      "\"nproc\": %u, \"dataset\": \"UI\", \"dataset_points\": %zu, "
      "\"dataset_seed\": %llu, \"engine_loop_threads\": 1, "
      "\"engine_workers\": %zu, \"client_connections\": %zu, "
      "\"dispatcher_threads\": %d, \"setup_builds\": %d, "
      "\"checked\": %zu, \"accuracy_sample\": %zu, \"privacy_sample\": %zu%s, "
      "\"failures\": {%s}, \"errors\": [%s]}}\n",
      spec.name, static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonEscape(args.git_sha).c_str(), JsonEscape(args.src_digest).c_str(),
      std::thread::hardware_concurrency(), points,
      static_cast<unsigned long long>(kDatasetSeed), kWorkerThreads,
      kConnections, spec.open_loop ? 1 : 0, kSetupBuilds, gates[0].checked,
      gates[0].accuracy_n, gates[0].gamma_n, digests.c_str(),
      failures.c_str(), error_list.c_str());

  std::string body;
  for (const Metrics::Entry& e : metrics.entries) {
    if (!body.empty()) body += ", ";
    body += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  const bool correct = errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, body.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace spacetwist::perfbench

int main(int argc, char** argv) {
  spacetwist::perfbench::Args args;
  if (!spacetwist::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--scale F] [--git-sha SHA] "
                 "[--src-digest HEX]\n",
                 argv[0]);
    return 2;
  }
  return spacetwist::perfbench::Run(args);
}
