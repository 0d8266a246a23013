// served_bench: the served-path benchmark.
//
//   served_bench --workload cold-walk|hot-repeat|swap-churn --seed N
//                --seconds S --trace 0|1 --inputs DIR --out DIR
//                [--commit SHA] [--dirty 0|1|unknown] [--source DIGEST]
//
// One process per workload. It stands up the stack example_hkpr_server
// --listen wires (GraphStore -> MultiGraphService -> CommandProcessor ->
// SocketServer) in-process and drives it over loopback TCP with
// closed-loop `topk <seed> 10` clients. Before any thread starts, the
// process pins itself to one CPU: on a shared VM an unpinned run's
// throughput swings by 3x second to second. A run stops after a fixed
// number of queries (--seconds times the workload's nominal rate), never
// after a fixed time, so the work done — and the result cache's memory —
// does not depend on how fast the build under test is.
//
// --trace 0 measures the end-to-end metrics at the client. --trace 1
// repeats the TCP pass with per-query spans and then times each layer's
// public calls directly (CommandProcessor::Execute, SubmitTopK, the TEA+
// estimator and its push phase, the graph loaders, Publish), printing the
// per-layer metrics. The spans are kept in memory and written to
// --out at the end. README.md lists every metric and why each workload
// exists.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it records the host, the pinned CPU, the
// build and the sample counts. An operation fails on an `err` line, a
// malformed or unexpected response, or a top-k score outside the paper's
// (d, eps_r, delta) bound against ExactHkpr ground truth.

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_lib.h"
#include "bench_util/workload.h"
#include "common/parse.h"
#include "common/random.h"
#include "graph/graph_io.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/power_method.h"
#include "hkpr/push.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "service/multi_graph_service.h"

using namespace hkpr;
using perfbench::GraphPreset;
using perfbench::InputFiles;
using perfbench::Percentile;
using perfbench::PercentileOf;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

constexpr const char* kGraph = "g";
constexpr size_t kTopK = 10;
constexpr double kZipfExponent = 1.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Fewest timed queries a run may make: latency_p95_ms then has at least
/// ten samples beyond it.
constexpr size_t kMinLatencySamples = 200;
/// Direct estimator passes (EstimateInto, HkPushPlusInto) per traced run.
constexpr size_t kEstimatorPass = 100;

enum class CacheExpect { kMiss, kHit, kAny };

struct WorkloadSpec {
  const char* name;
  GraphPreset preset;
  /// Served from the v2 snapshot via MapBinary; otherwise LoadEdgeList.
  bool serve_snapshot;
  /// Zipf universe; 0 draws distinct uniform seeds.
  uint32_t hot_seeds;
  uint32_t connections;
  uint32_t worker_budget;
  /// Timed queries per --seconds: the count bound, not a rate limit.
  double queries_per_second;
  /// A `graph load` hot-swap after every this many queries (0: none).
  uint32_t swap_every;
  /// Hot-swaps per round, for workloads without swap_every (see
  /// RunSwapRound).
  uint32_t swap_round;
  /// What every timed-phase response's cache= field must say.
  CacheExpect expect;
  /// Distinct seeds checked against ExactHkpr ground truth.
  uint32_t accuracy_seeds;
  /// Length of the traced run's direct Execute / SubmitTopK passes.
  size_t service_pass;
  /// Direct passes start from an empty cache (else from the warm pass's).
  bool invalidate_before_pass;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"cold-walk", GraphPreset::kRmatMedium, true, 0, 1, 1, 60.0, 0, 3,
     CacheExpect::kMiss, 8, 100, true},
    {"hot-repeat", GraphPreset::kPowerlaw20k, false, 256, 2, 2, 4500.0, 0,
     5, CacheExpect::kHit, 16, 2000, false},
    {"swap-churn", GraphPreset::kPowerlaw20k, false, 64, 1, 1, 1000.0, 500,
     0, CacheExpect::kAny, 16, 500, true},
};

// ------------------------------------------------------------- tracing --

enum SpanKind : uint8_t {
  kRtt,
  kExecute,
  kSubmit,
  kTopk,
  kEstimate,
  kPush,
  kSwap,
  kLoad,
  kMap,
  kPublish,
};
constexpr const char* kSpanNames[] = {
    "net.rtt",       "net.execute", "service.submit", "hkpr.topk",
    "hkpr.estimate", "hkpr.push",   "net.swap",       "graph.load",
    "graph.map",     "service.publish"};

/// One timed call. `id` is the query's index in the workload's seed
/// sequence, shared by every span of that query across passes (or the
/// repetition index for graph and publish spans).
struct Span {
  uint32_t id;
  SpanKind kind;
  Clock::time_point start;
  Clock::time_point end;
};

/// Collects spans when enabled; Record is a no-op otherwise.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void Record(uint32_t id, SpanKind kind, Clock::time_point start,
              Clock::time_point end) {
    if (enabled_) spans_.push_back({id, kind, start, end});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Durations (ms) of the `kind` spans with ids 0..count-1, indexed by
  /// id (each id once per kind, as every pass records it).
  std::vector<double> DurationsMs(SpanKind kind, size_t count) const {
    std::vector<double> out(count, 0.0);
    for (const Span& s : spans_) {
      if (s.kind == kind && s.id < count) out[s.id] = Ms(s.end - s.start);
    }
    return out;
  }
  /// Writes "id span start_ns end_ns" rows relative to `origin`.
  bool Write(const std::string& path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tspan\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(
          f, "%u\t%s\t%lld\t%lld\n", s.id, kSpanNames[s.kind],
          static_cast<long long>((s.start - origin).count()),
          static_cast<long long>((s.end - origin).count()));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ checking --

/// Attempted and failed operations, with the first failure's reason.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Ok() { ++attempted; }
  void Fail(const std::string& why) {
    ++attempted;
    if (failed++ == 0) first_error = why;
  }
  void Merge(const Tally& other) {
    if (failed == 0 && other.failed > 0) first_error = other.first_error;
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Validates top-k answers: shape, plan, cache state, version and — for
/// the sampled seeds — every score against ExactHkpr.
class Checker {
 public:
  Checker(const ApproxParams& params, uint32_t num_nodes)
      : params_(params), num_nodes_(num_nodes) {}

  void AddGroundTruth(NodeId seed, std::vector<double> normalized) {
    exact_[seed] = std::move(normalized);
  }

  /// Seeds with ground truth.
  size_t sampled() const { return exact_.size(); }

  /// Checks one answer for `seed`; returns an empty string when it passes.
  std::string Check(NodeId seed, uint64_t version, CacheExpect expect,
                    const std::vector<uint32_t>& nodes,
                    const std::vector<double>& scores, bool cache_hit,
                    uint64_t got_version) const {
    if (nodes.size() != kTopK) return "wrong k";
    if (got_version != version) {
      return "version " + std::to_string(got_version) + ", expected " +
             std::to_string(version);
    }
    if (expect == CacheExpect::kHit && !cache_hit) return "unexpected miss";
    if (expect == CacheExpect::kMiss && cache_hit) return "unexpected hit";
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] >= num_nodes_) return "node out of range";
      if (i > 0 && scores[i] > scores[i - 1]) return "scores not sorted";
    }
    const auto it = exact_.find(seed);
    if (it == exact_.end()) return "";
    for (size_t i = 0; i < nodes.size(); ++i) {
      const double exact = it->second[nodes[i]];
      if (!perfbench::ScoreWithinBound(scores[i], exact, params_.eps_r,
                                       params_.delta)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "seed %u node %u score %.6g vs exact %.6g outside "
                      "bound",
                      seed, nodes[i], scores[i], exact);
        return buf;
      }
    }
    checked_.fetch_add(1, std::memory_order_relaxed);
    return "";
  }

  /// Answers compared against ground truth so far.
  uint64_t checked() const { return checked_.load(); }

 private:
  ApproxParams params_;
  uint32_t num_nodes_;
  std::unordered_map<NodeId, std::vector<double>> exact_;
  mutable std::atomic<uint64_t> checked_{0};
};

/// Parses and checks one `topk` response line (without its newline).
std::string CheckTopkLine(const Checker& checker, const std::string& line,
                          NodeId seed, uint64_t version, CacheExpect expect) {
  perfbench::TopkResponse response;
  std::string error;
  if (!perfbench::ParseTopkResponse(line, &response, &error)) return error;
  if (response.seed != seed) return "answer for the wrong seed";
  if (response.backend != "tea+") return "backend " + response.backend;
  return checker.Check(seed, version, expect, response.nodes, response.scores,
                       response.cache_hit, response.version);
}

// ---------------------------------------------------------- the client --

/// A blocking loopback client speaking the line protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Sends `line` plus '\n' and reads one response line (newline
  /// stripped). False when the connection fails or closes.
  bool RoundTrip(const std::string& line, std::string* response) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = send(fd_, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    size_t newline = buf_.find('\n');
    while (newline == std::string::npos) {
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
      newline = buf_.find('\n');
    }
    response->assign(buf_, 0, newline);
    buf_.erase(0, newline + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ------------------------------------------------------------ the stack --

/// The served stack, wired as example_hkpr_server --listen wires it, plus
/// the benchmark's client connections. Members are destroyed in reverse:
/// clients, server, processor, service, store.
struct Stack {
  GraphStore store;
  TenantRegistry tenants;
  std::unique_ptr<MultiGraphService> service;
  std::unique_ptr<CommandProcessor> processor;
  std::unique_ptr<SocketServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  uint64_t version = 0;
};

ApproxParams ServedParams(uint32_t num_nodes) {
  ApproxParams params;  // the server's parameter set
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / static_cast<double>(num_nodes);
  params.p_f = 1e-6;
  return params;
}

Result<Graph> LoadServedGraph(const WorkloadSpec& spec,
                              const InputFiles& files) {
  return spec.serve_snapshot ? MapBinary(files.snapshot)
                             : LoadEdgeList(files.edges);
}

std::string TopkLine(NodeId seed) {
  return "topk " + std::to_string(seed) + " " + std::to_string(kTopK);
}

/// Loads the graph, builds the service, starts the server, connects the
/// clients and runs the warm pass. Returns null (with `error`) when a
/// step fails; warm-pass answers are checked into `tally`.
std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec, const InputFiles& files,
                             uint64_t seed, const std::vector<NodeId>& warm,
                             const Checker& checker, Tally* tally,
                             std::string* error) {
  auto stack = std::make_unique<Stack>();
  Result<Graph> graph = LoadServedGraph(spec, files);
  if (!graph.ok()) {
    *error = "cannot load the served graph: " + graph.status().ToString();
    return nullptr;
  }
  const ApproxParams params = ServedParams(graph.value().NumNodes());
  stack->version = stack->store.Publish(kGraph, std::move(graph).value());

  MultiGraphOptions options;
  options.worker_budget = spec.worker_budget;
  options.service.cache_capacity = 4096;
  options.service.backend.name = "tea+";
  stack->service = std::make_unique<MultiGraphService>(stack->store, params,
                                                       seed, options);
  stack->processor = std::make_unique<CommandProcessor>(
      stack->store, *stack->service, stack->tenants, params, kGraph);
  stack->server =
      std::make_unique<SocketServer>(*stack->processor, SocketServerOptions{});
  if (!stack->server->Start()) {
    *error = "cannot start the server: " + stack->server->error();
    return nullptr;
  }
  for (uint32_t c = 0; c < spec.connections; ++c) {
    stack->conns.push_back(std::make_unique<Connection>());
    if (!stack->conns.back()->Connect(stack->server->port())) {
      *error = "cannot connect to the server";
      return nullptr;
    }
  }
  std::string response;
  for (NodeId s : warm) {
    if (!stack->conns[0]->RoundTrip(TopkLine(s), &response)) {
      *error = "connection lost in the warm pass";
      return nullptr;
    }
    const std::string why =
        CheckTopkLine(checker, response, s, stack->version, CacheExpect::kAny);
    why.empty() ? tally->Ok() : tally->Fail("warm pass: " + why);
  }
  return stack;
}

// -------------------------------------------------------- the TCP pass --

/// What one client thread measured.
struct ClientRun {
  std::vector<double> latency_ms;
  std::vector<double> swap_ms;
  uint64_t ok_queries = 0;
  Tally tally;
  SpanLog spans{false};
  bool lost = false;  // the connection failed; the rest was not attempted
};

/// Sends `graph load` of the edge list and checks the version bump.
/// Returns the new version, or nullopt on failure (recorded in `run`).
std::optional<uint64_t> Swap(Connection& conn, const std::string& edges,
                             uint64_t version, uint32_t num_nodes,
                             uint32_t id, ClientRun* run) {
  std::string response;
  const Clock::time_point t0 = Clock::now();
  if (!conn.RoundTrip(std::string("graph load ") + kGraph + " " + edges,
                      &response)) {
    run->lost = true;
    run->tally.Fail("connection lost on graph load");
    return std::nullopt;
  }
  const Clock::time_point t1 = Clock::now();
  perfbench::LoadResponse load;
  std::string error;
  if (!perfbench::ParseLoadResponse(response, &load, &error)) {
    run->tally.Fail("graph load: " + error);
    return std::nullopt;
  }
  if (load.version <= version || load.nodes != num_nodes) {
    run->tally.Fail("graph load: no version bump or wrong size");
    return std::nullopt;
  }
  run->tally.Ok();
  run->swap_ms.push_back(Ms(t1 - t0));
  run->spans.Record(id, kSwap, t0, t1);
  return load.version;
}

/// One closed-loop client: queries seeds[begin], seeds[begin + stride], ...
/// and, with spec.swap_every, hot-swaps the graph after every swap_every
/// of them. The first answer after a swap must be a miss on the new
/// version.
void RunClient(Connection& conn, const WorkloadSpec& spec,
               const std::vector<NodeId>& seeds, size_t begin, size_t stride,
               const Checker& checker, const std::string& edges,
               uint64_t version, uint32_t num_nodes, ClientRun* run) {
  run->latency_ms.reserve(seeds.size() / stride + 1);
  std::string response;
  bool after_swap = false;
  uint64_t sent = 0;
  for (size_t i = begin; i < seeds.size(); i += stride) {
    if (spec.swap_every != 0 && sent > 0 && sent % spec.swap_every == 0) {
      const std::optional<uint64_t> next = Swap(
          conn, edges, version, num_nodes,
          static_cast<uint32_t>(run->swap_ms.size()), run);
      if (run->lost) return;
      if (next.has_value()) {
        version = *next;
        after_swap = true;
      }
    }
    const Clock::time_point t0 = Clock::now();
    if (!conn.RoundTrip(TopkLine(seeds[i]), &response)) {
      run->lost = true;
      run->tally.Fail("connection lost");
      return;
    }
    const Clock::time_point t1 = Clock::now();
    ++sent;
    run->latency_ms.push_back(Ms(t1 - t0));
    run->spans.Record(static_cast<uint32_t>(i), kRtt, t0, t1);
    const std::string why =
        CheckTopkLine(checker, response, seeds[i], version,
                      after_swap ? CacheExpect::kMiss : spec.expect);
    after_swap = false;
    if (why.empty()) {
      run->tally.Ok();
      ++run->ok_queries;
    } else {
      run->tally.Fail(why);
    }
  }
}

/// The closed-loop phase over every connection of `stack`.
struct PassResult {
  std::vector<double> latency_ms;
  std::vector<double> swap_ms;
  uint64_t ok_queries = 0;
  double wall_s = 0.0;
  Tally tally;
  SpanLog spans{false};
};

PassResult RunTcpPass(Stack& stack, const WorkloadSpec& spec,
                      const std::vector<NodeId>& seeds, const Checker& checker,
                      const std::string& edges, uint32_t num_nodes,
                      bool trace) {
  const size_t clients = stack.conns.size();
  std::vector<ClientRun> runs(clients);
  for (ClientRun& run : runs) run.spans = SpanLog(trace);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      RunClient(*stack.conns[c], spec, seeds, c, clients, checker, edges,
                stack.version, num_nodes, &runs[c]);
    });
  }
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  PassResult pass;
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  pass.spans = SpanLog(trace);
  for (ClientRun& run : runs) {
    pass.latency_ms.insert(pass.latency_ms.end(), run.latency_ms.begin(),
                           run.latency_ms.end());
    pass.swap_ms.insert(pass.swap_ms.end(), run.swap_ms.begin(),
                        run.swap_ms.end());
    pass.ok_queries += run.ok_queries;
    pass.tally.Merge(run.tally);
    pass.spans.Append(run.spans);
  }
  stack.version = stack.store.Get(kGraph).version;  // after any swaps
  return pass;
}

/// For a workload without interleaved swaps: spec.swap_round hot-swaps on
/// connection 0, each followed by one query, which must miss on the new
/// version (the query makes the next swap replace a live service). A run
/// makes one round before tearing down each extra set-up and one after
/// the timed phase, so its samples span the whole run: a shared VM's speed
/// changes over seconds, and swaps are twice as sensitive to it as
/// queries.
void RunSwapRound(Stack& stack, const WorkloadSpec& spec,
                  const std::vector<NodeId>& seeds, const Checker& checker,
                  const std::string& edges, uint32_t num_nodes,
                  std::vector<double>* swap_ms, Tally* tally) {
  ClientRun run;
  Connection& conn = *stack.conns[0];
  std::string response;
  for (uint32_t i = 0; i < spec.swap_round && !run.lost; ++i) {
    const std::optional<uint64_t> next =
        Swap(conn, edges, stack.version, num_nodes,
             static_cast<uint32_t>(swap_ms->size()) + i, &run);
    if (!next.has_value()) continue;
    stack.version = *next;
    const NodeId s = seeds[i % seeds.size()];
    if (!conn.RoundTrip(TopkLine(s), &response)) {
      run.tally.Fail("connection lost");
      break;
    }
    const std::string why = CheckTopkLine(checker, response, s, stack.version,
                                          CacheExpect::kMiss);
    why.empty() ? run.tally.Ok() : run.tally.Fail("after swap: " + why);
  }
  swap_ms->insert(swap_ms->end(), run.swap_ms.begin(), run.swap_ms.end());
  tally->Merge(run.tally);
}

// --------------------------------------------------------- the metrics --

/// Ordered name -> (value, unit) pairs for the result object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  /// The first metric whose value is NaN or infinite; empty when none.
  std::string NonFinite() const {
    for (const Row& row : rows_) {
      if (!std::isfinite(row.value)) return row.name;
    }
    return "";
  }
  /// The metrics object; a non-finite value prints as 0 (JSON has no NaN)
  /// and the caller counts it as a failure through NonFinite().
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(),
                    std::isfinite(rows_[i].value) ? rows_[i].value : 0.0,
                    rows_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Process CPU time (user + system) and context switches.
struct CpuSample {
  double cpu_s = 0.0;
  double switches = 0.0;
};

CpuSample SampleCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime) + secs(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(const std::vector<double>& v) { return PercentileOf(v, 0.5).value; }

// ---------------------------------------------------- traced-run passes --

/// The per-layer numbers the direct passes produce.
struct LayerTimes {
  std::vector<double> execute_us, submit_us, topk_us;
  std::vector<double> estimate_ms, push_ms;
  EstimatorStats totals;  // summed over the estimate pass
  uint64_t early_exits = 0;
  double nnz_sum = 0.0;
  std::vector<double> load_ms, map_ms, publish_ms;
};

/// Direct CommandProcessor::Execute and MultiGraphService::SubmitTopK
/// passes over the workload's first spec.service_pass seeds.
void RunServicePasses(Stack& stack, const WorkloadSpec& spec,
                      const std::vector<NodeId>& seeds, const Checker& checker,
                      const Graph& graph, SpanLog* spans, LayerTimes* times,
                      Tally* tally) {
  const size_t count = std::min(spec.service_pass, seeds.size());
  const uint64_t version = stack.store.Get(kGraph).version;
  ClientSession session = stack.processor->NewSession();
  if (spec.invalidate_before_pass) stack.service->InvalidateCaches();
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    const CommandResult result =
        stack.processor->Execute(session, TopkLine(seeds[i]));
    const Clock::time_point t1 = Clock::now();
    times->execute_us.push_back(Ms(t1 - t0) * 1e3);
    spans->Record(static_cast<uint32_t>(i), kExecute, t0, t1);
    std::string line = result.output;
    if (!line.empty() && line.back() == '\n') line.pop_back();
    const std::string why =
        CheckTopkLine(checker, line, seeds[i], version, spec.expect);
    why.empty() ? tally->Ok() : tally->Fail("execute pass: " + why);
  }
  if (spec.invalidate_before_pass) stack.service->InvalidateCaches();
  std::vector<std::pair<size_t, std::shared_ptr<const SparseVector>>> cached;
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    QueryHandle handle = stack.service->SubmitTopK(kGraph, seeds[i], kTopK);
    const QueryResult result = handle.result.get();
    const Clock::time_point t1 = Clock::now();
    times->submit_us.push_back(Ms(t1 - t0) * 1e3);
    spans->Record(static_cast<uint32_t>(i), kSubmit, t0, t1);
    if (result.status != QueryStatus::kOk) {
      tally->Fail(std::string("submit pass: ") +
                  QueryStatusName(result.status));
      continue;
    }
    std::vector<uint32_t> nodes;
    std::vector<double> scores;
    for (const ScoredNode& s : result.top_k) {
      nodes.push_back(s.node);
      scores.push_back(s.score);
    }
    const std::string why =
        checker.Check(seeds[i], version, spec.expect, nodes, scores,
                      result.from_cache, result.graph_version);
    why.empty() ? tally->Ok() : tally->Fail("submit pass: " + why);
    cached.emplace_back(i, result.estimate);
  }
  // A pass of its own, so its memory traffic does not slow the submits.
  for (const auto& [i, estimate] : cached) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<ScoredNode> top = TopKNormalized(graph, *estimate, kTopK);
    const Clock::time_point t1 = Clock::now();
    top.size() == kTopK ? tally->Ok() : tally->Fail("TopKNormalized size");
    times->topk_us.push_back(Ms(t1 - t0) * 1e3);
    spans->Record(static_cast<uint32_t>(i), kTopk, t0, t1);
  }
}

/// Direct TEA+ EstimateInto and HkPushPlusInto calls with the served
/// parameters over the workload's first kEstimatorPass seeds. Each seed's
/// push runs right before its estimate, so both see the same memory state
/// and estimate - push isolates the walk phase.
void RunEstimatorPasses(const Graph& graph, const ApproxParams& params,
                        uint64_t seed, const std::vector<NodeId>& seeds,
                        SpanLog* spans, LayerTimes* times) {
  const size_t count = std::min(kEstimatorPass, seeds.size());
  TeaPlusEstimator estimator(graph, params, seed);
  const HeatKernel kernel(params.t);
  HkPushPlusOptions push;
  push.eps_r = params.eps_r;
  push.delta = params.delta;
  push.hop_cap = estimator.hop_cap();
  push.push_budget = estimator.push_budget();
  QueryWorkspace ws;
  EstimatorStats stats;
  estimator.EstimateInto(seeds[0], ws);  // grow the workspace untimed
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    HkPushPlusInto(graph, kernel, seeds[i], push, ws);
    const Clock::time_point t1 = Clock::now();
    const SparseVector& result = estimator.EstimateInto(seeds[i], ws, &stats);
    const Clock::time_point t2 = Clock::now();
    times->push_ms.push_back(Ms(t1 - t0));
    times->estimate_ms.push_back(Ms(t2 - t1));
    spans->Record(static_cast<uint32_t>(i), kPush, t0, t1);
    spans->Record(static_cast<uint32_t>(i), kEstimate, t1, t2);
    times->totals.push_operations += stats.push_operations;
    times->totals.num_walks += stats.num_walks;
    times->totals.walk_steps += stats.walk_steps;
    times->early_exits += stats.early_exit ? 1 : 0;
    times->nnz_sum += static_cast<double>(result.nnz());
  }
}

/// Times the loaders on the workload's files and Publish + ServiceFor of
/// the served graph.
void RunGraphPasses(Stack& stack, const InputFiles& files, const Graph& graph,
                    SpanLog* spans, LayerTimes* times, Tally* tally) {
  for (uint32_t i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Result<Graph> loaded = LoadEdgeList(files.edges);
    const Clock::time_point t1 = Clock::now();
    loaded.ok() && loaded.value().NumNodes() == graph.NumNodes()
        ? tally->Ok()
        : tally->Fail("LoadEdgeList");
    times->load_ms.push_back(Ms(t1 - t0));
    spans->Record(i, kLoad, t0, t1);
  }
  for (uint32_t i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Result<Graph> mapped = MapBinary(files.snapshot);
    const Clock::time_point t1 = Clock::now();
    mapped.ok() && mapped.value().NumNodes() == graph.NumNodes()
        ? tally->Ok()
        : tally->Fail("MapBinary");
    times->map_ms.push_back(Ms(t1 - t0));
    spans->Record(i, kMap, t0, t1);
  }
  for (uint32_t i = 0; i < 5; ++i) {
    Graph copy = graph;  // shares the CSR storage; nothing is parsed
    const Clock::time_point t0 = Clock::now();
    stack.service->Publish(kGraph, std::move(copy));
    const bool live = stack.service->ServiceFor(kGraph) != nullptr;
    const Clock::time_point t1 = Clock::now();
    live ? tally->Ok() : tally->Fail("Publish");
    times->publish_ms.push_back(Ms(t1 - t0));
    spans->Record(i, kPublish, t0, t1);
  }
}

// ----------------------------------------------------------- the setup --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  std::string inputs;
  std::string out;
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    std::optional<uint64_t> number;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && (number = ParseUint64(value, UINT64_MAX))) {
      args->seed = *number;
      have_seed = true;
    } else if (flag == "--seconds" && (number = ParseUint64(value, 3600)) &&
               *number > 0) {
      args->seconds = *number;
      have_seconds = true;
    } else if (flag == "--trace" && (number = ParseUint64(value, 1))) {
      args->trace = *number;
      have_trace = true;
    } else if (flag == "--inputs") {
      args->inputs = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--dirty") {
      args->dirty = value;
    } else if (flag == "--source") {
      args->source = value;
    } else {
      std::fprintf(stderr, "served_bench: bad flag %s %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->workload.empty() && !args->inputs.empty() &&
         !args->out.empty();
}

/// Pins the whole process (every thread it will start) to the highest
/// CPU it may run on, and confirms the kernel placed it there.
bool PinToOneCpu(int* cpu, int* allowed, std::string* error) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    *error = std::string("sched_getaffinity: ") + std::strerror(errno);
    return false;
  }
  *allowed = CPU_COUNT(&set);
  *cpu = -1;
  for (int c = CPU_SETSIZE - 1; c >= 0 && *cpu < 0; --c) {
    if (CPU_ISSET(c, &set)) *cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(*cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    *error = std::string("sched_setaffinity: ") + std::strerror(errno);
    return false;
  }
  cpu_set_t now;
  CPU_ZERO(&now);
  if (sched_getaffinity(0, sizeof(now), &now) != 0 || CPU_COUNT(&now) != 1 ||
      !CPU_ISSET(*cpu, &now) || sched_getcpu() != *cpu) {
    *error = "process is not running on CPU " + std::to_string(*cpu) +
             " after pinning";
    return false;
  }
  return true;
}

/// Generates missing inputs in a child process, so the generator's memory
/// never counts in this process's peak RSS, then returns the cached files.
/// Must run before this process starts any thread.
bool PrepareInputs(GraphPreset preset, uint64_t seed, const std::string& dir,
                   InputFiles* files, std::string* error) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    const bool ok = perfbench::EnsureInputs(preset, seed, dir, files, error);
    if (!ok) std::fprintf(stderr, "served_bench: %s\n", error->c_str());
    std::fflush(stderr);
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    *error = "input generation failed";
    return false;
  }
  return perfbench::EnsureInputs(preset, seed, dir, files, error);
}

#ifndef HKPR_BENCH_BUILD_TYPE
#define HKPR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HKPR_BENCH_LIB_FLAGS
#define HKPR_BENCH_LIB_FLAGS ""
#endif

/// True when both this program and the library were compiled with NDEBUG.
bool OptimizedBuild() {
#ifdef NDEBUG
  return std::strstr(HKPR_BENCH_LIB_FLAGS, "-DNDEBUG") != nullptr;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --inputs DIR --out DIR [--commit SHA] "
                 "[--dirty 0|1] [--source DIGEST]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "served_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Refuse to measure an invalid setup: an unpinned or debug build's
  // numbers are not comparable with anything.
  int cpu = -1, allowed = 0;
  std::string error;
  if (!PinToOneCpu(&cpu, &allowed, &error)) {
    std::fprintf(stderr, "served_bench: refusing to measure: %s\n",
                 error.c_str());
    return 3;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "served_bench: refusing to measure: built without NDEBUG "
                 "(library flags \"%s\")\n",
                 HKPR_BENCH_LIB_FLAGS);
    return 3;
  }
  const Clock::time_point origin = Clock::now();
  const bool trace = args.trace == 1;

  // Inputs: generated once per seed, outside every timed region.
  InputFiles files;
  if (!PrepareInputs(spec->preset, args.seed, args.inputs, &files, &error)) {
    std::fprintf(stderr, "served_bench: %s\n", error.c_str());
    return 4;
  }
  Result<Graph> plan_graph = LoadServedGraph(*spec, files);
  if (!plan_graph.ok()) {
    std::fprintf(stderr, "served_bench: %s\n",
                 plan_graph.status().ToString().c_str());
    return 4;
  }
  const Graph& graph = plan_graph.value();
  const uint32_t n = graph.NumNodes();
  const ApproxParams params = ServedParams(n);

  // The seed sequence, the warm pass of each set-up and the ground-truth
  // sample. Distinct-seed workloads warm each set-up on seeds of its own,
  // so one slow warm query does not recur in every repeat.
  const size_t count = static_cast<size_t>(
      spec->queries_per_second * static_cast<double>(args.seconds));
  if (count < kMinLatencySamples) {
    std::fprintf(stderr,
                 "served_bench: --seconds %llu gives %zu queries; a p95 "
                 "needs at least %zu\n",
                 static_cast<unsigned long long>(args.seconds), count,
                 kMinLatencySamples);
    return 2;
  }
  const int setups = trace ? 1 : kSetupRepeats;
  Rng rng(Mix64(args.seed ^ 0x5eedf00dULL));
  std::vector<NodeId> seeds;
  std::vector<std::vector<NodeId>> warm(setups);
  if (spec->hot_seeds == 0) {
    constexpr size_t kWarm = 4;
    const size_t total = count + kWarm * setups;
    seeds = UniformSeeds(graph, static_cast<uint32_t>(total), rng);
    if (seeds.size() != total) {
      std::fprintf(stderr, "served_bench: graph too small for %zu seeds\n",
                   total);
      return 4;
    }
    for (int r = 0; r < setups; ++r) {
      warm[r].assign(seeds.end() - kWarm, seeds.end());
      seeds.resize(seeds.size() - kWarm);
    }
  } else {
    seeds = ZipfianSeeds(graph, static_cast<uint32_t>(count), spec->hot_seeds,
                         kZipfExponent, rng);
    std::set<NodeId> seen;
    for (NodeId s : seeds) {
      if (seen.insert(s).second) warm[0].push_back(s);
    }
    for (int r = 1; r < setups; ++r) warm[r] = warm[0];
  }
  Checker checker(params, n);
  {
    std::set<NodeId> sampled;
    for (size_t i = 0; i < seeds.size() && sampled.size() < spec->accuracy_seeds;
         ++i) {
      if (!sampled.insert(seeds[i]).second) continue;
      std::vector<double> exact = ExactHkpr(graph, params.t, seeds[i]);
      NormalizeByDegree(graph, exact);
      checker.AddGroundTruth(seeds[i], std::move(exact));
    }
  }

  // Set-up: repeated, torn down between repeats; the last one is measured.
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::vector<double> swap_ms;
  for (int r = 0; r < setups; ++r) {
    if (stack != nullptr && spec->swap_every == 0) {
      RunSwapRound(*stack, *spec, seeds, checker, files.edges, n, &swap_ms,
                   &tally);
    }
    stack.reset();
    malloc_trim(0);  // each set-up starts from the same resident heap
    const Clock::time_point t0 = Clock::now();
    stack = SetUp(*spec, files, args.seed, warm[r], checker, &tally, &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "served_bench: %s\n", error.c_str());
      return 4;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // The closed-loop TCP pass: the measurement (untraced) or the traced
  // baseline of the per-layer waterfall.
  const ServiceStatsSnapshot stats_before = stack->service->StatsFor(kGraph);
  const CpuSample cpu_before = SampleCpu();
  PassResult pass = RunTcpPass(*stack, *spec, seeds, checker, files.edges, n,
                               trace);
  const CpuSample cpu_after = SampleCpu();
  const ServiceStatsSnapshot stats_after = stack->service->StatsFor(kGraph);
  tally.Merge(pass.tally);

  // The serving state's high-water mark: graph, cache and ground truth,
  // before the last swap round parses a second copy of the graph.
  const double peak_rss_mb = PeakRssMb();
  Metrics metrics;
  const Percentile p50 = PercentileOf(pass.latency_ms, 0.5);
  const Percentile p95 = PercentileOf(pass.latency_ms, 0.95);
  if (!trace) {
    if (spec->swap_every == 0) {
      RunSwapRound(*stack, *spec, seeds, checker, files.edges, n, &swap_ms,
                   &tally);
    } else {
      swap_ms = pass.swap_ms;
    }
    metrics.Add("throughput_qps",
                static_cast<double>(pass.ok_queries) / pass.wall_s, "1/s");
    metrics.Add("latency_p50_ms", p50.value, "ms");
    metrics.Add("latency_p95_ms", p95.value, "ms");
    metrics.Add("swap_ms_p50", Median(swap_ms), "ms");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    SpanLog spans(true);
    spans.Append(pass.spans);
    LayerTimes times;
    const Graph served = *stack->store.Get(kGraph).graph;
    RunServicePasses(*stack, *spec, seeds, checker, served, &spans, &times,
                     &tally);
    RunEstimatorPasses(served, params, args.seed, seeds, &spans, &times);
    RunGraphPasses(*stack, files, served, &spans, &times, &tally);

    const double queries = static_cast<double>(pass.latency_ms.size());
    const double completed =
        static_cast<double>(stats_after.completed - stats_before.completed);
    const double rtt_p50_us = p50.value * 1e3;
    const double execute_p50_us = Median(times.execute_us);
    const double submit_p50_us = Median(times.submit_us);
    // Layer self times as the median over queries of per-query
    // differences between passes, paired by query id: the same seed on
    // both sides, so seed-dependent estimator cost cancels.
    const std::vector<double> rtt_ms =
        pass.spans.DurationsMs(kRtt, times.execute_us.size());
    std::vector<double> transport_us, parse_format_us;
    for (size_t i = 0; i < times.execute_us.size(); ++i) {
      transport_us.push_back(rtt_ms[i] * 1e3 - times.execute_us[i]);
      parse_format_us.push_back(times.execute_us[i] - times.submit_us[i]);
    }
    const double estimate_ms = Mean(times.estimate_ms);
    const double push_ms = Mean(times.push_ms);
    const double walk_s = (estimate_ms - push_ms) * 1e-3 *
                          static_cast<double>(times.estimate_ms.size());
    const double per_query = static_cast<double>(times.estimate_ms.size());
    metrics.Add("net.rtt_us_p50", rtt_p50_us, "us");
    metrics.Add("net.execute_us_p50", execute_p50_us, "us");
    metrics.Add("net.transport_us_p50", Median(transport_us), "us");
    metrics.Add("net.parse_format_us_p50", Median(parse_format_us), "us");
    metrics.Add("net.cpu_us_per_query",
                (cpu_after.cpu_s - cpu_before.cpu_s) * 1e6 / queries, "us");
    metrics.Add("net.ctx_switches_per_query",
                (cpu_after.switches - cpu_before.switches) / queries, "count");
    metrics.Add("service.submit_us_p50", submit_p50_us, "us");
    metrics.Add("service.cache_hit_frac",
                static_cast<double>(stats_after.cache_hits -
                                    stats_before.cache_hits) /
                    completed,
                "frac");
    metrics.Add("service.computed_per_query",
                static_cast<double>(stats_after.computed -
                                    stats_before.computed) /
                    completed,
                "count");
    metrics.Add("service.publish_ms_p50", Median(times.publish_ms), "ms");
    metrics.Add("graph.load_ms", Median(times.load_ms), "ms");
    metrics.Add("graph.map_ms", Median(times.map_ms), "ms");
    metrics.Add("graph.csr_mb", static_cast<double>(served.MemoryBytes()) / 1e6,
                "MB");
    metrics.Add("hkpr.estimate_ms_mean", estimate_ms, "ms");
    metrics.Add("hkpr.push_ms_mean", push_ms, "ms");
    metrics.Add("hkpr.walk_ms_mean", estimate_ms - push_ms, "ms");
    metrics.Add("hkpr.walk_steps_per_s",
                walk_s > 0.0
                    ? static_cast<double>(times.totals.walk_steps) / walk_s
                    : 0.0,
                "1/s");
    metrics.Add("hkpr.push_ops_per_query",
                static_cast<double>(times.totals.push_operations) / per_query,
                "count");
    metrics.Add("hkpr.walks_per_query",
                static_cast<double>(times.totals.num_walks) / per_query,
                "count");
    metrics.Add("hkpr.walk_steps_per_query",
                static_cast<double>(times.totals.walk_steps) / per_query,
                "count");
    metrics.Add("hkpr.early_exit_frac",
                static_cast<double>(times.early_exits) / per_query, "frac");
    metrics.Add("hkpr.result_nnz_mean", times.nnz_sum / per_query, "count");
    metrics.Add("hkpr.topk_us_p50", Median(times.topk_us), "us");
    // Over the same queries: the TCP pass's first per_query round trips.
    const double rtt_ms_mean =
        Mean(pass.spans.DurationsMs(kRtt, times.estimate_ms.size()));
    metrics.Add("hkpr.estimate_frac_of_rtt", estimate_ms / rtt_ms_mean,
                "frac");
    const std::string span_path = args.out + "/spans-" + spec->name + "-s" +
                                  std::to_string(args.seed) + ".tsv";
    if (!spans.Write(span_path, origin)) {
      std::fprintf(stderr, "served_bench: cannot write %s\n",
                   span_path.c_str());
      return 4;
    }
  }
  stack.reset();

  if (const std::string bad = metrics.NonFinite(); !bad.empty()) {
    tally.Fail("metric " + bad + " is not finite");
  }
  // Every sampled seed appears in the sequence, so each is compared at
  // least once unless an earlier check already failed its answer.
  if (checker.checked() < checker.sampled()) {
    tally.Fail("too few answers were checked for accuracy");
  }
  if (tally.failed > 0) {
    std::fprintf(stderr, "served_bench: %llu of %llu operations failed; "
                 "first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 tally.first_error.c_str());
  }
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::printf(
      "{\"env\": {\"host\": \"%s\", \"nproc\": %ld, \"allowed_cpus\": %d, "
      "\"pinned_cpu\": %d, \"commit\": \"%s\", \"dirty\": \"%s\", "
      "\"source_sha256\": \"%s\", \"build_type\": \"%s\"}, "
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"graph\": {\"nodes\": %u, \"edges\": %llu}, "
      "\"samples\": {\"queries\": %zu, \"latency\": %zu, \"swaps\": %zu, "
      "\"setups\": %zu, \"accuracy_checked\": %llu}}\n",
      host, sysconf(_SC_NPROCESSORS_ONLN), allowed, cpu, args.commit.c_str(),
      args.dirty.c_str(), args.source.c_str(), HKPR_BENCH_BUILD_TYPE,
      spec->name, static_cast<unsigned long long>(args.seed), trace ? 1 : 0, n,
      static_cast<unsigned long long>(graph.NumEdges()), seeds.size(),
      p50.count, trace ? pass.swap_ms.size() : swap_ms.size(), setup_s.size(),
      static_cast<unsigned long long>(checker.checked()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              metrics.Json().c_str());
  return 0;
}
