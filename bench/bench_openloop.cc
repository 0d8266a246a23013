// Open-loop latency of the socket frontend under fixed offered load
// (extension).
//
// The closed-loop benches (bench_service, bench_serve_scaling) measure
// throughput with clients that wait for each response before sending the
// next query — which silently stops offering load exactly when the
// server stalls, hiding tail latency (coordinated omission). This bench
// drives the real TCP frontend (net/socket_server.h) the way production
// traffic arrives: a Poisson process at a fixed offered rate whose
// arrival times are drawn up front, with every query's latency measured
// from its *intended* send time, not from when the sender finally got
// around to write()ing it. A server that falls behind therefore pays for
// the queueing delay it caused — the open-loop p99 is the number a
// latency SLO is written against.
//
// Method: a powerlaw-cluster graph is published into a MultiGraphService
// and served by an in-process SocketServer on an ephemeral loopback
// port. C connections each get a pre-drawn schedule of intended send
// times (exponential inter-arrivals at rate R/C per connection); a
// sender thread per connection sleeps until each intended time and
// writes "query <seed>", never waiting for responses, while a receiver
// thread matches the in-order response lines against the FIFO of
// intended times. The sweep first calibrates capacity with a short
// closed-loop burst, then offers fixed fractions of it (0.25/0.5/0.75/
// 1.0 by default), so the emitted curve shows the latency knee as
// offered load approaches capacity. Each rate point runs an untimed
// closed-loop warmup over its own seed stream first, so every row
// measures steady-state serving — not the first-touch computes that
// would otherwise land entirely on the sweep's first row.
//
// Flags: --json=PATH writes BENCH_openloop.json-style output
// ({"rows": [{offered_qps, achieved_qps, p50_ms, p95_ms, p99_ms, ...}]});
// --smoke shrinks the sweep to a seconds-long CI run; --nodes=N,
// --connections=C, --queries=N (per rate point), --rng=S override the
// workload shape.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "service/multi_graph_service.h"

using namespace hkpr;

namespace {

using Clock = std::chrono::steady_clock;

struct OpenLoopConfig {
  uint32_t nodes = 20000;
  size_t connections = 4;
  uint32_t queries_per_rate = 2000;
  uint64_t rng_seed = 42;
  bool smoke = false;
  std::string json_path;
};

struct RateRow {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  size_t connections = 0;
  uint32_t queries = 0;
  uint32_t errors = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// One client connection to the server's loopback port.
int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads '\n'-terminated lines off a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF/error.
  bool Next(std::string* line) {
    while (true) {
      const size_t newline = buf_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buf_, 0, newline);
        buf_.erase(0, newline + 1);
        return true;
      }
      char chunk[16 << 10];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// Short closed-loop burst to estimate the serving capacity the open-loop
/// sweep scales its offered rates from.
double CalibrateCapacityQps(uint16_t port, const OpenLoopConfig& config,
                            uint32_t num_nodes) {
  const uint32_t queries =
      config.smoke ? 200 : std::max<uint32_t>(500, config.queries_per_rate / 4);
  std::vector<std::thread> threads;
  std::atomic<uint32_t> completed{0};
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectTo(port);
      if (fd < 0) return;
      LineReader reader(fd);
      std::mt19937_64 rng(config.rng_seed * 977 + c);
      std::uniform_int_distribution<uint32_t> seed_dist(0, num_nodes - 1);
      const uint32_t mine = queries / static_cast<uint32_t>(config.connections);
      std::string line;
      for (uint32_t i = 0; i < mine; ++i) {
        char buf[64];
        const int len =
            std::snprintf(buf, sizeof(buf), "query %u\n", seed_dist(rng));
        if (write(fd, buf, static_cast<size_t>(len)) != len) break;
        if (!reader.Next(&line)) break;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (seconds <= 0.0 || completed.load() == 0) return 1000.0;
  return static_cast<double>(completed.load()) / seconds;
}

/// One open-loop pass at `offered_qps`: Poisson arrivals split across the
/// connections, latency measured from intended send time.
RateRow RunRate(uint16_t port, const OpenLoopConfig& config,
                uint32_t num_nodes, double offered_qps) {
  RateRow row;
  row.offered_qps = offered_qps;
  row.connections = config.connections;

  const uint32_t total = config.queries_per_rate;
  const size_t conns = config.connections;

  // Draw every connection's arrival schedule up front so the sweep is
  // reproducible and the sender loop does no RNG work.
  std::vector<std::vector<double>> schedules(conns);  // seconds from start
  std::vector<std::vector<uint32_t>> seeds(conns);
  {
    std::mt19937_64 rng(config.rng_seed);
    std::uniform_int_distribution<uint32_t> seed_dist(0, num_nodes - 1);
    const double per_conn_rate = offered_qps / static_cast<double>(conns);
    std::exponential_distribution<double> gap(per_conn_rate);
    for (size_t c = 0; c < conns; ++c) {
      double at = 0.0;
      const uint32_t mine = total / static_cast<uint32_t>(conns);
      schedules[c].reserve(mine);
      seeds[c].reserve(mine);
      for (uint32_t i = 0; i < mine; ++i) {
        at += gap(rng);
        schedules[c].push_back(at);
        seeds[c].push_back(seed_dist(rng));
      }
    }
  }

  // Untimed warmup: compute every seed of this pass once, closed-loop,
  // before the clock starts. Each rate row replays the same seed stream
  // (the schedule rng is reseeded per row), so without this the sweep's
  // first row alone paid the first-touch computes the later rows served
  // from cache — its p50 measured cold-start pollution (~30x the second
  // row's), not queueing at the offered rate.
  {
    const int fd = ConnectTo(port);
    if (fd >= 0) {
      LineReader reader(fd);
      std::string line;
      for (size_t c = 0; c < conns; ++c) {
        for (const uint32_t seed : seeds[c]) {
          char buf[64];
          const int len = std::snprintf(buf, sizeof(buf), "query %u\n", seed);
          if (write(fd, buf, static_cast<size_t>(len)) != len) break;
          if (!reader.Next(&line)) break;
        }
      }
      close(fd);
    }
  }

  std::mutex results_mu;
  std::vector<double> latencies_ms;
  uint32_t errors = 0;
  std::atomic<uint32_t> completed{0};

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectTo(port);
      if (fd < 0) return;

      // Senders push each query's intended time before writing it; the
      // receiver pops in FIFO order — per-connection responses are
      // strictly in order, so the fronts always match.
      std::mutex inflight_mu;
      std::deque<Clock::time_point> inflight;
      std::atomic<bool> done_sending{false};

      std::thread receiver([&] {
        LineReader reader(fd);
        std::string line;
        std::vector<double> local_ms;
        uint32_t local_errors = 0;
        local_ms.reserve(schedules[c].size());
        while (true) {
          bool empty;
          {
            std::lock_guard<std::mutex> lock(inflight_mu);
            empty = inflight.empty();
          }
          if (empty) {
            if (done_sending.load()) break;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
          if (!reader.Next(&line)) break;
          Clock::time_point intended;
          {
            std::lock_guard<std::mutex> lock(inflight_mu);
            intended = inflight.front();
            inflight.pop_front();
          }
          // Latency from the *intended* send time: queueing the server
          // (or a blocked sender) caused is charged to the query.
          local_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        intended)
                  .count());
          if (line.compare(0, 3, "err") == 0) ++local_errors;
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(results_mu);
        latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                            local_ms.end());
        errors += local_errors;
      });

      for (size_t i = 0; i < schedules[c].size(); ++i) {
        const Clock::time_point intended =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedules[c][i]));
        std::this_thread::sleep_until(intended);
        {
          std::lock_guard<std::mutex> lock(inflight_mu);
          inflight.push_back(intended);
        }
        char buf[64];
        const int len =
            std::snprintf(buf, sizeof(buf), "query %u\n", seeds[c][i]);
        if (write(fd, buf, static_cast<size_t>(len)) != len) break;
      }
      done_sending.store(true);
      receiver.join();
      close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  row.seconds = std::chrono::duration<double>(Clock::now() - start).count();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto pct = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies_ms.size())));
    return latencies_ms[idx];
  };
  row.queries = static_cast<uint32_t>(latencies_ms.size());
  row.errors = errors;
  row.achieved_qps =
      row.seconds > 0.0 ? static_cast<double>(completed.load()) / row.seconds
                        : 0.0;
  row.p50_ms = pct(0.50);
  row.p95_ms = pct(0.95);
  row.p99_ms = pct(0.99);
  row.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  return row;
}

void WriteJson(const std::string& path, uint32_t nodes, uint64_t edges,
               const OpenLoopConfig& config, double capacity_qps,
               const std::vector<RateRow>& rows) {
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"openloop_socket_latency\",\n");
  std::fprintf(f,
               "  \"dataset\": \"powerlaw-cluster\",\n  \"nodes\": %u,\n"
               "  \"edges\": %llu,\n",
               nodes, static_cast<unsigned long long>(edges));
  std::fprintf(f,
               "  \"workload\": \"poisson open-loop over TCP, %zu "
               "connections, latency from intended send time\",\n",
               config.connections);
  std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RateRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
        "\"connections\": %zu, \"queries\": %u, \"errors\": %u, "
        "\"seconds\": %.6f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"max_ms\": %.3f}%s\n",
        r.offered_qps, r.achieved_qps, r.connections, r.queries, r.errors,
        r.seconds, r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  OpenLoopConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      config.json_path = arg + 7;
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      config.nodes = static_cast<uint32_t>(std::strtoul(arg + 8, nullptr, 10));
    } else if (std::strncmp(arg, "--connections=", 14) == 0) {
      config.connections =
          static_cast<size_t>(std::strtoul(arg + 14, nullptr, 10));
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      config.queries_per_rate =
          static_cast<uint32_t>(std::strtoul(arg + 10, nullptr, 10));
    } else if (std::strncmp(arg, "--rng=", 6) == 0) {
      config.rng_seed = std::strtoull(arg + 6, nullptr, 10);
    } else {
      std::printf("usage: %s [--smoke] [--json=PATH] [--nodes=N] "
                  "[--connections=C] [--queries=N] [--rng=S]\n",
                  argv[0]);
      return std::strcmp(arg, "--help") == 0 ? 0 : 1;
    }
  }
  if (config.smoke) {
    config.nodes = std::min<uint32_t>(config.nodes, 5000);
    config.queries_per_rate = std::min<uint32_t>(config.queries_per_rate, 400);
    config.connections = std::min<size_t>(config.connections, 2);
  }
  if (config.connections == 0) config.connections = 1;

  GraphStore store;
  store.Publish("default", PowerlawCluster(config.nodes, 4, 0.3,
                                           config.rng_seed));
  const GraphSnapshot snapshot = store.Get("default");
  const uint32_t num_nodes = snapshot.graph->NumNodes();
  const uint64_t num_edges = snapshot.graph->NumEdges();

  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / static_cast<double>(num_nodes);
  params.p_f = 1e-6;

  MultiGraphOptions options;
  options.service.cache_capacity = 4096;
  options.service.backend.name = "tea+";
  MultiGraphService service(store, params, config.rng_seed, options);

  TenantRegistry tenants;
  CommandProcessor processor(store, service, tenants, params, "default");

  SocketServerOptions net;
  net.port = 0;  // ephemeral
  SocketServer server(processor, net);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start socket server: %s\n",
                 server.error().c_str());
    return 1;
  }

  std::printf("# open-loop socket bench: n=%u m=%llu connections=%zu "
              "queries/rate=%u port=%u\n",
              num_nodes, static_cast<unsigned long long>(num_edges),
              config.connections, config.queries_per_rate, server.port());

  const double capacity = CalibrateCapacityQps(server.port(), config,
                                               num_nodes);
  std::printf("# calibrated closed-loop capacity: %.0f qps\n", capacity);

  const std::vector<double> fractions =
      config.smoke ? std::vector<double>{0.5, 1.0}
                   : std::vector<double>{0.25, 0.5, 0.75, 1.0};
  std::vector<RateRow> rows;
  std::printf("%12s %12s %8s %8s %8s %8s %8s\n", "offered_qps",
              "achieved_qps", "queries", "p50_ms", "p95_ms", "p99_ms",
              "max_ms");
  for (const double fraction : fractions) {
    const double offered = std::max(10.0, capacity * fraction);
    RateRow row = RunRate(server.port(), config, num_nodes, offered);
    std::printf("%12.1f %12.1f %8u %8.3f %8.3f %8.3f %8.3f\n",
                row.offered_qps, row.achieved_qps, row.queries, row.p50_ms,
                row.p95_ms, row.p99_ms, row.max_ms);
    rows.push_back(row);
  }
  server.Stop();

  if (!config.json_path.empty()) {
    WriteJson(config.json_path, num_nodes, num_edges, config, capacity, rows);
  }
  return 0;
}
