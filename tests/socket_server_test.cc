// Tests for the epoll socket frontend (net/socket_server.h): partial-line
// reassembly, strict in-order pipelining (across cache hits, misses and a
// hot-swapping graph load), concurrent connections, the oversized-line
// guard, tenant QoS isolation under concurrent load, Stop() with queries
// still computing, and byte-for-byte parity between the socket path and
// direct CommandProcessor execution (the stdin path).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"
#include "service_test_util.h"

namespace hkpr {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Blocking loopback client speaking the line protocol.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  ~Client() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ASSERT_EQ(write(fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one '\n'-terminated line; "" on EOF.
  std::string ReadLine() {
    while (true) {
      const size_t newline = buf_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buf_.substr(0, newline);
        buf_.erase(0, newline + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string Command(const std::string& line) {
    Send(line + "\n");
    return ReadLine();
  }

  /// Reads until EOF, returning everything.
  std::string ReadAll() {
    std::string out = buf_;
    buf_.clear();
    char chunk[8192];
    ssize_t n;
    while ((n = read(fd_, chunk, sizeof(chunk))) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

class SocketServerTest : public ::testing::Test {
 protected:
  void StartServer(SocketServerOptions net = SocketServerOptions(),
                   const std::string& backend = "tea+") {
    store_.Publish("default", PowerlawCluster(500, 4, 0.3, 7));
    params_.t = 5.0;
    params_.eps_r = 0.5;
    params_.delta = 1.0 / 500.0;
    params_.p_f = 1e-6;
    MultiGraphOptions options;
    options.worker_budget = 2;
    options.service.backend.name = backend;
    service_ = std::make_unique<MultiGraphService>(store_, params_, 7,
                                                   options);
    processor_ = std::make_unique<CommandProcessor>(store_, *service_,
                                                    tenants_, params_,
                                                    "default");
    net.port = 0;
    server_ = std::make_unique<SocketServer>(*processor_, net);
    ASSERT_TRUE(server_->Start()) << server_->error();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  GraphStore store_;
  ApproxParams params_;
  TenantRegistry tenants_;
  std::unique_ptr<MultiGraphService> service_;
  std::unique_ptr<CommandProcessor> processor_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(SocketServerTest, ServesQueriesOverTcp) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(StartsWith(client.Command("query 3"), "ok graph=default"));
  EXPECT_TRUE(StartsWith(client.Command("nonsense"), "err unknown command"));
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(SocketServerTest, ReassemblesPartialLines) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  // One command delivered in four separate writes, including a split in
  // the middle of a token and a CRLF terminator.
  client.Send("que");
  client.Send("ry ");
  client.Send("4");
  client.Send("\r\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  // Two commands in one write plus a leftover partial that completes
  // later.
  client.Send("query 5\nquery 6\nquer");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  client.Send("y 7\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
}

TEST_F(SocketServerTest, PipelinedCommandsAnswerInOrder) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  constexpr int kCount = 50;
  std::string burst;
  for (int i = 0; i < kCount; ++i) {
    burst += "query " + std::to_string(i % 20) + "\n";
  }
  client.Send(burst);  // all at once, no waiting — pipelined
  for (int i = 0; i < kCount; ++i) {
    const std::string line = client.ReadLine();
    // Responses must come back in submission order: the i-th line
    // carries the i-th command's seed.
    const std::string want = " seed=" + std::to_string(i % 20) + " ";
    EXPECT_NE(line.find(want), std::string::npos)
        << "response " << i << " out of order: " << line;
  }
}

TEST_F(SocketServerTest, ManyConcurrentConnections) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server_->port());
      if (!client.connected()) return;
      for (int i = 0; i < kQueriesEach; ++i) {
        const std::string line =
            client.Command("query " + std::to_string((c * 37 + i) % 500));
        if (StartsWith(line, "ok ")) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesEach);
  EXPECT_EQ(server_->connections_accepted(),
            static_cast<uint64_t>(kClients));
}

TEST_F(SocketServerTest, OversizedLineGetsErrorAndClose) {
  SocketServerOptions net;
  net.max_line_bytes = 1024;
  StartServer(net);
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  // 4 KiB with no newline: the server must reject rather than buffer on.
  client.Send(std::string(4096, 'x'));
  const std::string out = client.ReadAll();  // runs to EOF: closed
  EXPECT_TRUE(StartsWith(out, "err line too long")) << out;
}

TEST_F(SocketServerTest, QuitClosesOnlyThatConnection) {
  StartServer();
  Client a(server_->port());
  Client b(server_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(StartsWith(b.Command("query 1"), "ok "));
  a.Send("quit\n");
  EXPECT_EQ(a.ReadAll(), "");  // quit answers nothing and closes
  // The other connection is unaffected.
  EXPECT_TRUE(StartsWith(b.Command("query 2"), "ok "));
}

TEST_F(SocketServerTest, SessionsTrackTheirOwnGraphAndTenant) {
  StartServer();
  Client a(server_->port());
  Client b(server_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  EXPECT_TRUE(StartsWith(a.Command("tenant alice"), "ok tenant=alice"));
  // b's session still reports the default tenant.
  EXPECT_TRUE(StartsWith(b.Command("tenant"), "ok tenant=default"));
  EXPECT_TRUE(StartsWith(a.Command("tenant"), "ok tenant=alice"));
}

TEST_F(SocketServerTest, QosIsolationUnderConcurrentLoad) {
  StartServer();
  // "limited" may send 5 qps with a burst of 2; "default" is unlimited.
  {
    Client admin(server_->port());
    ASSERT_TRUE(admin.connected());
    ASSERT_TRUE(StartsWith(
        admin.Command("tenant set limited rate=5 burst=2 priority=high"),
        "ok "));
  }
  std::atomic<int> limited_ok{0}, limited_throttled{0}, limited_other{0};
  std::atomic<int> default_ok{0}, default_err{0};
  constexpr int kQueries = 60;
  std::thread limited_thread([&] {
    Client client(server_->port());
    if (!client.connected()) return;
    if (!StartsWith(client.Command("tenant limited"), "ok ")) return;
    for (int i = 0; i < kQueries; ++i) {
      const std::string line = client.Command("query " + std::to_string(i));
      if (StartsWith(line, "ok ")) {
        limited_ok.fetch_add(1);
      } else if (StartsWith(line, "err tenant-throttled tenant=limited")) {
        limited_throttled.fetch_add(1);
      } else {
        limited_other.fetch_add(1);
      }
    }
  });
  std::thread default_thread([&] {
    Client client(server_->port());
    if (!client.connected()) return;
    for (int i = 0; i < kQueries; ++i) {
      const std::string line = client.Command("query " + std::to_string(i));
      if (StartsWith(line, "ok ")) {
        default_err.fetch_add(0);
        default_ok.fetch_add(1);
      } else {
        default_err.fetch_add(1);
      }
    }
  });
  limited_thread.join();
  default_thread.join();
  // The limited tenant hits its rate limit with the distinct error...
  EXPECT_GT(limited_throttled.load(), 0);
  EXPECT_GT(limited_ok.load(), 0);  // ...but its burst tokens were served
  EXPECT_EQ(limited_other.load(), 0);
  // ...while the unthrottled tenant saw zero added rejections.
  EXPECT_EQ(default_ok.load(), kQueries);
  EXPECT_EQ(default_err.load(), 0);
  const TenantStatsSnapshot s = tenants_.StatsFor("limited");
  EXPECT_EQ(s.throttled,
            static_cast<uint64_t>(limited_throttled.load()));
}

TEST_F(SocketServerTest, SocketMatchesDirectExecutionByteForByte) {
  StartServer();
  // A deterministic command stream: introspection, session-state and
  // error responses whose bytes don't depend on timing or cache state
  // (query responses carry latency_ms, so successful queries can't be
  // byte-compared — the shapes they share are covered by the tests
  // above). None of these mutate shared service state, so replaying the
  // stream on both transports must produce identical bytes.
  const std::vector<std::string> stream = {
      "tenant alice",
      "graph list",
      "backend",
      "params default",
      "tenant list",
      "query",          // usage error — deterministic
      "query 3 t=",     // hardened parse error
      "query 3 t=1 t=2",
      "graph use nosuch",
      "bogus",
  };
  // Direct (stdin-path) execution first, to learn the expected bytes.
  std::string direct_bytes;
  {
    ClientSession session = processor_->NewSession();
    for (const std::string& cmd : stream) {
      direct_bytes += processor_->Execute(session, cmd).output;
    }
  }
  const size_t expected_lines = static_cast<size_t>(
      std::count(direct_bytes.begin(), direct_bytes.end(), '\n'));
  ASSERT_GE(expected_lines, stream.size());
  // Same stream over the socket, pipelined in one write.
  std::string socket_bytes;
  {
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    std::string all;
    for (const std::string& cmd : stream) all += cmd + "\n";
    client.Send(all);
    for (size_t i = 0; i < expected_lines; ++i) {
      socket_bytes += client.ReadLine() + "\n";
    }
  }
  EXPECT_EQ(socket_bytes, direct_bytes);
}

TEST_F(SocketServerTest, StopUnblocksOpenConnections) {
  StartServer();
  auto client = std::make_unique<Client>(server_->port());
  ASSERT_TRUE(client->connected());
  ASSERT_TRUE(StartsWith(client->Command("query 1"), "ok "));
  server_->Stop();
  EXPECT_EQ(client->ReadAll(), "");  // server closed the connection
  EXPECT_EQ(server_->connections_active(), 0u);
}

/// Writes `graph` as an edge list under the test temp dir; returns the path.
std::string WriteEdgeListFile(const Graph& graph, const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "socket_server_test_" + tag + ".txt";
  EXPECT_TRUE(SaveEdgeList(graph, path).ok());
  return path;
}

TEST_F(SocketServerTest, StopWaitsForQueriesStillComputing) {
  testing::RegisterGatedBackend();
  StartServer(SocketServerOptions(), "gated-hk-relax");
  testing::GateReleaser releaser;
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(StartsWith(client.Command("query 1"), "ok "));  // gate open

  testing::Gate().Arm();
  client.Send("query 2\nquery 3\n");  // query 2 computes; query 3 waits
  ASSERT_TRUE(testing::Gate().WaitEntered(1));
  EXPECT_EQ(tenants_.StatsFor(std::string(kDefaultTenant)).in_flight, 1u);

  // Stop() joins the IO thread, then waits for the held completion: it
  // cannot return while the query computes, and does once it is let go.
  std::future<void> stopped =
      std::async(std::launch::async, [this] { server_->Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  testing::Gate().Release();
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  stopped.get();

  // The late reply was dropped with the connection, the pipelined query
  // behind it never ran, and the tenant's quota is whole again.
  EXPECT_EQ(client.ReadAll(), "");
  EXPECT_EQ(server_->connections_active(), 0u);
  const TenantStatsSnapshot tenant =
      tenants_.StatsFor(std::string(kDefaultTenant));
  EXPECT_EQ(tenant.in_flight, 0u);
  EXPECT_EQ(tenant.completed, 2u);
  // Freed with no completion outstanding: nothing may touch it later.
  server_.reset();
}

TEST_F(SocketServerTest, PipelinedHitsMissesAndGraphLoadAnswerInOrder) {
  StartServer();
  const std::string path =
      WriteEdgeListFile(PowerlawCluster(300, 3, 0.3, 11), "pipeline");
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  // Misses complete on workers, hits and every other command inline on
  // the IO thread; the replies must still come back in line order.
  const std::vector<std::string> lines = {
      "query 1",        // miss
      "query 1",        // hit
      "topk 2 5",       // miss
      "topk 2 5",       // hit
      "graph load default " + path,  // hot-swap: version 2
      "query 1",        // miss on the new snapshot
      "query 1",        // hit
      "graph list",
  };
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  client.Send(burst);
  std::vector<std::string> replies;
  for (size_t i = 0; i < lines.size(); ++i) {
    replies.push_back(client.ReadLine());
  }

  const std::vector<std::string> expected = {
      "ok graph=default version=1 seed=1 ",
      "ok graph=default version=1 seed=1 ",
      "ok graph=default version=1 seed=2 ",
      "ok graph=default version=1 seed=2 ",
      "ok graph=default version=2 nodes=300 ",
      "ok graph=default version=2 seed=1 ",
      "ok graph=default version=2 seed=1 ",
      "ok graphs=1 default:v2:n300:",
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(StartsWith(replies[i], expected[i]))
        << "reply " << i << " to \"" << lines[i] << "\": " << replies[i];
  }
  const std::vector<std::string> cache = {"cache=miss", "cache=hit",
                                          "cache=miss", "cache=hit"};
  for (size_t i = 0; i < cache.size(); ++i) {
    EXPECT_NE(replies[i].find(cache[i]), std::string::npos) << replies[i];
  }
  EXPECT_NE(replies[5].find("cache=miss"), std::string::npos) << replies[5];
  EXPECT_NE(replies[6].find("cache=hit"), std::string::npos) << replies[6];
}

TEST_F(SocketServerTest, OtherConnectionsServedAroundGraphLoads) {
  StartServer();
  const std::string path =
      WriteEdgeListFile(PowerlawCluster(2000, 3, 0.3, 12), "swap");
  constexpr int kLoads = 5;
  constexpr int kQueries = 200;
  std::atomic<int> queries_ok{0};
  std::thread querier([&] {
    Client client(server_->port());
    if (!client.connected()) return;
    for (int i = 0; i < kQueries; ++i) {
      const std::string line =
          client.Command("topk " + std::to_string(i % 40) + " 5");
      if (StartsWith(line, "ok graph=default ")) queries_ok.fetch_add(1);
    }
  });
  Client loader(server_->port());
  ASSERT_TRUE(loader.connected());
  std::string burst;
  for (int i = 0; i < kLoads; ++i) burst += "graph load side " + path + "\n";
  loader.Send(burst);
  for (int i = 0; i < kLoads; ++i) {
    const std::string reply = loader.ReadLine();
    // Store-wide versions: "default" holds 1.
    EXPECT_TRUE(StartsWith(reply, "ok graph=side version=" +
                                      std::to_string(i + 2) + " "))
        << reply;
  }
  querier.join();
  EXPECT_EQ(queries_ok.load(), kQueries);
}

}  // namespace
}  // namespace hkpr
