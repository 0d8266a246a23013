// Epoll-based TCP frontend for the hkpr line protocol.
//
// SocketServer accepts many concurrent connections and speaks exactly the
// protocol of examples/hkpr_server.cpp's stdin loop: newline-terminated
// commands in, the CommandProcessor's response text out. Both transports
// call the same CommandProcessor::Execute(), so a command stream produces
// byte-identical responses over a socket and over stdin.
//
// Threading model:
//  - One IO thread runs the epoll loop (level-triggered): it accepts,
//    reads into per-connection buffers, splits complete lines, dispatches
//    each connection's next line to CommandProcessor::Execute(), and owns
//    every socket write. Reads are non-blocking; a partial line simply
//    stays buffered until more bytes arrive.
//  - A connection has at most one command in flight (`in_flight`), so
//    pipelined commands on one connection execute and respond strictly in
//    order. A command that completes inline — every non-query command, and
//    queries answered from the cache or refused at admission — is written
//    out by the IO thread, which then dispatches the next line.
//  - A query that computes completes on a service worker: the completion
//    appends the reply to the connection's write buffer and posts the
//    connection through the flush queue + eventfd; the IO thread writes it
//    out (arming EPOLLOUT for whatever the kernel buffer refuses) and
//    dispatches that connection's next line.
//  - Non-query commands run on the IO thread, so every other connection
//    waits for them. `graph load` parses its edge list and hot-swaps there:
//    ~9 ms at 20k nodes, ~100-150 ms at 1.09M edges.
//  - The IO thread never holds a connection's `mu` across Execute(): the
//    completion takes it, and may run inline on the IO thread itself.
//  - Stop() waits for the completions of commands already handed to the
//    query service, so none can touch the server or its eventfd after it
//    returns.
//
// Backpressure: when a connection's pending write buffer passes
// `read_pause_bytes` the server stops reading from it (a pipelining
// client that never drains responses stops being read); past
// `max_write_buffer_bytes` the connection is dropped. A single line
// larger than `max_line_bytes` gets an error line and the connection is
// closed — the buffer cannot be grown unboundedly by a client that never
// sends '\n'.

#ifndef HKPR_NET_SOCKET_SERVER_H_
#define HKPR_NET_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/command_processor.h"

namespace hkpr {

struct SocketServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after Start — how tests and benches avoid collisions).
  uint16_t port = 0;
  /// Listen address. Loopback by default; widen deliberately.
  std::string bind_address = "127.0.0.1";
  /// Longest accepted protocol line (bytes, excluding the newline).
  size_t max_line_bytes = 1 << 20;
  /// Reading from a connection pauses while its write buffer is above
  /// this, resumes below.
  size_t read_pause_bytes = 256 << 10;
  /// A connection whose write buffer exceeds this is dropped.
  size_t max_write_buffer_bytes = 8 << 20;
  /// accept() backlog.
  int listen_backlog = 128;
};

class SocketServer {
 public:
  /// `processor` must outlive the server.
  SocketServer(CommandProcessor& processor, SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the IO thread. Returns false (with the
  /// reason in error()) if the socket could not be set up.
  bool Start();

  /// Stops accepting, joins the IO thread, waits for the completions of
  /// queries still in flight (their replies are dropped), and closes every
  /// connection. Safe to call twice; the destructor calls it.
  void Stop();

  /// The bound port (resolves option port 0 to the real ephemeral port).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  /// Why Start() failed; empty on success.
  const std::string& error() const { return error_; }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const;
  /// Currently open connections.
  size_t connections_active() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex mu;
    std::string read_buf;             // bytes without a newline yet
    std::deque<std::string> pending;  // complete lines awaiting execution
    std::string write_buf;            // response bytes awaiting the kernel
    ClientSession session;    // IO thread only
    bool in_flight = false;   // a dispatched command has not completed yet
    bool want_close = false;  // close once pending + write_buf drain
    bool closed = false;      // fd closed; completions must drop it
    bool read_paused = false;
    bool epollout_armed = false;
  };

  void IoLoop();

  void AcceptPending();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Splits read_buf into complete lines and queues them on `pending`.
  void QueueLines(const std::shared_ptr<Connection>& conn);
  /// IO-thread-only: executes the connection's pending lines in order
  /// until one is left in flight or none remain. Returns true when it
  /// executed any.
  bool Dispatch(const std::shared_ptr<Connection>& conn);
  /// A dispatched command's completion, on whichever thread settles it:
  /// appends the reply and clears `in_flight`; off the IO thread it also
  /// posts the connection on the flush queue.
  void Complete(const std::shared_ptr<Connection>& conn,
                CommandResult result);
  /// IO-thread-only: writes write_buf to the socket, manages EPOLLOUT and
  /// read-pause state, closes drained want_close connections.
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void UpdateEpoll(Connection& conn, bool want_in, bool want_out);

  CommandProcessor& processor_;
  const SocketServerOptions options_;
  std::string error_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd off-IO-thread completions signal
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::thread io_thread_;

  // Live connections, keyed by fd. IO thread inserts/erases; in-flight
  // completions hold shared_ptrs of their own.
  mutable std::mutex conns_mu_;
  std::map<int, std::shared_ptr<Connection>> conns_;
  uint64_t accepted_ = 0;

  // Flush queue: connections whose off-IO-thread completion appended
  // output. Off-thread completions post, signal wake_fd_ and count
  // themselves out of `outstanding_` under flush_mu_, which is how Stop()
  // knows none is left.
  std::mutex flush_mu_;
  std::condition_variable drained_cv_;
  std::deque<std::shared_ptr<Connection>> flush_;
  // Dispatched commands whose completion has not run yet.
  std::atomic<size_t> outstanding_{0};
};

}  // namespace hkpr

#endif  // HKPR_NET_SOCKET_SERVER_H_
