#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace hkpr {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The server whose IO loop runs on this thread, if any: a completion that
/// finds its own server here ran inline, inside Dispatch().
thread_local const SocketServer* tls_io_server = nullptr;

}  // namespace

SocketServer::SocketServer(CommandProcessor& processor,
                           SocketServerOptions options)
    : processor_(processor), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start() {
  if (running_.load()) return true;
  error_.clear();

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad bind address \"" + options_.bind_address + "\"";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error_ = std::string("bind: ") + strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0 ||
      !SetNonBlocking(listen_fd_)) {
    error_ = std::string("listen: ") + strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    error_ = std::string("epoll/eventfd: ") + strerror(errno);
    Stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  return true;
}

void SocketServer::Stop() {
  if (running_.exchange(false)) {
    // Wake the IO thread so it observes !running_.
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
    if (io_thread_.joinable()) io_thread_.join();
  }
  {
    // Queries already handed to the service complete on its workers; wait
    // for them, so no completion touches this server after Stop returns.
    // Their replies are dropped with the connections below.
    std::unique_lock<std::mutex> lock(flush_mu_);
    drained_cv_.wait(lock, [this] { return outstanding_.load() == 0; });
    flush_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      if (!conn->closed) {
        conn->closed = true;
        close(conn->fd);
      }
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

uint64_t SocketServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return accepted_;
}

size_t SocketServer::connections_active() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void SocketServer::IoLoop() {
  tls_io_server = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, 200);
    if (!running_.load()) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        // Flush every connection a worker completed a command on, then
        // dispatch its next pipelined line.
        std::deque<std::shared_ptr<Connection>> to_flush;
        {
          std::lock_guard<std::mutex> lock(flush_mu_);
          to_flush.swap(flush_);
        }
        for (const auto& conn : to_flush) {
          FlushWrites(conn);
          if (Dispatch(conn)) FlushWrites(conn);
        }
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier this batch
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (events[i].events & EPOLLOUT) FlushWrites(conn);
    }
  }
  tls_io_server = nullptr;
}

void SocketServer::AcceptPending() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN: drained
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->session = processor_.NewSession();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_[fd] = conn;
      ++accepted_;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketServer::UpdateEpoll(Connection& conn, bool want_in,
                               bool want_out) {
  epoll_event ev{};
  ev.events = (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.read_paused = !want_in;
  conn.epollout_armed = want_out;
}

void SocketServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16 << 10];
  bool eof = false;
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->read_buf.append(buf, static_cast<size_t>(n));
      // A line that will never end: reject before the buffer grows
      // without bound.
      if (conn->read_buf.size() > options_.max_line_bytes &&
          conn->read_buf.find('\n') == std::string::npos) {
        conn->write_buf += "err line too long\n";
        conn->want_close = true;
        conn->read_buf.clear();
        conn->pending.clear();
        break;
      }
      continue;
    }
    if (n == 0) {
      eof = true;
    }
    break;  // EAGAIN, error, or EOF
  }
  QueueLines(conn);
  Dispatch(conn);
  if (eof) {
    // Let already-queued commands finish and their responses flush, then
    // close. With nothing in flight this closes immediately.
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->want_close = true;
      drained = conn->pending.empty() && !conn->in_flight &&
                conn->write_buf.empty();
    }
    if (drained) {
      CloseConnection(conn);
      return;
    }
  }
  FlushWrites(conn);
}

void SocketServer::QueueLines(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  size_t start = 0;
  while (true) {
    const size_t newline = conn->read_buf.find('\n', start);
    if (newline == std::string::npos) break;
    size_t end = newline;
    if (end > start && conn->read_buf[end - 1] == '\r') --end;
    conn->pending.emplace_back(conn->read_buf, start, end - start);
    start = newline + 1;
  }
  if (start > 0) conn->read_buf.erase(0, start);
}

bool SocketServer::Dispatch(const std::shared_ptr<Connection>& conn) {
  bool dispatched = false;
  while (true) {
    std::string line;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->in_flight || conn->closed || conn->pending.empty()) break;
      line = std::move(conn->pending.front());
      conn->pending.pop_front();
      conn->in_flight = true;
    }
    dispatched = true;
    outstanding_.fetch_add(1);
    // No lock held: the completion takes conn->mu, and runs right here for
    // every command that completes inline.
    processor_.Execute(conn->session, line,
                       [this, conn](CommandResult result) {
                         Complete(conn, std::move(result));
                       });
  }
  return dispatched;
}

void SocketServer::Complete(const std::shared_ptr<Connection>& conn,
                            CommandResult result) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->write_buf += result.output;
    conn->in_flight = false;
    if (result.quit) {
      conn->want_close = true;
      conn->pending.clear();
    }
  }
  if (tls_io_server == this) {
    // Inline: the dispatching IO thread flushes and moves on by itself.
    outstanding_.fetch_sub(1);
    return;
  }
  // Nothing after this block may touch the server: once outstanding_
  // reaches zero, a waiting Stop() may return and the server be freed.
  std::lock_guard<std::mutex> lock(flush_mu_);
  flush_.push_back(conn);
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  if (outstanding_.fetch_sub(1) == 1) drained_cv_.notify_all();
}

void SocketServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  bool should_close = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    while (!conn->write_buf.empty()) {
      const ssize_t n =
          write(conn->fd, conn->write_buf.data(), conn->write_buf.size());
      if (n > 0) {
        conn->write_buf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer went away mid-write.
      should_close = true;
      break;
    }
    if (!should_close) {
      if (conn->write_buf.size() > options_.max_write_buffer_bytes) {
        // The client is not draining; cut it loose rather than buffer
        // without bound.
        should_close = true;
      } else {
        const bool want_out = !conn->write_buf.empty();
        const bool want_in =
            !conn->want_close &&
            conn->write_buf.size() <= options_.read_pause_bytes;
        if (want_in == conn->read_paused ||
            want_out != conn->epollout_armed) {
          UpdateEpoll(*conn, want_in, want_out);
        }
        if (conn->want_close && conn->write_buf.empty() &&
            conn->pending.empty() && !conn->in_flight) {
          should_close = true;
        }
      }
    }
  }
  if (should_close) CloseConnection(conn);
}

void SocketServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->fd);
}

}  // namespace hkpr
