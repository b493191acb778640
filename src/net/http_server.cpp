#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "net/socket_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace xsum::net {

using internal::SendAll;
using internal::SetNoDelay;
using internal::SetSocketTimeouts;

HttpServer::HttpServer(Handler handler)
    : HttpServer(std::move(handler), Options()) {}

HttpServer::HttpServer(Handler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("invalid listen address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + detail);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen: " + detail);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  stopping_.store(false);
  running_.store(true);
  listener_ = std::thread([this] { AcceptLoop(); });
  dispatcher_ = std::thread([this] {
    // The worker pool: one ParallelFor whose indices are long-running
    // connection-drain loops. Each pool worker claims exactly one index
    // (a loop runs until Stop), so this reuses the batch engine's pool
    // primitive as a fixed server worker pool.
    ThreadPool pool(options_.num_workers);
    pool.ParallelFor(pool.num_workers(),
                     [this](size_t /*worker*/, size_t /*index*/) {
                       WorkerLoop();
                     });
  });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  {
    // The store must happen under queue_mutex_: a worker that has just
    // evaluated the wait predicate (stopping_ false, queue empty) but
    // not yet blocked would otherwise miss both the flag and the
    // notify_all below and sleep forever — the classic lost wakeup
    // (ThreadPool's shutdown does the same).
    sync::MutexLock lock(queue_mutex_);
    stopping_.store(true);
  }
  // Unblock accept(2).
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  // Unblock every worker sitting in recv(2) on an open connection.
  {
    sync::MutexLock lock(open_mutex_);
    for (int fd : open_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  queue_cv_.notify_all();
  if (listener_.joinable()) listener_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connections still queued but never picked up.
  sync::MutexLock lock(queue_mutex_);
  for (const PendingConn& conn : pending_) ::close(conn.fd);
  pending_.clear();
}

size_t HttpServer::queue_depth() const {
  sync::MutexLock lock(queue_mutex_);
  return pending_.size();
}

void HttpServer::Shed(int fd) {
  // Counted before the 503 leaves, so a client that reads it always
  // finds itself in requests_shed().
  requests_shed_->Add();
  HttpResponse response;
  response.status = 503;
  response.body = "{\"error\":\"server overloaded, retry later\"}";
  response.extra_headers.emplace_back("Retry-After", "1");
  SendAll(fd, SerializeResponse(response, /*keep_alive=*/false));
  ::close(fd);
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource exhaustion (a connection burst ate the fd
        // table): back off and keep listening — exiting here would
        // silently kill the listener for the life of the process.
        XSUM_LOG_WARN << "http accept backing off: "
                      << std::strerror(errno);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      XSUM_LOG_ERROR << "http accept failed: " << std::strerror(errno);
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    SetNoDelay(fd);
    SetSocketTimeouts(fd, options_.idle_timeout_ms, /*send_too=*/false);
    bool admit = true;
    {
      sync::MutexLock lock(queue_mutex_);
      if (options_.max_pending > 0 &&
          pending_.size() >= options_.max_pending) {
        // Queue overflow: every worker is busy and the waiting line is
        // full. Shedding here (503 + Retry-After, below, outside the
        // lock) keeps the queue delay of admitted connections bounded
        // instead of letting overload translate into latency.
        admit = false;
      } else {
        pending_.push_back(
            PendingConn{fd, std::chrono::steady_clock::now()});
      }
    }
    if (admit) {
      queue_cv_.notify_one();
    } else {
      Shed(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    PendingConn conn;
    {
      sync::MutexLock lock(queue_mutex_);
      while (!stopping_.load() && pending_.empty()) lock.Wait(queue_cv_);
      if (pending_.empty()) return;  // stopping and drained
      conn = pending_.front();
      pending_.pop_front();
    }
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - conn.enqueued)
            .count();
    queue_wait_hist_->RecordMs(waited_ms);
    if (options_.queue_budget_ms > 0 && !stopping_.load() &&
        waited_ms > static_cast<double>(options_.queue_budget_ms)) {
      // Stale in the queue past the deadline budget: the client has
      // probably given up; answering 503 now frees this worker for a
      // connection that can still be served in time.
      Shed(conn.fd);
      continue;
    }
    const int fd = conn.fd;
    {
      sync::MutexLock lock(open_mutex_);
      open_fds_.insert(fd);
    }
    ServeConnection(fd, waited_ms);
    {
      sync::MutexLock lock(open_mutex_);
      open_fds_.erase(fd);
    }
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd, double queue_wait_ms) {
  HttpRequestParser parser(options_.limits);
  char chunk[4096];
  bool first_request = true;
  while (!stopping_.load()) {
    // Drain whatever is already buffered (pipelined requests) before
    // touching the socket again.
    HttpRequestParser::State state = parser.Consume(std::string_view());
    while (state == HttpRequestParser::State::kNeedMore) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // peer closed, idle timeout, or Stop()
      state = parser.Consume(std::string_view(chunk, static_cast<size_t>(n)));
    }
    if (state == HttpRequestParser::State::kError) {
      HttpResponse error;
      error.status = parser.error_status();
      error.body = "{\"error\":\"" + parser.error_detail() + "\"}";
      requests_served_->Add();
      SendAll(fd, SerializeResponse(error, /*keep_alive=*/false));
      return;  // framing is unrecoverable; drop the connection
    }
    HttpRequest& request = parser.mutable_request();
    // Stamp the connection's queue wait onto its first request so the
    // handler can record a "queue.wait" trace span. Any inbound copy of
    // the internal header is dropped first — it is server-owned.
    std::erase_if(request.headers, [](const auto& h) {
      return h.first == kQueueWaitHeader;
    });
    if (first_request) {
      first_request = false;
      char wait[32];
      std::snprintf(wait, sizeof(wait), "%.3f", queue_wait_ms);
      request.headers.emplace_back(kQueueWaitHeader, wait);
    }
    const bool keep_alive = request.keep_alive;
    const auto handler_start = std::chrono::steady_clock::now();
    HttpResponse response = handler_(request);
    handler_hist_->RecordMs(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                handler_start)
                                .count());
    requests_served_->Add();
    if (!SendAll(fd, SerializeResponse(response, keep_alive))) return;
    if (!keep_alive) return;
    parser.Reset();
  }
}

}  // namespace xsum::net
