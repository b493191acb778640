/// \file http_server.h
/// \brief `net::HttpServer` — the blocking HTTP/1.1 front of the summary
/// service (DESIGN.md §6): one listener thread accepting connections, a
/// fixed worker pool (reusing `util/thread_pool.h`) draining them, strict
/// `Content-Length` framing and keep-alive via `net/http.h`.
///
/// Threading model. `Start()` spawns the listener thread (a blocking
/// `accept` loop feeding a connection queue) and one dispatch thread that
/// owns a `ThreadPool` and issues a single
/// `ParallelFor(num_workers, connection-drain-loop)`: each of the
/// `num_workers` indices is a long-running drain loop, so the pool's
/// dynamic index hand-out degenerates into exactly one loop per worker —
/// the same pool primitive the batch engine uses, no second threading
/// abstraction. A worker owns one connection at a time and serves its
/// keep-alive request sequence to completion (bounded by
/// `Options::idle_timeout_ms` between requests), so a request never
/// migrates between workers mid-parse.
///
/// Robustness guarantees (property-tested in tests/net/):
///  - malformed, truncated, or oversized inputs are answered with the
///    parser's 4xx/5xx status and the connection closed — never a crash;
///  - `Stop()` is prompt: it shuts down the listener *and* every open
///    connection socket, so no worker stays blocked in `recv`;
///  - responses always carry `Content-Length` and an explicit
///    `Connection` header, so clients never need read-until-close.

#ifndef XSUM_NET_HTTP_SERVER_H_
#define XSUM_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>

#include "net/http.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace xsum::net {

/// Internal header the server injects before invoking the handler: how
/// long the connection waited for a worker, in milliseconds. Handlers
/// turn it into the trace's "queue.wait" span. Never sent by clients
/// (the server overwrites any inbound value).
inline constexpr char kQueueWaitHeader[] = "x-xsum-queue-ms";

/// \brief A minimal multi-threaded HTTP/1.1 server.
class HttpServer {
 public:
  /// Application callback: one parsed request in, one response out. Runs
  /// on a server worker thread; must be thread-safe across workers.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// Listen address. Loopback by default — the shard deployments this
    /// PR targets are co-located; bind 0.0.0.0 explicitly for remote
    /// shards.
    std::string host = "127.0.0.1";
    /// Listen port; 0 picks an ephemeral port (read it back via
    /// `port()`), which is what the tests and in-process benches use.
    uint16_t port = 0;
    /// Concurrent connection-serving workers.
    size_t num_workers = 4;
    /// Per-connection parse budgets (see `HttpLimits`).
    HttpLimits limits;
    /// `listen(2)` backlog.
    int backlog = 64;
    /// Read timeout between bytes of a connection; an idle keep-alive
    /// connection is closed after this long.
    int idle_timeout_ms = 5000;
    /// Admission control: accepted connections waiting for a worker
    /// beyond this are *shed* — answered `503` + `Retry-After` and
    /// closed — instead of queueing unboundedly. 0 = unbounded (the
    /// pre-admission-control behaviour; in-process test servers).
    size_t max_pending = 0;
    /// Deadline-aware shedding: a connection that waited longer than this
    /// in the queue is shed when a worker finally picks it up — its
    /// client has likely timed out already, and serving it would spend a
    /// worker on a dead request while fresh ones queue behind it.
    /// 0 = never shed on queue delay.
    int queue_budget_ms = 0;
    /// Observability registry for per-request timing (queue wait and
    /// handler wall time histograms, request/shed counters). Must
    /// outlive the server. nullptr = a registry the server owns.
    obs::Registry* metrics = nullptr;
  };

  /// \p handler must outlive the server's running span.
  explicit HttpServer(Handler handler);
  HttpServer(Handler handler, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the listener + worker threads. Errors
  /// (address in use, no permission) come back as IOError.
  Status Start();

  /// Stops accepting, unblocks every worker, joins all threads, and
  /// closes remaining sockets. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 to the kernel-assigned one); valid
  /// after a successful `Start`.
  uint16_t port() const { return port_; }

  /// Total connections accepted / requests answered (including error
  /// responses), for tests and dashboards. Requests answered is the
  /// registry's `http_requests` counter.
  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t requests_served() const { return requests_served_->Value(); }
  /// Connections shed by admission control (queue overflow or queue-delay
  /// budget), each answered `503` before the close: the registry's
  /// `http_shed` counter, counted before the 503 leaves.
  uint64_t requests_shed() const { return requests_shed_->Value(); }
  /// Connections currently waiting for a worker.
  size_t queue_depth() const;

 private:
  /// One accepted connection waiting for a worker, stamped at accept time
  /// so the queue-delay budget can be enforced at pickup.
  struct PendingConn {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued;
  };

  void AcceptLoop();
  void WorkerLoop();
  /// \p queue_wait_ms is how long the connection sat in the pending
  /// queue; it is stamped onto the first request as `kQueueWaitHeader`.
  void ServeConnection(int fd, double queue_wait_ms);
  /// Answers 503 + `Retry-After` on \p fd and closes it.
  void Shed(int fd);

  Handler handler_;
  Options options_;

  /// The registry every server counter lives in: `Options::metrics`, or
  /// `own_metrics_` when none was given. Handles are cached once.
  obs::Registry own_metrics_;
  obs::Registry* metrics_ =
      options_.metrics != nullptr ? options_.metrics : &own_metrics_;
  obs::Histogram* queue_wait_hist_ =
      metrics_->GetHistogram("http_queue_wait_ms");
  obs::Histogram* handler_hist_ = metrics_->GetHistogram("http_handler_ms");
  obs::Counter* requests_served_ = metrics_->GetCounter("http_requests");
  obs::Counter* requests_shed_ = metrics_->GetCounter("http_shed");

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread listener_;
  std::thread dispatcher_;

  /// Accept-path lock order (DESIGN.md §9.3): the pending queue is
  /// handed off before the serving socket is tracked, so queue_mutex_
  /// precedes open_mutex_ whenever both are ever held.
  mutable sync::Mutex queue_mutex_ XSUM_ACQUIRED_BEFORE(open_mutex_);
  std::condition_variable queue_cv_;
  std::deque<PendingConn> pending_ XSUM_GUARDED_BY(queue_mutex_);

  sync::Mutex open_mutex_;
  std::unordered_set<int> open_fds_ XSUM_GUARDED_BY(open_mutex_);

  std::atomic<uint64_t> connections_accepted_{0};
};

}  // namespace xsum::net

#endif  // XSUM_NET_HTTP_SERVER_H_
