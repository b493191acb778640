/// End-to-end tests of `net::HttpServer` + `net::HttpClient` over real
/// loopback sockets: round trips, keep-alive reuse, concurrent clients,
/// garbage-on-the-wire robustness, parse-limit enforcement, and prompt
/// shutdown with connections open.

#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "net/json.h"
#include "obs/metrics.h"

namespace xsum::net {
namespace {

/// Echo handler: reflects method, target, and body.
HttpResponse EchoHandler(const HttpRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("method", request.method);
  json.Set("target", request.target);
  json.Set("body", request.body);
  HttpResponse response;
  response.body = json.Dump();
  return response;
}

/// Raw socket helper for malformed-input tests (the client refuses to
/// send these).
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  /// Reads until the peer closes or \p max_bytes arrive.
  std::string ReadAll(size_t max_bytes = 1 << 16) {
    std::string out;
    char chunk[1024];
    while (out.size() < max_bytes) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

HttpServer::Options TestOptions() {
  HttpServer::Options options;
  options.port = 0;  // ephemeral
  options.num_workers = 3;
  options.idle_timeout_ms = 2000;
  return options;
}

TEST(HttpServerTest, GetAndPostRoundTrip) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  const auto get = client.Get("/stats");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->status, 200);
  EXPECT_EQ(get->body,
            R"({"method":"GET","target":"/stats","body":""})");

  const auto post = client.Post("/summarize", "{\"user\":7}");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->body,
            R"({"method":"POST","target":"/summarize","body":"{\"user\":7}"})");
  server.Stop();
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    const auto response = client.Post("/r", std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_NE(response->body.find("\"body\":\"" + std::to_string(i) + "\""),
              std::string::npos);
  }
  // All 20 requests rode a single accepted connection.
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 20u);
  server.Stop();
}

TEST(HttpServerTest, ConcurrentClientsAllGetTheirOwnAnswers) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  constexpr size_t kClients = 6;
  constexpr int kPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        const std::string body =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        const auto response = client.Post("/echo", body);
        if (!response.ok() ||
            response->body.find("\"body\":\"" + body + "\"") ==
                std::string::npos) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), kClients * kPerClient);
  server.Stop();
}

TEST(HttpServerTest, GarbageGets400AndConnectionCloses) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());
  raw.Send("THIS IS NOT HTTP\r\n\r\n");
  const std::string response = raw.ReadAll();
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, FramingErrorsCountInHttpRequests) {
  // requests_served() and the registry's http_requests are one counter:
  // a framing-error answer counts in both, exactly like a handled one.
  obs::Registry registry;
  HttpServer::Options options = TestOptions();
  options.metrics = &registry;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/ok").ok());
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());
  raw.Send("THIS IS NOT HTTP\r\n\r\n");
  EXPECT_NE(raw.ReadAll().find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(registry.Snapshot().counters.at("http_requests"),
            server.requests_served());
  server.Stop();
}

TEST(HttpServerTest, HeaderFloodGets431) {
  HttpServer::Options options = TestOptions();
  options.limits.max_header_bytes = 512;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());
  std::string flood = "GET / HTTP/1.1\r\nX-Pad: ";
  flood.append(2048, 'a');
  raw.Send(flood);
  const std::string response = raw.ReadAll();
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServer::Options options = TestOptions();
  options.limits.max_body_bytes = 64;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());
  raw.Send("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  const std::string response = raw.ReadAll();
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAllAnswered) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());
  raw.Send(
      "GET /one HTTP/1.1\r\n\r\n"
      "GET /two HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string response = raw.ReadAll();
  EXPECT_NE(response.find("/one"), std::string::npos);
  EXPECT_NE(response.find("/two"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopIsPromptWithOpenConnections) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  // An idle keep-alive connection parked in a worker's recv.
  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/x").ok());
  const auto before = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  // Stop must not wait out the 2 s idle timeout.
  EXPECT_LT(elapsed.count(), 1000) << "Stop blocked on an idle connection";
}

TEST(HttpServerTest, StartFailsOnOccupiedPort) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpServer::Options clash = TestOptions();
  clash.port = server.port();
  HttpServer second(EchoHandler, clash);
  const Status status = second.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status;
  server.Stop();
}

TEST(HttpClientTest, ResolvesHostnamesNotOnlyLiterals) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  // The documented endpoint form is host:port, so DNS names must work.
  HttpClient client("localhost", server.port());
  const auto response = client.Get("/named");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->body.find("/named"), std::string::npos);
  server.Stop();
}

TEST(HttpClientTest, ConnectionRefusedIsIOErrorNotCrash) {
  // Ephemeral port that nothing listens on: bind+close to find one.
  HttpServer probe(EchoHandler, TestOptions());
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  HttpClient::Options options;
  options.timeout_ms = 500;
  HttpClient client("127.0.0.1", dead_port, options);
  const auto response = client.Get("/healthz");
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsIOError());
}

TEST(HttpServerTest, ByteDrippingPeerIsTimedOutNotHeldForever) {
  HttpServer::Options options = TestOptions();
  options.num_workers = 1;
  options.idle_timeout_ms = 300;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  // A peer that sends half a request line and then goes quiet must not
  // pin the (only) worker past the socket timeout.
  const auto before = std::chrono::steady_clock::now();
  {
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.Send("GET /slow HT");
    const std::string response = raw.ReadAll();  // blocks until the close
    EXPECT_EQ(response.find("200"), std::string::npos) << response;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_LT(elapsed.count(), 3000) << "read timeout did not fire";

  // The worker slot is free again: a well-behaved client is served.
  HttpClient client("127.0.0.1", server.port());
  const auto response = client.Get("/after");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  server.Stop();
}

TEST(HttpServerTest, MidBodyDisconnectReclaimsTheWorkerSlot) {
  HttpServer::Options options = TestOptions();
  options.num_workers = 1;
  options.idle_timeout_ms = 500;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  // Declare a 1000-byte body, deliver 10, hang up. The worker must
  // abandon the parse on the peer close, not wait for the rest.
  {
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.Send("POST /half HTTP/1.1\r\nContent-Length: 1000\r\n\r\nabcdefghij");
  }  // destructor closes the socket mid-body

  HttpClient client("127.0.0.1", server.port());
  const auto response = client.Get("/next");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(server.requests_served(), 1u) << "the half request is not served";
  server.Stop();
}

/// Handler used by the shedding tests: /block parks until released.
struct GatedHandler {
  std::atomic<bool>* entered;
  std::atomic<bool>* release;

  HttpResponse operator()(const HttpRequest& request) const {
    if (request.target == "/block") {
      entered->store(true);
      while (!release->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return EchoHandler(request);
  }
};

TEST(HttpServerTest, QueueOverflowIsShedWith503AndRetryAfter) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  HttpServer::Options options = TestOptions();
  options.num_workers = 1;
  options.max_pending = 1;
  HttpServer server(GatedHandler{&entered, &release}, options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the only worker...
  std::thread blocked([&] {
    HttpClient client("127.0.0.1", server.port());
    const auto response = client.Get("/block");
    EXPECT_TRUE(response.ok()) << response.status();
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...fill the one queue slot...
  RawConnection queued(server.port());
  ASSERT_TRUE(queued.connected());
  queued.Send("GET /queued HTTP/1.1\r\nConnection: close\r\n\r\n");
  while (server.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...and the next arrival is shed at the door, without being read.
  RawConnection shed(server.port());
  ASSERT_TRUE(shed.connected());
  shed.Send("GET /shed HTTP/1.1\r\n\r\n");
  const std::string response = shed.ReadAll();
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(response.find("Retry-After: 1"), std::string::npos) << response;
  EXPECT_GE(server.requests_shed(), 1u);

  release.store(true);
  blocked.join();
  // The queued connection was legitimate work and is still answered.
  EXPECT_NE(queued.ReadAll().find("/queued"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StaleQueuedConnectionsAreShedAtPickup) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  HttpServer::Options options = TestOptions();
  options.num_workers = 1;
  options.queue_budget_ms = 50;
  HttpServer server(GatedHandler{&entered, &release}, options);
  ASSERT_TRUE(server.Start().ok());

  std::thread blocked([&] {
    HttpClient client("127.0.0.1", server.port());
    const auto response = client.Get("/block");
    EXPECT_TRUE(response.ok()) << response.status();
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RawConnection stale(server.port());
  ASSERT_TRUE(stale.connected());
  stale.Send("GET /stale HTTP/1.1\r\n\r\n");
  while (server.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the queued connection age far past its 50 ms budget, then free
  // the worker: pickup must shed it instead of serving a dead deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  release.store(true);
  blocked.join();
  const std::string response = stale.ReadAll();
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_EQ(response.find("/stale"), std::string::npos)
      << "stale connection was served, not shed";
  EXPECT_GE(server.requests_shed(), 1u);
  server.Stop();
}

TEST(HttpClientTest, RetriesRefusedConnectsUntilTheListenerIsBack) {
  // Find a free port, leave nothing listening on it.
  HttpServer probe(EchoHandler, TestOptions());
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t port = probe.port();
  probe.Stop();

  // Bring a server up on that port only after a delay: the first
  // connect attempts are refused, a later backed-off retry lands.
  HttpServer::Options revived_options = TestOptions();
  revived_options.port = port;
  HttpServer revived(EchoHandler, revived_options);
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_TRUE(revived.Start().ok());
  });

  HttpClient::Options options;
  options.timeout_ms = 2000;
  options.connect_retries = 6;
  options.connect_backoff_ms = 40;
  HttpClient client("127.0.0.1", port, options);
  const auto response = client.Get("/revived");
  restarter.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->body.find("/revived"), std::string::npos);
  revived.Stop();
}

TEST(HttpClientTest, ZeroConnectRetriesFailsImmediately) {
  HttpServer probe(EchoHandler, TestOptions());
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  HttpClient::Options options;
  options.timeout_ms = 2000;
  options.connect_retries = 0;
  HttpClient client("127.0.0.1", dead_port, options);
  const auto before = std::chrono::steady_clock::now();
  const auto response = client.Get("/gone");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsIOError());
  // A loopback refusal is instant; no-retry must not sit in backoff.
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(HttpClientTest, SurvivesServerSideConnectionReap) {
  HttpServer server(EchoHandler, TestOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/a").ok());
  // Bounce the server on the same port: the pooled connection is dead.
  const uint16_t port = server.port();
  server.Stop();
  HttpServer::Options options = TestOptions();
  options.port = port;
  HttpServer revived(EchoHandler, options);
  ASSERT_TRUE(revived.Start().ok());
  // The client's stale-connection retry makes this transparent.
  const auto response = client.Get("/b");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->body.find("/b"), std::string::npos);
  revived.Stop();
}

}  // namespace
}  // namespace xsum::net
