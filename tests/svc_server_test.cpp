// In-process `lvtool serve` contract: hello/session handshake, concurrent
// mixed traffic (valid, malformed, oversized) answered without a dropped
// connection, per-session caching, protocol-state violations, graceful
// shutdown with drain. The server runs on a real unix-domain socket in a
// background thread of this test process, so tsan/asan presets cover it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "util/failpoint.hpp"

namespace svc = lv::svc;
namespace chk = lv::check;

namespace {

const char* kAndNetlist =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "net y\n"
    "gate g0 AND2 y a b\n"
    "output y\n";

// One test-scoped server on a private unix socket. The serving thread is
// joined in the destructor, after a client-initiated shutdown.
class TestServer {
 public:
  explicit TestServer(std::size_t queue_capacity = 64,
                      std::uint32_t max_payload = svc::kDefaultMaxPayload) {
    options_.endpoint.path =
        "/tmp/lvsim_svc_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(instance_counter_.fetch_add(1)) + ".sock";
    options_.queue_capacity = queue_capacity;
    options_.max_payload = max_payload;
    thread_ = std::thread([this] { exit_code_ = svc::serve(options_); });
    wait_ready();
  }

  ~TestServer() {
    if (thread_.joinable()) {
      shutdown();
      thread_.join();
    }
    EXPECT_EQ(exit_code_, 0);
  }

  const svc::Endpoint& endpoint() const { return options_.endpoint; }

  void shutdown() {
    try {
      Conn c{endpoint()};
      c.hello();
      const svc::Frame ok =
          c.round_trip(svc::FrameKind::shutdown, 0, "");
      EXPECT_EQ(ok.kind, svc::FrameKind::shutdown_ok);
    } catch (const chk::InputError&) {
      // Already shut down by the test body.
    }
  }

  // A raw protocol connection (deliberately lower-level than
  // svc::run_client so tests can send malformed traffic).
  class Conn {
   public:
    explicit Conn(const svc::Endpoint& ep) : fd_(svc::connect_to(ep)) {}
    ~Conn() { ::close(fd_); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd() const { return fd_; }

    void send_raw(std::string_view bytes) {
      ASSERT_TRUE(svc::send_all(fd_, bytes));
    }

    svc::FrameReader::Result read() { return reader_.next(fd_); }

    svc::Frame round_trip(svc::FrameKind kind, std::uint64_t id,
                          std::string_view payload) {
      if (!svc::send_all(fd_, svc::encode_frame(kind, id, payload)))
        throw chk::InputError(chk::codes::svc_io, "send failed");
      const svc::FrameReader::Result r = reader_.next(fd_);
      if (r.kind != svc::FrameReader::Result::Kind::frame)
        throw chk::InputError(chk::codes::svc_io, "no reply frame");
      return r.frame;
    }

    std::string hello() {
      const svc::Frame ok =
          round_trip(svc::FrameKind::hello, 0, "test client");
      EXPECT_EQ(ok.kind, svc::FrameKind::hello_ok);
      return ok.payload;
    }

    svc::Response request(const svc::Request& req, std::uint64_t id = 1) {
      const svc::Frame reply = round_trip(svc::FrameKind::request, id,
                                          svc::encode_request(req));
      EXPECT_EQ(reply.kind, svc::FrameKind::response);
      EXPECT_EQ(reply.request_id, id);
      return svc::decode_response(reply.payload);
    }

   private:
    int fd_;
    svc::FrameReader reader_;
  };

 private:
  void wait_ready() {
    // The listener exists once connect succeeds; the hello round-trip
    // proves the accept loop is live.
    for (int attempt = 0; attempt < 200; ++attempt) {
      try {
        Conn c{options_.endpoint};
        c.hello();
        return;
      } catch (const chk::InputError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    FAIL() << "server never became ready on " << options_.endpoint.to_string();
  }

  static std::atomic<int> instance_counter_;
  svc::ServerOptions options_;
  std::thread thread_;
  int exit_code_ = -1;
};

std::atomic<int> TestServer::instance_counter_{0};

svc::Request stats_request(const std::string& netlist_text) {
  svc::Request req;
  req.op = "stats";
  req.params.positional = {"inline.lvnet"};
  req.inputs["netlist"] = netlist_text;
  return req;
}

}  // namespace

TEST(SvcServer, HelloBannerAndBasicRequest) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  const std::string banner = conn.hello();
  EXPECT_NE(banner.find("lvrpc/1"), std::string::npos);
  EXPECT_NE(banner.find("session"), std::string::npos);

  const svc::Response r = conn.request(stats_request(kAndNetlist));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("gates: 1"), std::string::npos);
}

TEST(SvcServer, RequestBeforeHelloIsStateError) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.send_raw(svc::encode_frame(
      svc::FrameKind::request, 1,
      svc::encode_request(stats_request(kAndNetlist))));
  const svc::FrameReader::Result r = conn.read();
  ASSERT_EQ(r.kind, svc::FrameReader::Result::Kind::frame);
  EXPECT_EQ(r.frame.kind, svc::FrameKind::error);
  EXPECT_NE(r.frame.payload.find(chk::codes::svc_state), std::string::npos);
}

TEST(SvcServer, GarbageBytesGetErrorFrameNotCrash) {
  TestServer server;
  {
    TestServer::Conn conn{server.endpoint()};
    conn.hello();
    conn.send_raw("this is not an lvrpc frame at all...");
    const svc::FrameReader::Result r = conn.read();
    ASSERT_EQ(r.kind, svc::FrameReader::Result::Kind::frame);
    EXPECT_EQ(r.frame.kind, svc::FrameKind::error);
    EXPECT_NE(r.frame.payload.find(chk::codes::svc_frame), std::string::npos);
  }
  // The server must still serve new connections afterwards.
  TestServer::Conn conn2{server.endpoint()};
  conn2.hello();
  EXPECT_EQ(conn2.request(stats_request(kAndNetlist)).exit_code, 0);
}

TEST(SvcServer, OversizedFrameRejectedCleanly) {
  TestServer server{64, /*max_payload=*/4096};
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  // Header only: the length field exceeds the cap, so the violation is
  // detected before any payload bytes are sent.
  std::string header = svc::encode_frame(svc::FrameKind::request, 1, "");
  header[12] = static_cast<char>(0xff);
  header[13] = static_cast<char>(0xff);
  header[14] = 0x00;
  header[15] = 0x00;
  conn.send_raw(header);
  const svc::FrameReader::Result r = conn.read();
  ASSERT_EQ(r.kind, svc::FrameReader::Result::Kind::frame);
  EXPECT_EQ(r.frame.kind, svc::FrameKind::error);
  EXPECT_NE(r.frame.payload.find(chk::codes::svc_oversize), std::string::npos);
}

TEST(SvcServer, MalformedRequestPayloadIsExitTwoResponse) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  const svc::Frame reply =
      conn.round_trip(svc::FrameKind::request, 9, "not a request payload");
  ASSERT_EQ(reply.kind, svc::FrameKind::response);
  EXPECT_EQ(reply.request_id, 9u);
  const svc::Response r = svc::decode_response(reply.payload);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find(chk::codes::svc_payload), std::string::npos);
}

TEST(SvcServer, UnknownOpIsExitTwoResponse) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  svc::Request req;
  req.op = "frobnicate";
  const svc::Response r = conn.request(req);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find(chk::codes::svc_op), std::string::npos);
}

TEST(SvcServer, UndeclaredAndProcessOptionsAreCodedOptionErrors) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  // An option the op does not declare, and a process option that only
  // `lvtool serve` itself takes: each is the caller's input error.
  for (const char* key : {"--bogus", "--threads", "--cache-dir"}) {
    svc::Request req = stats_request(kAndNetlist);
    req.params.options[key] = "2";
    const svc::Response r = conn.request(req);
    EXPECT_EQ(r.exit_code, 2) << key;
    EXPECT_NE(r.err.find(chk::codes::cli_option), std::string::npos)
        << key << ": " << r.err;
  }
  svc::Request missing = stats_request(kAndNetlist);
  missing.params.positional.clear();
  const svc::Response m = conn.request(missing, 2);
  EXPECT_EQ(m.exit_code, 2);
  EXPECT_NE(m.err.find(chk::codes::cli_option), std::string::npos) << m.err;
  // The same connection then serves a valid request.
  const svc::Response ok = conn.request(stats_request(kAndNetlist), 3);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("gates: 1"), std::string::npos);
}

TEST(SvcServer, SessionCacheServesRepeatRequests) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  const svc::Response first = conn.request(stats_request(kAndNetlist), 1);
  const svc::Response second = conn.request(stats_request(kAndNetlist), 2);
  EXPECT_EQ(first.out, second.out);

  // The server-side registry is always on; ask it for the report and
  // check the cache saw a hit for the repeated inline netlist.
  svc::Request version;
  version.op = "version";
  version.params.options["--stats"] = "1";
  const svc::Response stats = conn.request(version, 3);
  EXPECT_EQ(stats.exit_code, 0);
  EXPECT_NE(stats.report_json.find("svc.cache_hits"), std::string::npos);
}

TEST(SvcServer, ConcurrentMixedTrafficAllAnswered) {
  TestServer server;
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> ok{0}, rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      TestServer::Conn conn{server.endpoint()};
      conn.hello();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
        if (i % 5 == 4) {
          // Malformed payload: must yield an exit-2 response, not a
          // dropped connection.
          const svc::Frame reply =
              conn.round_trip(svc::FrameKind::request, id, "garbage");
          ASSERT_EQ(reply.kind, svc::FrameKind::response);
          const svc::Response r = svc::decode_response(reply.payload);
          EXPECT_EQ(r.exit_code, 2);
          rejected.fetch_add(1);
        } else {
          const svc::Response r = conn.request(stats_request(kAndNetlist), id);
          EXPECT_EQ(r.exit_code, 0);
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kThreads * kRequestsPerThread * 4 / 5);
  EXPECT_EQ(rejected.load(), kThreads * kRequestsPerThread / 5);
}

TEST(SvcServer, ShutdownDrainsAndAnswersInitiator) {
  TestServer server;
  {
    TestServer::Conn conn{server.endpoint()};
    conn.hello();
    EXPECT_EQ(conn.request(stats_request(kAndNetlist)).exit_code, 0);
    const svc::Frame ok = conn.round_trip(svc::FrameKind::shutdown, 99, "");
    EXPECT_EQ(ok.kind, svc::FrameKind::shutdown_ok);
  }
  // ~TestServer verifies serve() returned 0; a second shutdown attempt
  // inside it maps to "connection refused" and is swallowed.
}

// A unix socket path with a live listener must NOT be stolen: listen_on
// probes with a connect, and an answering peer is a coded input error.
// The incumbent server keeps working (its socket file was never touched).
TEST(SvcServer, LiveSocketIsAddressInUseNotStolen) {
  TestServer server;
  try {
    const int fd = svc::listen_on(server.endpoint());
    ::close(fd);
    FAIL() << "listen_on bound over a live server";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.diag().code, chk::codes::svc_addr_in_use);
  }
  // The probe connection the second listener made (and abandoned) must
  // not have disturbed the incumbent: it still answers requests.
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  EXPECT_EQ(conn.request(stats_request(kAndNetlist)).exit_code, 0);
}

// A socket *file* without a listener behind it (a crashed server's
// leftover) probes as ECONNREFUSED and is reclaimed.
TEST(SvcServer, StaleSocketFileIsReclaimed) {
  svc::Endpoint ep;
  ep.path = "/tmp/lvsim_svc_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(ep.path.c_str());
  const int first = svc::listen_on(ep);
  ASSERT_GE(first, 0);
  // Closing the listener leaves the file behind — exactly the crashed-
  // server case (no unlink-on-exit ran).
  ::close(first);
  const int second = svc::listen_on(ep);
  EXPECT_GE(second, 0) << "stale socket file was not reclaimed";
  ::close(second);
  ::unlink(ep.path.c_str());
}

TEST(SvcServer, InjectedWorkerExceptionIsContainedAndServerSurvives) {
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();

  // Every evaluation of svc.worker throws inside the worker; the caller
  // must get one coded svc.internal response on a connection that stays
  // usable — never a dead worker or a dropped server.
  lv::failpoint::configure("svc.worker=error");
  svc::Request req;
  req.op = "version";
  const svc::Response failed = conn.request(req, 1);
  EXPECT_EQ(failed.exit_code, 1);
  EXPECT_NE(failed.err.find("[svc.internal]"), std::string::npos)
      << failed.err;

  lv::failpoint::reset();
  const svc::Response ok = conn.request(req, 2);
  EXPECT_EQ(ok.exit_code, 0) << "same worker pool must serve the next call";
  EXPECT_NE(ok.out.find("lvtool"), std::string::npos);
}

TEST(SvcServer, ClientReceiveTimeoutIsCodedAndRetryBudgetGivesUp) {
  // A listener that never accepts: connect succeeds via the backlog, the
  // hello goes out, and no byte ever comes back — exactly the hung-server
  // shape --timeout-ms exists for.
  svc::Endpoint ep;
  ep.path = "/tmp/lvsim_svc_timeout_test_" + std::to_string(::getpid()) +
            ".sock";
  const int listener = svc::listen_on(ep, 8);
  const char* argv_const[] = {"version"};
  char** argv = const_cast<char**>(argv_const);

  svc::ClientOptions options;
  options.endpoint = ep;
  options.timeout_ms = 50;
  options.backoff_ms = 1;
  try {
    svc::run_client(options, 1, argv, 0);
    FAIL() << "expected the receive deadline to expire";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), chk::codes::svc_timeout);
  }

  options.retries = 1;
  try {
    svc::run_client(options, 1, argv, 0);
    FAIL() << "expected the retry budget to run out";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), chk::codes::svc_retry_exhausted);
    EXPECT_NE(std::string{e.what()}.find(chk::codes::svc_timeout),
              std::string::npos)
        << "the give-up must name the last underlying error: " << e.what();
  }

  ::close(listener);
  ::unlink(ep.path.c_str());
}

TEST(SvcServer, TornSocketInjectionIsAbsorbedByReassembly) {
  // svc.sock_read=torn dribbles one byte per recv and sock_write=torn
  // splits every send: traffic must still round-trip byte-identically
  // (both server and client share these loops in this process).
  TestServer server;
  {
    TestServer::Conn conn{server.endpoint()};
    conn.hello();
    svc::Request req;
    req.op = "version";
    const svc::Response clean = conn.request(req, 1);

    lv::failpoint::configure(
        "svc.sock_write=torn@3,svc.sock_read=torn@4");
    const svc::Response torn = conn.request(req, 2);
    lv::failpoint::reset();
    EXPECT_EQ(torn.exit_code, clean.exit_code);
    EXPECT_EQ(torn.out, clean.out);
    EXPECT_EQ(torn.err, clean.err);
  }
}

TEST(SvcServer, FailedResponseWriteHangsUpInsteadOfStalling) {
  // A response that cannot be written leaves the stream unusable, so the
  // server must hang up: the client sees end-of-stream at once instead of
  // waiting out its receive deadline for a reply that never comes.
  TestServer server;
  TestServer::Conn conn{server.endpoint()};
  conn.hello();
  svc::set_recv_timeout(conn.fd(), 5000);
  svc::Request req;
  req.op = "version";
  // Client and server share the send path in this process, so the
  // request goes out through a raw send before the armed site can see it.
  lv::failpoint::configure("svc.sock_write=error");
  const std::string frame =
      svc::encode_frame(svc::FrameKind::request, 1, svc::encode_request(req));
  ASSERT_EQ(::send(conn.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  const svc::FrameReader::Result r = conn.read();
  lv::failpoint::reset();
  EXPECT_EQ(r.kind, svc::FrameReader::Result::Kind::eof) << r.code;
}
