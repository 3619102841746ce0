#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_store.hpp"
#include "svc/handlers.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "util/failpoint.hpp"

namespace lv::svc {

namespace {

using Clock = std::chrono::steady_clock;

// Injected accept failure: the freshly accepted connection is dropped
// before a reader is attached, as if the kernel ran out of fds. The
// peer sees EOF on its hello and must retry; nothing else is disturbed.
lv::failpoint::Site fp_accept{"svc.accept"};

// Self-pipe written by the signal handler (async-signal-safe) and by
// reader threads requesting shutdown; the accept loop polls it.
std::atomic<int> g_wake_fd{-1};

void wake_signal_handler(int) {
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Serializes whole frames onto the socket: responses for one
  // connection may come from several workers concurrently, and an
  // interleaved frame would desynchronize the stream. A failed send may
  // have left half a frame on the wire, so the stream is torn down: the
  // peer sees a hang-up (and retries) instead of waiting out its receive
  // timeout for a reply that will never come.
  bool send(FrameKind kind, std::uint64_t id, std::string_view payload) {
    std::lock_guard<std::mutex> lock{write_mu};
    if (send_all(fd, encode_frame(kind, id, payload))) return true;
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }

  int fd;
  std::mutex write_mu;
  std::shared_ptr<Session> session;  // set by the hello exchange
};

class Server {
 public:
  explicit Server(const ServerOptions& options) : opt_(options) {
    if (opt_.workers == 0) opt_.workers = exec::thread_count();
    if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  }

  // Internal server type: members are public for the serve() driver.
  struct Job {
    std::shared_ptr<Connection> conn;
    std::uint64_t id = 0;
    std::string payload;  // encoded Request, decoded by the worker
    Clock::time_point enqueued;
  };

  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // ---- queue ----------------------------------------------------------
  enum class Push { queued, full, closed };

  Push try_push(Job job) {
    {
      std::lock_guard<std::mutex> lock{queue_mu_};
      if (queue_closed_) return Push::closed;
      if (queue_.size() >= opt_.queue_capacity) return Push::full;
      queue_.push_back(std::move(job));
      obs::Registry::global()
          .gauge("svc.queue_depth")
          .update_max(static_cast<double>(queue_.size()));
    }
    queue_cv_.notify_one();
    return Push::queued;
  }

  bool pop(Job& job) {
    std::unique_lock<std::mutex> lock{queue_mu_};
    queue_cv_.wait(lock, [&] { return queue_closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // closed and drained
    job = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  void close_queue() {
    {
      std::lock_guard<std::mutex> lock{queue_mu_};
      queue_closed_ = true;
    }
    queue_cv_.notify_all();
  }

  // ---- workers --------------------------------------------------------
  void worker_loop() {
    static auto& responses = obs::Registry::global().counter("svc.responses");
    static auto& deadline_rejected = obs::Registry::global().counter(
        "svc.rejected_deadline", obs::Stability::scheduling);
    Job job;
    while (pop(job)) {
      Response resp;
      Request req;
      bool run = true;
      try {
        req = decode_request(job.payload);
      } catch (const check::InputError& e) {
        resp = input_error_response("request", e);
        run = false;
      }
      if (run && req.deadline_ms != 0) {
        const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - job.enqueued);
        if (waited.count() >= req.deadline_ms) {
          deadline_rejected.add(1);
          resp = input_error_response(
              req.op,
              check::InputError(
                  check::codes::svc_deadline,
                  "deadline of " + std::to_string(req.deadline_ms) +
                      " ms expired after " + std::to_string(waited.count()) +
                      " ms in queue"));
          run = false;
        }
      }
      if (run) {
        ServiceContext ctx{*job.conn->session};
        resp = run_request(ctx, req);
      }
      responses.add(1);
      job.conn->send(FrameKind::response, job.id, encode_response(resp));
    }
  }

  // ---- per-connection reader ------------------------------------------
  void reader_loop(std::shared_ptr<Connection> conn, Reader* slot) {
    static auto& bad_frames = obs::Registry::global().counter(
        "svc.bad_frames", obs::Stability::scheduling);
    static auto& overload_rejected = obs::Registry::global().counter(
        "svc.rejected_overload", obs::Stability::scheduling);
    FrameReader reader;
    for (;;) {
      const FrameReader::Result r = reader.next(conn->fd, opt_.max_payload);
      if (r.kind == FrameReader::Result::Kind::eof) break;
      if (r.kind == FrameReader::Result::Kind::bad) {
        // Framing violations are unrecoverable (the stream may be out
        // of sync): answer with a coded error frame, then drop the
        // connection. The error is best-effort — the peer may be gone.
        bad_frames.add(1);
        conn->send(FrameKind::error, 0, r.code + ": " + r.message);
        break;
      }
      const Frame& frame = r.frame;
      switch (frame.kind) {
        case FrameKind::hello: {
          if (conn->session != nullptr) {
            conn->send(FrameKind::error, frame.request_id,
                       std::string{check::codes::svc_state} +
                           ": duplicate hello");
            return;
          }
          conn->session = std::make_shared<Session>(
              next_session_id_.fetch_add(1, std::memory_order_relaxed),
              Session::Options{store::global_store(),
                               opt_.session_cache_bytes});
          conn->send(FrameKind::hello_ok, frame.request_id,
                     version_text() + "session " +
                         std::to_string(conn->session->id()) + "\n");
          break;
        }
        case FrameKind::request: {
          if (conn->session == nullptr) {
            conn->send(FrameKind::error, frame.request_id,
                       std::string{check::codes::svc_state} +
                           ": request before hello");
            return;
          }
          Job job;
          job.conn = conn;
          job.id = frame.request_id;
          job.payload = frame.payload;
          job.enqueued = Clock::now();
          const Push pushed = try_push(std::move(job));
          // Draining for shutdown: the request never ran, so hang up
          // unanswered (serve() closes the connection after the drain)
          // and the client's transport retry replays it elsewhere.
          if (pushed == Push::closed) return;
          if (pushed == Push::full) {
            // Bounded queue: reject loudly instead of buffering without
            // limit. The client gets a well-formed diagnostic response
            // and may retry; the connection stays usable.
            overload_rejected.add(1);
            const Response resp = input_error_response(
                "request",
                check::InputError(check::codes::svc_overload,
                                  "request queue full (" +
                                      std::to_string(opt_.queue_capacity) +
                                      " deep); retry later"));
            conn->send(FrameKind::response, frame.request_id,
                       encode_response(resp));
          }
          break;
        }
        case FrameKind::shutdown: {
          // First initiator wins; conn/id are published under the mutex
          // *before* the flag flips, so the teardown path in serve() can
          // read them the moment it observes the flag.
          std::lock_guard<std::mutex> lock{shutdown_mu_};
          if (!shutdown_requested_.load(std::memory_order_relaxed)) {
            shutdown_conn_ = conn;
            shutdown_id_ = frame.request_id;
            shutdown_requested_.store(true, std::memory_order_release);
            wake_signal_handler(0);
          }
          break;
        }
        default:
          conn->send(FrameKind::error, frame.request_id,
                     std::string{check::codes::svc_state} +
                         ": unexpected frame kind");
          return;
      }
    }
    // Drop the connection from the live set so its fd can close once the
    // last in-flight job releases it; the thread handle is reaped by the
    // accept loop (or joined at shutdown).
    std::lock_guard<std::mutex> lock{conns_mu_};
    for (auto it = conns_.begin(); it != conns_.end(); ++it)
      if (it->get() == conn.get()) {
        conns_.erase(it);
        break;
      }
    slot->done.store(true, std::memory_order_release);
  }

  // ---- accept loop -----------------------------------------------------
  int run_accept_loop(int listen_fd, int wake_fd) {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) {
          if (shutdown_requested_.load(std::memory_order_acquire)) return 0;
          continue;
        }
        return 1;
      }
      if ((fds[1].revents & POLLIN) != 0 ||
          shutdown_requested_.load(std::memory_order_acquire))
        return 0;
      if ((fds[0].revents & POLLIN) == 0) continue;
      int client;
      do {
        client = ::accept(listen_fd, nullptr, nullptr);
      } while (client < 0 && errno == EINTR);
      if (client < 0) continue;  // transient (ECONNABORTED, EMFILE): poll again
      if (const auto f = fp_accept.fire()) {
        if (f.action == failpoint::Action::delay) {
          failpoint::sleep_for_bits(f.bits);
        } else {
          ::close(client);
          continue;
        }
      }
      obs::Registry::global().counter("svc.connections").add(1);
      auto conn = std::make_shared<Connection>(client);
      {
        std::lock_guard<std::mutex> lock{conns_mu_};
        conns_.push_back(conn);
      }
      // Reap finished readers so a long-lived server does not accumulate
      // a thread handle per historical connection.
      for (auto it = readers_.begin(); it != readers_.end();) {
        if (it->done.load(std::memory_order_acquire)) {
          it->thread.join();
          it = readers_.erase(it);
        } else {
          ++it;
        }
      }
      readers_.emplace_back();
      Reader& slot = readers_.back();
      slot.thread = std::thread(
          [this, conn, &slot] { reader_loop(conn, &slot); });
    }
  }

  ServerOptions opt_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool queue_closed_ = false;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::list<Reader> readers_;

  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mu_;  // guards the two fields below
  std::shared_ptr<Connection> shutdown_conn_;
  std::uint64_t shutdown_id_ = 0;
};

}  // namespace

int serve(const ServerOptions& options) {
  // A server is an always-measured context: queue depth, cache traffic,
  // and rejection counters are part of operating it, so obs collection
  // is on for the server's lifetime (the CLI one-shot path keeps its
  // opt-in --stats behavior).
  obs::set_enabled(true);
  Server server{options};
  const int listen_fd = listen_on(options.endpoint);

  int wake[2];
  if (::pipe(wake) != 0) {
    ::close(listen_fd);
    throw check::InputError(check::codes::svc_io,
                            std::string{"pipe: "} + std::strerror(errno));
  }
  g_wake_fd.store(wake[1], std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = wake_signal_handler;
  struct sigaction old_int {}, old_term {};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);

  // Banner first (the compatibility surface: protocol + kernels + build),
  // then the readiness line tooling waits for.
  std::fputs(version_text().c_str(), stdout);
  // Note on scheduling: svc workers *are* exec pool workers, so a
  // handler's own parallel regions run inline-serial on their worker
  // (nested-parallelism rule) — request-level concurrency across the
  // shared job queue is already dynamically balanced.
  std::printf("serving on %s  workers=%zu queue=%zu max_payload=%u\n",
              options.endpoint.to_string().c_str(), server.opt_.workers,
              server.opt_.queue_capacity, server.opt_.max_payload);
  std::fflush(stdout);

  // The svc workers are the lv::exec pool: ThreadPool::run blocks the
  // dispatcher until the queue closes and drains.
  std::thread dispatcher{[&server] {
    exec::ThreadPool::pool().run(server.opt_.workers,
                                 [&server](std::size_t) {
                                   server.worker_loop();
                                 });
  }};

  const int rc = server.run_accept_loop(listen_fd, wake[0]);

  // Graceful shutdown: stop accepting, drain every queued request, then
  // acknowledge the initiator and tear down connections/threads.
  ::close(listen_fd);
  if (!options.endpoint.path.empty())
    ::unlink(options.endpoint.path.c_str());
  server.close_queue();
  dispatcher.join();
  {
    std::lock_guard<std::mutex> lock{server.shutdown_mu_};
    if (server.shutdown_conn_ != nullptr)
      server.shutdown_conn_->send(FrameKind::shutdown_ok, server.shutdown_id_,
                                  "");
  }
  {
    std::lock_guard<std::mutex> lock{server.conns_mu_};
    for (const auto& conn : server.conns_)
      ::shutdown(conn->fd, SHUT_RDWR);  // unblocks readers mid-recv
  }
  for (auto& reader : server.readers_) reader.thread.join();

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_wake_fd.store(-1, std::memory_order_relaxed);
  ::close(wake[0]);
  ::close(wake[1]);
  std::printf("shutdown: drained, %llu response(s) served\n",
              static_cast<unsigned long long>(
                  obs::Registry::global().counter("svc.responses").value()));
  std::fflush(stdout);
  return rc;
}

}  // namespace lv::svc
