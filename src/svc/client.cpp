#include "svc/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "svc/handlers.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/file.hpp"

namespace lv::svc {

namespace {

// One blocking round-trip; enforces the expected reply kind and maps
// error frames / violations to coded InputErrors.
Frame round_trip(int fd, FrameReader& reader, FrameKind kind,
                 std::uint64_t id, std::string_view payload,
                 FrameKind expect) {
  if (!send_all(fd, encode_frame(kind, id, payload)))
    throw check::InputError(check::codes::svc_io,
                            "connection lost while sending");
  const FrameReader::Result r = reader.next(fd);
  if (r.kind == FrameReader::Result::Kind::eof)
    throw check::InputError(check::codes::svc_io,
                            "server closed the connection");
  if (r.kind == FrameReader::Result::Kind::bad)
    throw check::InputError(r.code, r.message);
  if (r.frame.kind == FrameKind::error)
    throw check::InputError(check::codes::svc_state,
                            "server error: " + r.frame.payload);
  if (r.frame.kind != expect)
    throw check::InputError(check::codes::svc_state,
                            "unexpected reply frame kind");
  return r.frame;
}

// A transport failure that a fresh connection can plausibly fix — or, for
// svc.overload, a full server queue that backoff gives time to drain.
// Operations are pure functions of the request, so replaying one is safe.
bool retryable(const std::string& code) {
  return code == check::codes::svc_io || code == check::codes::svc_timeout ||
         code == check::codes::svc_overload;
}

// One full exchange on a fresh connection: connect, hello, then either
// the shutdown handshake or the forwarded request (materialized locally
// on success). Throws coded InputError on any failure.
int attempt(const ClientOptions& options, const Request* request) {
  const int fd = connect_to(options.endpoint);
  FrameReader reader;
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  set_recv_timeout(fd, options.timeout_ms);

  const Frame hello = round_trip(fd, reader, FrameKind::hello, 0,
                                 "lvtool client lvrpc/1", FrameKind::hello_ok);
  if (options.verbose) std::fputs(hello.payload.c_str(), stderr);

  if (request == nullptr) {  // shutdown handshake
    round_trip(fd, reader, FrameKind::shutdown, 1, "",
               FrameKind::shutdown_ok);
    return 0;
  }

  const Frame reply =
      round_trip(fd, reader, FrameKind::request, 1,
                 encode_request(*request), FrameKind::response);
  return materialize(decode_response(reply.payload));
}

}  // namespace

int run_client(const ClientOptions& options, int argc, char** argv,
               int first) {
  // Build the request once, up front: retries replay the identical bytes,
  // and input files are read exactly once so no retry can observe a file
  // changing between attempts.
  std::optional<Request> request;
  if (!options.shutdown) {
    if (first >= argc)
      throw check::InputError(check::codes::cli_option,
                              "client needs a subcommand to forward");
    Request req;
    req.op = argv[first];
    req.params = parse_params(argc, argv, first + 1);
    req.deadline_ms = options.deadline_ms;

    // Upload the operation's input files. Values that are not local files
    // (predefined process names, server-side paths) pass through as plain
    // parameters.
    if (const OpSpec* spec = find_op(req.op)) {
      for (const InputSlot& slot : spec->inputs) {
        std::optional<std::string> value;
        if (slot.positional >= 0 &&
            static_cast<std::size_t>(slot.positional) <
                req.params.positional.size())
          value =
              req.params.positional[static_cast<std::size_t>(slot.positional)];
        else if (slot.option != nullptr)
          value = req.params.text(slot.option);
        if (!value) continue;
        // A value that is no readable local file (a predefined tech name,
        // a server-local path) is forwarded untouched.
        if (auto content = util::read_file(*value))
          req.inputs[slot.role] = std::move(*content);
      }
    }
    request = std::move(req);
  }

  // Jitter PRNG (splitmix64 seeded by pid): spreads concurrent clients'
  // retry storms apart without needing wall-clock entropy.
  std::uint64_t jitter_state = 0x9e3779b97f4a7c15ULL;
  jitter_state ^= static_cast<std::uint32_t>(::getpid());
  const auto next_jitter = [&jitter_state]() {
    jitter_state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = jitter_state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  for (int tries = 0;; ++tries) {
    try {
      return attempt(options, request ? &*request : nullptr);
    } catch (const check::InputError& e) {
      if (!retryable(e.code())) throw;
      if (tries >= options.retries) {
        if (options.retries == 0) throw;  // default: original error, verbatim
        throw check::InputError(
            check::codes::svc_retry_exhausted,
            "gave up after " + std::to_string(tries + 1) +
                " attempts; last error [" + e.code() + "] " + e.what());
      }
      // Exponential backoff, capped at 2 s, with up to +50% jitter.
      const std::uint64_t base = std::min<std::uint64_t>(
          2000, static_cast<std::uint64_t>(options.backoff_ms)
                    << std::min(tries, 20));
      const std::uint64_t delay =
          base == 0 ? 0 : base + next_jitter() % (base / 2 + 1);
      if (delay != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

}  // namespace lv::svc
