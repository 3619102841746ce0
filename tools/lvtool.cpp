// lvtool — command-line front end to the lvsim libraries.
//
// A thin adapter: every subcommand is dispatched through the svc handler
// registry (src/svc/handlers.cpp), which builds a Response the adapter
// materializes — files first, then stdout bytes, then the exit code.
// The same handlers sit behind `lvtool serve`, so CLI and server output
// are byte-identical by construction; the golden CLI contract
// (tools/golden_cli.cmake) pins the bytes. What each command accepts is
// declared once, in the svc tables; `lvtool help` prints them.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "svc/client.hpp"
#include "svc/handlers.hpp"
#include "svc/params.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "store/artifact_store.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace {

namespace chk = lv::check;
namespace svc = lv::svc;

// Configures the process-global artifact store from --cache-dir /
// --cache-max-bytes. No resolvable directory (or an explicit "none")
// leaves the store disabled — every cache probe is then a skipped
// branch, which is also the state unit tests run in.
void configure_cache(const svc::Params& process) {
  const auto opt = process.text("--cache-dir");
  if (opt && (opt->empty() || *opt == "none")) return;
  std::filesystem::path dir =
      opt ? std::filesystem::path{*opt} : lv::store::default_cache_dir();
  if (dir.empty()) return;
  lv::store::StoreOptions options;
  options.dir = std::move(dir);
  options.max_bytes =
      static_cast<std::uint64_t>(process.integer("--cache-max-bytes"));
  lv::store::configure_global_store(std::move(options));
}

svc::Endpoint endpoint_from(const svc::Params& args) {
  svc::Endpoint ep;
  ep.path = args.text("--socket").value_or("");
  if (args.flag("--port")) ep.port = static_cast<int>(args.integer("--port"));
  return ep;
}

int cmd_serve(const svc::Params& args) {
  svc::ServerOptions options;
  options.endpoint = endpoint_from(args);
  options.workers = static_cast<std::size_t>(args.integer("--workers"));
  options.queue_capacity = static_cast<std::size_t>(args.integer("--queue"));
  options.max_payload =
      static_cast<std::uint32_t>(args.integer("--max-payload"));
  options.session_cache_bytes =
      static_cast<std::uint64_t>(args.integer("--session-cache-bytes"));

  svc::Response r;
  r.exit_code = svc::serve(options);
  // Server run report: cumulative across every request it served.
  const lv::obs::RunReport report = lv::obs::Registry::global().report();
  if (const auto stats_json = args.text("--stats-json"))
    r.files.push_back({*stats_json, report.to_json()});
  if (args.flag("--stats")) r.out = report.to_text();
  return svc::materialize(r);
}

// client options end at the first positional, the forwarded subcommand;
// its line is checked by the server's op.
int cmd_client(int argc, char** argv) {
  int first = 2;
  const svc::Command& table = svc::client_command();
  const svc::Params args =
      svc::validate(table, svc::parse_prefix(table, argc, argv, first));
  svc::ClientOptions options;
  options.endpoint = endpoint_from(args);
  options.shutdown = args.flag("--shutdown");
  options.verbose = args.flag("--verbose");
  options.deadline_ms =
      static_cast<std::uint32_t>(args.integer("--deadline-ms"));
  options.timeout_ms = static_cast<std::uint32_t>(args.integer("--timeout-ms"));
  options.retries = static_cast<int>(args.integer("--retries"));
  return svc::run_client(options, argc, argv, first);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "help" ||
      std::string(argv[1]) == "--help") {
    std::fputs(svc::help_text().c_str(), stdout);
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  try {
    // Arm fault injection before any guarded path can run (client
    // transport included). A malformed spec is bad input, not an
    // internal error.
    try {
      lv::failpoint::configure_from_env();
    } catch (const lv::util::Error& e) {
      throw chk::InputError(chk::codes::cli_option,
                            std::string("LVSIM_FAILPOINTS: ") + e.what());
    }
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd != "serve" && svc::find_op(cmd) == nullptr) {
      // An unknown subcommand is bad input, same contract as a bad option.
      std::fprintf(stderr, "lvtool: error: [%s] unknown command '%s'\n",
                   chk::codes::cli_option, cmd.c_str());
      std::fputs(svc::help_text().c_str(), stdout);
      return 2;
    }

    // Process options configure this process, so no request carries them.
    svc::Params args = svc::parse_params(argc, argv, 2);
    svc::Params process;
    for (const svc::Arg& a : svc::process_options().options)
      if (auto node = args.options.extract(a.name))
        process.options.insert(std::move(node));
    process = svc::validate(svc::process_options(), std::move(process));
    lv::exec::set_thread_count(
        static_cast<std::size_t>(process.integer("--threads")));
    configure_cache(process);
    if (cmd == "serve")
      return cmd_serve(svc::validate(svc::serve_command(), std::move(args),
                                     &svc::request_options()));

    svc::Session session{0, svc::Session::Options{lv::store::global_store()}};
    svc::ServiceContext ctx{session};
    svc::Request request;
    request.op = cmd;
    request.params = std::move(args);
    return svc::materialize(svc::run_request(ctx, request));
  } catch (const chk::InputError& e) {
    // Bad input (malformed file, unparseable option, missing path):
    // coded diagnostic, exit 2 — distinct from internal errors below.
    std::fprintf(stderr, "lvtool %s: %s\n", cmd.c_str(),
                 e.diag().to_string().c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lvtool %s: internal error: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
}
