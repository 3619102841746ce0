// lvtool — command-line front end to the lvsim libraries.
//
// Since the lv::svc refactor this file is a thin adapter: every
// subcommand is dispatched through the svc handler registry
// (src/svc/handlers.cpp), which builds a Response the adapter
// materializes — files first, then stdout bytes, then the exit code.
// The same handlers sit behind `lvtool serve`, so CLI and server output
// are byte-identical by construction; the golden CLI contract
// (tools/golden_cli.cmake) pins the bytes against fixtures recorded from
// the pre-refactor binary.
//
//   lvtool <subcommand> [args...]        one-shot, local
//   lvtool serve  [--socket P | --port N] [--workers W] [--queue Q]
//                 [--max-payload B] [--session-cache-bytes B]
//                 [--stats] [--stats-json f]
//   lvtool client [--socket P | --port N] [--deadline-ms D]
//                 [--timeout-ms T] [--retries R] [--verbose]
//                 (<subcommand> [args...] | --shutdown)
//   lvtool version
//
// Every local mode (one-shot and serve) also takes --cache-dir <dir>
// (default: $LVSIM_CACHE_DIR / $XDG_CACHE_HOME/lvsim / ~/.cache/lvsim;
// "none" disables) and --cache-max-bytes <n>, which configure the
// cross-session artifact store (src/store). `lvtool cache stats|clear`
// inspects it.
//
// Run `lvtool help` for the full subcommand reference.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "store/artifact_store.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace {

namespace chk = lv::check;
namespace svc = lv::svc;

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out || !(out << content))
    throw chk::InputError(chk::codes::io_write,
                          "cannot write '" + path + "'", {path, 0});
}

// Configures the process-global artifact store from --cache-dir /
// --cache-max-bytes. No resolvable directory (or an explicit "none")
// leaves the store disabled — every cache probe is then a skipped
// branch, which is also the state unit tests run in.
void configure_cache(const svc::Params& args) {
  std::filesystem::path dir;
  if (const auto opt = args.text("--cache-dir")) {
    if (opt->empty() || *opt == "none") return;
    dir = *opt;
  } else {
    dir = lv::store::default_cache_dir();
    if (dir.empty()) return;
  }
  lv::store::StoreOptions options;
  options.dir = std::move(dir);
  const long long budget = args.integer(
      "--cache-max-bytes", static_cast<long long>(options.max_bytes));
  if (budget < 0)
    throw chk::InputError(chk::codes::cli_option,
                          "--cache-max-bytes must be >= 0 (0 = unbounded)");
  options.max_bytes = static_cast<std::uint64_t>(budget);
  lv::store::configure_global_store(std::move(options));
}

svc::Endpoint endpoint_from(const svc::Params& args) {
  svc::Endpoint ep;
  ep.path = args.text("--socket").value_or("");
  ep.port = static_cast<int>(args.integer("--port", 0));
  if (ep.path.empty() && ep.port == 0)
    throw chk::InputError(chk::codes::cli_option,
                          "need --socket <path> or --port <n>");
  if (!ep.path.empty() && ep.port != 0)
    throw chk::InputError(chk::codes::cli_option,
                          "--socket and --port are mutually exclusive");
  if (ep.port < 0 || ep.port > 65535)
    throw chk::InputError(chk::codes::cli_option,
                          "--port must be in [1, 65535]");
  return ep;
}

int cmd_serve(const svc::Params& args) {
  svc::ServerOptions options;
  options.endpoint = endpoint_from(args);
  const long long workers = args.integer("--workers", 0);
  if (workers < 0)
    throw chk::InputError(chk::codes::cli_option, "--workers must be >= 0");
  options.workers = static_cast<std::size_t>(workers);
  const long long queue = args.integer("--queue", 128);
  if (queue < 1)
    throw chk::InputError(chk::codes::cli_option, "--queue must be >= 1");
  options.queue_capacity = static_cast<std::size_t>(queue);
  const long long payload =
      args.integer("--max-payload", svc::kDefaultMaxPayload);
  if (payload < static_cast<long long>(svc::kHeaderSize) ||
      payload > (1ll << 31))
    throw chk::InputError(chk::codes::cli_option,
                          "--max-payload out of range");
  options.max_payload = static_cast<std::uint32_t>(payload);
  const long long session_cache = args.integer(
      "--session-cache-bytes",
      static_cast<long long>(options.session_cache_bytes));
  if (session_cache < 0)
    throw chk::InputError(chk::codes::cli_option,
                          "--session-cache-bytes must be >= 0 (0 = unbounded)");
  options.session_cache_bytes = static_cast<std::uint64_t>(session_cache);

  const int rc = svc::serve(options);
  // Server run report: cumulative across every request it served.
  const lv::obs::RunReport report = lv::obs::Registry::global().report();
  if (const auto stats_json = args.text("--stats-json"))
    write_file(*stats_json, report.to_json());
  if (args.flag("--stats")) std::fputs(report.to_text().c_str(), stdout);
  return rc;
}

// client options end at the first token that is not one of ours; the
// rest is the forwarded subcommand line, parsed by the server's op.
int cmd_client(int argc, char** argv, int first) {
  svc::ClientOptions options;
  svc::Params mine;
  int i = first;
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--shutdown") {
      options.shutdown = true;
    } else if (token == "--verbose") {
      options.verbose = true;
    } else if (token == "--socket" || token == "--port" ||
               token == "--deadline-ms" || token == "--timeout-ms" ||
               token == "--retries") {
      if (i + 1 >= argc)
        throw chk::InputError(chk::codes::cli_option,
                              "option '" + token + "' needs a value");
      mine.options[token] = argv[++i];
    } else {
      break;
    }
  }
  options.endpoint = endpoint_from(mine);
  const long long deadline = mine.integer("--deadline-ms", 0);
  if (deadline < 0)
    throw chk::InputError(chk::codes::cli_option,
                          "--deadline-ms must be >= 0");
  options.deadline_ms = static_cast<std::uint32_t>(deadline);
  const long long timeout = mine.integer("--timeout-ms", 0);
  if (timeout < 0)
    throw chk::InputError(chk::codes::cli_option,
                          "--timeout-ms must be >= 0 (0 = wait forever)");
  options.timeout_ms = static_cast<std::uint32_t>(timeout);
  const long long retries = mine.integer("--retries", 0);
  if (retries < 0 || retries > 100)
    throw chk::InputError(chk::codes::cli_option,
                          "--retries must be in [0, 100]");
  options.retries = static_cast<int>(retries);
  if (!options.shutdown && i >= argc)
    throw chk::InputError(chk::codes::cli_option,
                          "client needs a subcommand to forward");
  return svc::run_client(options, argc, argv, i);
}

void usage() {
  std::fputs(
      "lvtool — low-voltage design toolkit CLI\n"
      "  check <file> [--kind netlist|tech|activity] [--netlist f]\n"
      "        [--strict] [--diag-json f]\n"
      "  gen <rca|cla|csel|ks|mul|shifter|alu> <width> [-o file]\n"
      "  stats <netlist>\n"
      "  simulate <netlist> [--vectors N] [--seed S]\n"
      "           [--activity-out f] [--vcd-out f]\n"
      "  power <netlist> <tech> [--vdd V] [--fclk HZ]\n"
      "        (--alpha A | --activity f)\n"
      "  timing <netlist> <tech> [--vdd V]\n"
      "  dualvt <netlist> <tech> [--vdd V] [--margin M]\n"
      "  optimize-vt <tech> [--fclk HZ] [--activity A]\n"
      "  profile <espresso|li|idea|fir|crc32|sort|matmul|strsearch>\n"
      "          [--gap N] [--blocks N]\n"
      "  techfile <tech>\n"
      "  glitch <netlist> <tech> [--vectors N] [--vdd V]\n"
      "  faults <netlist> [--vectors N]\n"
      "  paths <netlist> <tech> [--k N] [--vdd V]\n"
      "  sizing <netlist> <tech> [--margin M] [--min-size S]\n"
      "  optimize <netlist> [-o file]\n"
      "  version                          # tool/protocol/kernel/build info\n"
      "  cache (stats | clear)            # inspect/empty the artifact store\n"
      "  failpoints                       # list fault-injection sites\n"
      "  serve  [--socket P | --port N] [--workers W] [--queue Q]\n"
      "         [--max-payload B] [--session-cache-bytes B]\n"
      "                                   # long-lived lvrpc/1 server\n"
      "  client [--socket P | --port N] [--deadline-ms D] [--timeout-ms T]\n"
      "         [--retries R] [--verbose] (<subcommand> ... | --shutdown)\n"
      "tech = predefined name (soi_low_vt, soias, dual_vt_mtcmos,\n"
      "bulk_cmos_06um, bulk_body_bias) or a tech-file path.\n"
      "Every command accepts --threads N (default: LVSIM_THREADS or all\n"
      "cores); sweeps, fault campaigns and the simulate/glitch replays\n"
      "of combinational netlists fan out across N workers with results\n"
      "identical to --threads 1.\n"
      "Every command also accepts --stats (run-metrics summary to stdout)\n"
      "and --stats-json <file> (lv-run-report/1 JSON). The `counters`\n"
      "section is bit-identical at any --threads width.\n"
      "Local modes accept --cache-dir <dir> (default: $LVSIM_CACHE_DIR,\n"
      "else $XDG_CACHE_HOME/lvsim, else ~/.cache/lvsim; 'none' disables)\n"
      "and --cache-max-bytes <n>: a cross-session artifact store that\n"
      "makes repeat runs skip netlist parsing and graph compilation.\n"
      "LVSIM_FAILPOINTS=site=action[:prob][@seed],... arms deterministic\n"
      "fault injection (see docs/RESILIENCE.md; `lvtool failpoints` lists\n"
      "the sites compiled into this binary).\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "help" ||
      std::string(argv[1]) == "--help") {
    usage();
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
    if (cmd == "client") return cmd_client(argc, argv, 2);

    const svc::Params args = svc::parse_params(argc, argv, 2);
    // Worker width for every sweep/campaign subcommand. Resolution:
    // --threads N > LVSIM_THREADS env > hardware concurrency; 1 runs the
    // serial code path (results are identical either way).
    if (const auto threads = args.text("--threads")) {
      const long long n = chk::require_int(*threads, "--threads");
      if (n < 0)
        throw chk::InputError(chk::codes::cli_option,
                              "--threads must be >= 0 (0 = default)");
      lv::exec::set_thread_count(static_cast<std::size_t>(n));
    }
    configure_cache(args);
    if (cmd == "serve") return cmd_serve(args);

    if (svc::find_op(cmd) == nullptr) {
      // An unknown subcommand is bad input, same contract as a bad option.
      std::fprintf(stderr, "lvtool: error: [%s] unknown command '%s'\n",
                   chk::codes::cli_option, cmd.c_str());
      usage();
      return 2;
    }
    svc::Session session{0, svc::Session::Options{lv::store::global_store()}};
    svc::ServiceContext ctx{session};
    svc::Request request;
    request.op = cmd;
    request.params = args;
    const svc::Response response = svc::run_request(ctx, request);
    // Materialize: artifacts first (a failed write aborts before any
    // stdout), then the exact output bytes, then the exit code.
    for (const auto& file : response.files)
      write_file(file.path, file.content);
    if (!response.err.empty()) std::fputs(response.err.c_str(), stderr);
    if (!response.out.empty()) std::fputs(response.out.c_str(), stdout);
    return response.exit_code;
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
