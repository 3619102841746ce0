#include "svc/service.hpp"

#include <exception>
#include <stdexcept>

#include "check/codes.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "util/failpoint.hpp"

namespace lv::svc {

namespace {

// Injected worker failure: a handler that throws anything must cost the
// caller one coded svc.internal response, never the server process.
lv::failpoint::Site fp_worker{"svc.worker"};

}  // namespace

void attach_run_report(Response& response, const Request& request) {
  const bool stats_text = request.params.flag("--stats");
  const auto stats_json = request.params.text("--stats-json");
  if (!stats_text && !stats_json) return;
  const obs::RunReport report = obs::Registry::global().report();
  response.report_json = report.to_json();
  if (stats_text) response.out += report.to_text();
  if (stats_json) response.files.push_back({*stats_json, response.report_json});
}

Response input_error_response(const std::string& op,
                              const check::InputError& error) {
  Response r;
  r.exit_code = 2;
  r.err = "lvtool " + op + ": " + error.diag().to_string() + "\n";
  check::DiagSink sink;
  sink.report(error.diag());
  r.diag_json = sink.to_json();
  return r;
}

Response internal_error_response(const std::string& op,
                                 const std::string& what) {
  // Exception containment: any non-InputError escaping a handler is an
  // internal fault, reported as a coded exit-1 diagnostic. In server
  // mode this is what keeps a throwing handler from taking a worker (and
  // with it the process) down.
  Response r;
  r.exit_code = 1;
  check::Diag diag{check::Severity::error, check::codes::svc_internal,
                   "unhandled exception in handler: " + what, {}};
  r.err = "lvtool " + op + ": " + diag.to_string() + "\n";
  check::DiagSink sink;
  sink.report(std::move(diag));
  r.diag_json = sink.to_json();
  return r;
}

Response run_request(ServiceContext& ctx, const Request& request) {
  // Run metrics: collection is compiled in but a no-op until a stats
  // sink is requested, so plain runs pay one predicted branch per
  // site. Enabled before the first counter touch so svc.requests counts
  // the request that asked for stats. In server mode the registry is
  // process-wide, so one stats-requesting client turns collection on for
  // the server's lifetime and reports are cumulative across requests.
  if (request.params.flag("--stats") || request.params.text("--stats-json"))
    obs::set_enabled(true);
  static auto& requests = obs::Registry::global().counter("svc.requests");
  requests.add(1);
  try {
    if (const auto f = fp_worker.fire()) {
      if (f.action == failpoint::Action::delay)
        failpoint::sleep_for_bits(f.bits);
      else
        throw std::runtime_error("failpoint svc.worker: injected worker exception");
    }
    const OpSpec* spec = find_op(request.op);
    if (spec == nullptr)
      throw check::InputError(check::codes::svc_op,
                              "unknown operation '" + request.op + "'");
    const Params args =
        validate(spec->command, request.params, &request_options());
    Response r;
    {
      obs::ScopedTimer whole_command{
          obs::Registry::global().timer("lvtool.command")};
      r = spec->fn(ctx, request, args);
    }
    attach_run_report(r, request);
    return r;
  } catch (const check::InputError& e) {
    // Bad input (malformed file, unparseable option, missing path):
    // coded diagnostic, exit 2 — distinct from internal errors below.
    return input_error_response(request.op, e);
  } catch (const std::exception& e) {
    return internal_error_response(request.op, e.what());
  } catch (...) {
    return internal_error_response(request.op, "non-standard exception");
  }
}

}  // namespace lv::svc
