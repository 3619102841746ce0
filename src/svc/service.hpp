// run_request — the single execution path behind every front-end.
//
// Checks a Request against its op's declared table (svc/params.hpp),
// dispatches it through the handler registry, times it under the
// "lvtool.command" timer, attaches the lv::obs RunReport when stats were
// requested (one shared emission path — the per-subcommand --stats
// plumbing that used to live in tools/lvtool.cpp), and maps errors to
// the repo-wide exit-code contract:
//
//   0  success
//   1  internal error (library misuse, non-input failure)
//   2  input error — coded lv::check diagnostic, stderr text prefixed
//      "lvtool <op>:", lv-diag/1 document in Response::diag_json
//
// run_request never throws: in server mode a hostile request must
// produce a diagnostic response, not a dead worker.
#pragma once

#include "svc/handlers.hpp"
#include "svc/request.hpp"

namespace lv::svc {

Response run_request(ServiceContext& ctx, const Request& request);

// The shared RunReport emission helper: when the request carries
// --stats / --stats-json, snapshots the global registry into
// Response::report_json, appends the text report to Response::out
// (--stats), and stages the JSON file (--stats-json <path>). Exposed for
// front-ends that synthesize responses outside run_request (the server's
// queue-rejection path).
void attach_run_report(Response& response, const Request& request);

// Maps a coded input error to the diagnostic Response (exit 2) the CLI
// used to print from its catch block — identical stderr bytes.
Response input_error_response(const std::string& op,
                              const check::InputError& error);

// Maps an escaped non-input exception to the contained svc.internal
// Response (exit 1, coded diagnostic). One throwing handler costs the
// caller one coded response, never the server process.
Response internal_error_response(const std::string& op,
                                 const std::string& what);

}  // namespace lv::svc
