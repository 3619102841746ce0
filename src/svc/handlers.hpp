// The operation registry of the lv::svc request layer.
//
// Every lvtool subcommand is one OpSpec: its declared Command table
// (svc/params.hpp), a handler that turns a validated Request into a
// Response, and the input slots derived from the table's file entries
// (so `lvtool client` knows what to upload inline). The CLI adapter, the
// server workers, and tests all dispatch through this one table — there
// is no second implementation or description of any operation.
#pragma once

#include <string_view>
#include <vector>

#include "svc/request.hpp"
#include "svc/session.hpp"

namespace lv::svc {

struct ServiceContext {
  Session& session;
};

// Where an operation's input file arrives on the command line: the
// positional at index `positional` (>= 0), else the option `option`. The
// token's value is a path (or a predefined process name for the "tech"
// role). In server mode the same content travels inline in
// Request::inputs under `role`.
struct InputSlot {
  const char* role;
  int positional = -1;
  const char* option = nullptr;
};

struct OpSpec {
  Command command;
  // `args` are request.params checked against `command`, defaults filled.
  Response (*fn)(ServiceContext&, const Request&, const Params& args);
  std::vector<InputSlot> inputs = {};  // derived from `command`
};

const std::vector<OpSpec>& registry();
const OpSpec* find_op(std::string_view name);

// The tables of the commands that are not operations. Request options
// are valid on every operation, at the CLI and over the protocol; process
// options only at the CLI and on `serve`, never in a request.
const Command& request_options();
const Command& process_options();
const Command& serve_command();
const Command& client_command();

// Version/compatibility banner shared by `lvtool version`, the serve
// startup banner, and the protocol hello exchange: tool version,
// protocol version + frame limits, kernel availability, build flags.
std::string version_text();

}  // namespace lv::svc
