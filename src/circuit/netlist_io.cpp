#include "circuit/netlist_io.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "util/error.hpp"

namespace lv::circuit {

namespace u = lv::util;

std::string to_netlist_text(const Netlist& nl) {
  std::ostringstream out;
  out << "lvnet 1\n";
  for (const NetId id : nl.primary_inputs()) out << "input " << nl.net(id).name << '\n';
  if (nl.clock_net() != kInvalidNet)
    out << "clock " << nl.net(nl.clock_net()).name << '\n';
  // Declare every other net explicitly so inputs always resolve on read.
  for (NetId id = 0; id < nl.net_count(); ++id) {
    const Net& n = nl.net(id);
    if (!n.is_primary_input && !n.is_clock) out << "net " << n.name << '\n';
  }
  for (const Instance& inst : nl.instances()) {
    out << "gate " << inst.name << ' ' << cell_info(inst.kind).name << ' '
        << nl.net(inst.output).name;
    for (const NetId in : inst.inputs) out << ' ' << nl.net(in).name;
    if (!inst.module.empty()) out << " module=" << inst.module;
    out << '\n';
  }
  for (const NetId id : nl.primary_outputs())
    out << "output " << nl.net(id).name << '\n';
  return out.str();
}

namespace {

// The separators `operator>>` skips in the classic locale.
bool is_space(char ch) {
  return std::isspace(static_cast<unsigned char>(ch)) != 0;
}

// Splits `line` into `out` at runs of whitespace (views into `line`).
void split_words(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
}

}  // namespace

Netlist parse_netlist_text(std::string_view text) {
  Netlist nl;
  int line_no = 0;
  bool saw_header = false;

  auto fail = [&](const std::string& message,
                  const char* code = check::codes::net_syntax) -> void {
    throw check::InputError(
        code, "netlist line " + std::to_string(line_no) + ": " + message,
        {"", line_no});
  };
  // Names with a "module=" prefix are reserved: a net so named would
  // serialize as the optional module tag of a gate line and not survive
  // the round-trip.
  auto check_name = [&](std::string_view name) -> void {
    if (name.starts_with("module="))
      fail("name '" + std::string{name} + "' is reserved ('module=' prefix)",
           check::codes::net_reserved_name);
  };

  std::vector<std::string_view> tok;
  std::vector<NetId> ins;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    line = line.substr(0, line.find('#'));
    split_words(line, tok);
    if (tok.empty()) continue;

    if (!saw_header) {
      if (tok.size() != 2 || tok[0] != "lvnet" || tok[1] != "1")
        fail("missing 'lvnet 1' header");
      saw_header = true;
      continue;
    }

    if (tok[0] == "input") {
      if (tok.size() != 2) fail("input takes one name");
      check_name(tok[1]);
      nl.add_input(std::string{tok[1]});
    } else if (tok[0] == "clock") {
      if (tok.size() != 2) fail("clock takes one name");
      check_name(tok[1]);
      nl.add_clock(std::string{tok[1]});
    } else if (tok[0] == "net") {
      if (tok.size() != 2) fail("net takes one name");
      check_name(tok[1]);
      nl.add_net(std::string{tok[1]});
    } else if (tok[0] == "output") {
      if (tok.size() != 2) fail("output takes one name");
      const NetId id = nl.find_net(tok[1]);
      if (id == kInvalidNet)
        fail("unknown net '" + std::string{tok[1]} + "'",
             check::codes::net_unknown_net);
      nl.mark_output(id);
    } else if (tok[0] == "gate") {
      if (tok.size() < 4) fail("gate needs name, kind, and output");
      std::string module;
      if (tok.back().starts_with("module=")) {
        module = tok.back().substr(7);
        tok.pop_back();
        if (tok.size() < 4) fail("gate needs name, kind, and output");
      }
      check_name(tok[1]);
      check_name(tok[3]);
      const CellKind kind = cell_kind_from_name(tok[2]);
      if (kind == CellKind::kind_count)
        fail("unknown cell '" + std::string{tok[2]} + "'",
             check::codes::net_unknown_cell);
      NetId out_net = nl.find_net(tok[3]);
      if (out_net == kInvalidNet) out_net = nl.add_net(std::string{tok[3]});
      ins.clear();
      for (std::size_t i = 4; i < tok.size(); ++i) {
        const NetId in = nl.find_net(tok[i]);
        if (in == kInvalidNet)
          fail("unknown input net '" + std::string{tok[i]} + "'",
               check::codes::net_unknown_net);
        ins.push_back(in);
      }
      try {
        nl.add_gate_onto(kind, std::string{tok[1]}, ins, out_net, module);
      } catch (const check::InputError& e) {
        fail(e.what(), e.diag().code.c_str());
      } catch (const u::Error& e) {
        fail(e.what());
      }
    } else {
      fail("unknown statement '" + std::string{tok[0]} + "'");
    }
  }
  if (!saw_header)
    throw check::InputError(check::codes::net_syntax, "netlist: empty input");
  return nl;
}

}  // namespace lv::circuit
