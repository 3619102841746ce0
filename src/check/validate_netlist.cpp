#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/codes.hpp"
#include "check/validate.hpp"

namespace lv::check {

namespace {

namespace c = lv::circuit;
using c::NetId;

// Splits "a12" into ("a", 12); returns false when the name has no
// trailing digits (then it is not a bus bit).
bool split_bus_name(const std::string& name, std::string& prefix,
                    long& index) {
  std::size_t digits = 0;
  while (digits < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[name.size() - 1 - digits])))
    ++digits;
  if (digits == 0 || digits == name.size() || digits > 6) return false;
  prefix = name.substr(0, name.size() - digits);
  index = std::stol(name.substr(name.size() - digits));
  return true;
}

// The netlist's own rules (Netlist::visit_rules) give the errors; this
// adds the warnings only a report to the user needs.
class NetlistChecker {
 public:
  NetlistChecker(const c::Netlist& netlist, DiagSink& sink)
      : nl_(netlist), sink_(sink) {}

  void run() {
    nl_.visit_rules([this](const char* code, std::string message) {
      sink_.error(code, std::move(message));
    });
    check_dangling();
    check_buses();
    if (nl_.primary_outputs().empty() && nl_.instance_count() > 0)
      sink_.warning(codes::net_no_outputs,
                    "netlist has gates but no primary outputs");
  }

 private:
  void check_dangling() {
    for (NetId n = 0; n < nl_.net_count(); ++n) {
      const c::Net& net = nl_.net(n);
      if (net.is_driven() && nl_.fanout(n).empty() &&
          !net.is_primary_output && !net.is_clock && !net.is_primary_input)
        sink_.warning(codes::net_dangling,
                      "net '" + net.name +
                          "' drives nothing and is not an output");
    }
  }

  // Bus-consistency heuristic over primary inputs and outputs: names of
  // the form <prefix><index> with >= 2 members should cover a contiguous
  // index range (a0, a2 with no a1 usually means a dropped bit in a
  // generator or a hand-edited file).
  void check_buses() {
    check_bus_group(nl_.primary_inputs(), "input");
    check_bus_group(nl_.primary_outputs(), "output");
  }
  void check_bus_group(const std::vector<NetId>& nets, const char* role) {
    std::map<std::string, std::set<long>> groups;
    for (const NetId n : nets) {
      std::string prefix;
      long index = 0;
      if (split_bus_name(nl_.net(n).name, prefix, index))
        groups[prefix].insert(index);
    }
    for (const auto& [prefix, indices] : groups) {
      if (indices.size() < 2) continue;
      const long lo = *indices.begin();
      const long hi = *indices.rbegin();
      if (hi - lo + 1 == static_cast<long>(indices.size())) continue;
      for (long k = lo; k <= hi; ++k) {
        if (indices.count(k)) continue;
        sink_.warning(codes::net_bus_gap,
                      std::string(role) + " bus '" + prefix + "' has bits " +
                          std::to_string(lo) + ".." + std::to_string(hi) +
                          " but no '" + prefix + std::to_string(k) + "'");
        break;  // one gap report per bus is enough
      }
    }
  }

  const c::Netlist& nl_;
  DiagSink& sink_;
};

}  // namespace

void validate(const circuit::Netlist& netlist, DiagSink& sink) {
  NetlistChecker{netlist, sink}.run();
}

}  // namespace lv::check
