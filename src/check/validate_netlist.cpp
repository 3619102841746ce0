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
using c::InstanceId;
using c::NetId;

constexpr InstanceId kNoDriver = ~InstanceId{0};

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

class NetlistChecker {
 public:
  NetlistChecker(const c::Netlist& netlist, DiagSink& sink)
      : nl_(netlist), sink_(sink) {}

  void run() {
    check_instances();
    check_undriven_and_dangling();
    check_cycles();
    check_buses();
    if (nl_.primary_outputs().empty() && nl_.instance_count() > 0)
      sink_.warning(codes::net_no_outputs,
                    "netlist has gates but no primary outputs");
  }

 private:
  void check_instances() {
    for (InstanceId i = 0; i < nl_.instance_count(); ++i) {
      const c::Instance& inst = nl_.instance(i);
      const c::CellInfo& info = c::cell_info(inst.kind);
      if (inst.inputs.size() != static_cast<std::size_t>(info.input_count))
        sink_.error(codes::net_arity,
                    "gate '" + inst.name + "' (" + std::string(info.name) +
                        ") has " + std::to_string(inst.inputs.size()) +
                        " inputs, catalog says " +
                        std::to_string(info.input_count));
      if (info.sequential) {
        const bool clocked = inst.inputs.size() == 2 &&
                             nl_.clock_net() != c::kInvalidNet &&
                             inst.inputs[1] == nl_.clock_net();
        if (!clocked)
          sink_.error(codes::net_clocking,
                      "flop '" + inst.name +
                          "' is not clocked by the declared clock net");
      }
    }
  }

  void check_undriven_and_dangling() {
    for (NetId n = 0; n < nl_.net_count(); ++n) {
      const c::Net& net = nl_.net(n);
      const bool driven =
          net.driver != kNoDriver || net.is_primary_input || net.is_clock;
      const auto consumers = nl_.fanout(n);
      if (!driven && !consumers.empty()) {
        // Name one consumer so the user can find the site.
        const c::Instance& user = nl_.instance(consumers.front());
        sink_.error(codes::net_undriven, "net '" + net.name +
                                             "' is used by gate '" +
                                             user.name +
                                             "' but has no driver");
      }
      if (driven && consumers.empty() && !net.is_primary_output &&
          !net.is_clock && !net.is_primary_input)
        sink_.warning(codes::net_dangling,
                      "net '" + net.name +
                          "' drives nothing and is not an output");
    }
  }

  // The netlist's own topological sort leaves out every combinational
  // gate on (or behind) a loop; name the first few in instance order.
  void check_cycles() {
    const auto& cyclic = nl_.cyclic_instances();
    if (cyclic.empty()) return;
    std::string members;
    for (std::size_t k = 0; k < cyclic.size() && k < 8; ++k) {
      if (k > 0) members += ", ";
      members += nl_.instance(cyclic[k]).name;
    }
    sink_.error(codes::net_cycle,
                "combinational cycle through " +
                    std::to_string(cyclic.size()) +
                    " gate(s), including: " + members);
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
