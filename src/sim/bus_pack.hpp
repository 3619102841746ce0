// Shared checked bus<->integer packing.
//
// Driving a bus from an integer and packing a bus back into one used to
// be duplicated (with identical width/range checks and LSB-first bit
// order) across Simulator::set_bus/read_bus and the fault kernel. The
// two helpers below are the single definition of that loop: callers
// supply only how one net is driven or observed.
#pragma once

#include <cstdint>
#include <string>

#include "circuit/generators.hpp"  // circuit::Bus
#include "circuit/logic.hpp"
#include "circuit/netlist.hpp"
#include "util/error.hpp"

namespace lv::sim {

// Throws unless the bus fits the 64-bit packing contract. `what` names
// the operation in the error ("set_bus", "read_bus", ...).
inline void check_bus_width(const circuit::Bus& bus, const char* what) {
  if (bus.size() > 64)
    throw util::Error(std::string{what} + ": bus wider than 64 bits");
}

// Drives bus bit i (LSB first) with bit i of `value` through
// `drive(net, Logic)`. The callee owns any net-validity checking
// (set_input paths reject non-input nets by name).
template <class DriveFn>
void unpack_bus(const circuit::Bus& bus, std::uint64_t value, const char* what,
                DriveFn&& drive) {
  check_bus_width(bus, what);
  for (std::size_t i = 0; i < bus.size(); ++i)
    drive(bus[i], circuit::from_bool((value >> i) & 1));
}

// Packs the bus into `out` (LSB first) through `value_of(net) -> Logic`;
// returns false (out undefined beyond the known prefix) if any bit is X.
// `net_count` bounds the ids so a stale Bus fails loudly, not by UB.
template <class ValueFn>
bool pack_bus(const circuit::Bus& bus, std::size_t net_count, const char* what,
              ValueFn&& value_of, std::uint64_t& out) {
  check_bus_width(bus, what);
  out = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const circuit::NetId id = bus[i];
    if (id >= net_count)
      throw util::Error(std::string{what} + ": net out of range");
    const circuit::Logic v = value_of(id);
    if (!circuit::is_known(v)) return false;
    if (v == circuit::Logic::one) out |= (std::uint64_t{1} << i);
  }
  return true;
}

}  // namespace lv::sim
