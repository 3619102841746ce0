// Fuzz target for the lvnet parser.
//
// Properties checked on every input the parser accepts:
//   1. No crash / sanitizer finding anywhere in parse or validate.
//   2. Serialization round-trips to a fixed point: parse -> serialize ->
//      reparse -> serialize must be byte-identical (the first serialize
//      canonicalizes; the second must be stable).
//   3. The semantic validator runs without crashing on whatever object
//      the parser produced.
//   4. Netlist::validate() throws exactly when the validator reports an
//      error, with the validator's first error (one rule set).
// Rejected inputs must throw util::Error (the InputError boundary) — any
// other exception type escaping is a bug and aborts the process.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "check/diag.hpp"
#include "check/validate.hpp"
#include "circuit/netlist_io.hpp"
#include "util/error.hpp"

namespace {
constexpr std::size_t kMaxInput = 1 << 16;  // parsers are line-based; 64 KiB
                                            // exercises everything
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > kMaxInput) return 0;
  const std::string_view text{reinterpret_cast<const char*>(data), size};
  try {
    // The parser checks syntax only, so the deep validator below also
    // gets fuzzed on degenerate topologies.
    const auto nl = lv::circuit::parse_netlist_text(text);

    lv::check::DiagSink sink;
    lv::check::validate(nl, sink);
    try {
      nl.validate();
      if (!sink.ok()) __builtin_trap();  // check rejects what builds
    } catch (const lv::check::InputError& e) {
      // Errors precede the validator's warnings, so the first diag is
      // the first rule finding.
      if (sink.ok() || sink.diags().front().message != e.what())
        __builtin_trap();
    }

    if (sink.ok()) {
      const std::string once = lv::circuit::to_netlist_text(nl);
      const auto back = lv::circuit::parse_netlist_text(once);
      const std::string twice = lv::circuit::to_netlist_text(back);
      if (once != twice) __builtin_trap();  // round-trip not a fixed point
    }
  } catch (const lv::util::Error&) {
    // Coded rejection is the contract for bad input.
  }
  return 0;
}
