// Fuzz target for the lvtech parser: no crash on arbitrary bytes, coded
// rejection (util::Error) for bad input, serialize -> reparse fixed point
// for accepted input, and the deep semantic validator must not crash on
// any Process the parser lets through. Process::validate() must throw
// exactly when the validator reports an error, with its first error (one
// rule set).
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "check/diag.hpp"
#include "check/validate.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"

namespace {
constexpr std::size_t kMaxInput = 1 << 16;
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > kMaxInput) return 0;
  const std::string_view text{reinterpret_cast<const char*>(data), size};
  try {
    const auto t = lv::tech::parse_techfile(text);

    lv::check::DiagSink sink;
    lv::check::validate(t, sink);
    try {
      t.validate();
      if (!sink.ok()) __builtin_trap();  // check rejects what builds
    } catch (const lv::check::InputError& e) {
      // Errors precede the validator's one warning (temp_k), so the
      // first diag is the first rule finding.
      if (sink.ok() || sink.diags().front().message != e.what())
        __builtin_trap();
    }

    if (sink.ok()) {
      const std::string once = lv::tech::to_techfile(t);
      const auto back = lv::tech::parse_techfile(once);
      const std::string twice = lv::tech::to_techfile(back);
      if (once != twice) __builtin_trap();
    }
  } catch (const lv::util::Error&) {
  }
  return 0;
}
