// Error type for unrecoverable misuse (bad construction arguments, parse
// failures). lvsim throws only from constructors, parsers, and factory
// functions; steady-state numeric code reports via return values.
#pragma once

#include <stdexcept>
#include <string>

namespace lv::util {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Throws Error with `message` when `condition` is false. Used to validate
// constructor/factory arguments (Core Guidelines I.6: prefer stating
// preconditions).
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

// Literal-message overload: builds the message only when the check
// fails, so a passing check costs no allocation.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace lv::util
