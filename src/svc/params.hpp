// Request parameters and their declarations, shared by every front-end of
// the lv::svc request layer.
//
// The CLI tokenizes argv into a Params; `lvtool client` does the same and
// ships it over the wire; the server decodes it back. What a command
// accepts is declared once, as a Command table: its positionals and its
// options, each with a type, a default or none, an optional group and one
// help line. That table is the only description of the command. It tells
// the tokenizer which options are value-less flags and which aliases
// exist, run_request checks every request against it before dispatch and
// fills the declared defaults in, `lvtool client` takes the files to upload
// from it, and `lvtool help` is printed from it. An undeclared option, a
// missing or extra positional, a malformed or out-of-range value and a
// group violation are the caller's input errors (coded cli.option or
// cli.number, exit 2 at the CLI, a diagnostic response over the protocol).
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/parse.hpp"

namespace lv::svc {

struct Params {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // "--key" -> value

  bool flag(const std::string& key) const {
    return options.count(key) != 0;
  }
  std::optional<std::string> text(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : check::require_double(it->second, key);
  }
  // Options with a declared default. validate() fills those in, so reading
  // one that is absent is a programming error (std::logic_error), never
  // the caller's.
  double number(const std::string& key) const {
    return check::require_double(declared(key), key);
  }
  long long integer(const std::string& key) const {
    return check::require_int(declared(key), key);
  }

 private:
  const std::string& declared(const std::string& key) const;
};

enum class ArgType : std::uint8_t {
  number, positive, integer, text, file, flag, one_of
};

// At most one `exclusive` option of a command may be given, and exactly
// one `required` option must be.
enum class Group : std::uint8_t { none, exclusive, required };

struct Arg {
  const char* name;  // "--vdd", or a positional's "<netlist>"
  ArgType type;
  const char* help;           // one line of `lvtool help`
  std::string fallback = "";  // default value ("" = none)
  const char* role = nullptr;     // file: the Request::inputs role
  const char* choices = nullptr;  // one_of: "a|b|c"
  long long lo = 0;               // integer: inclusive range
  long long hi = 0;
  Group group = Group::none;
  const char* alias = nullptr;  // another spelling, e.g. "-o"

  Arg in(Group g) const {
    Arg a = *this;
    a.group = g;
    return a;
  }
};

namespace arg {
inline Arg number(const char* name, std::string fallback, const char* help) {
  return {name, ArgType::number, help, std::move(fallback)};
}
inline Arg positive(const char* name, std::string fallback, const char* help) {
  return {name, ArgType::positive, help, std::move(fallback)};
}
inline Arg integer(const char* name, long long lo, long long hi,
                   std::string fallback, const char* help) {
  return {name, ArgType::integer, help, std::move(fallback), nullptr, nullptr,
          lo, hi};
}
inline Arg text(const char* name, const char* help,
                const char* alias = nullptr) {
  return {name, ArgType::text, help, "", nullptr, nullptr, 0, 0,
          Group::none, alias};
}
inline Arg file(const char* name, const char* role, const char* help) {
  return {name, ArgType::file, help, "", role};
}
inline Arg flag(const char* name, const char* help) {
  return {name, ArgType::flag, help};
}
inline Arg one_of(const char* name, const char* choices, const char* help) {
  return {name, ArgType::one_of, help, "", nullptr, choices};
}
}  // namespace arg

struct Command {
  const char* name;     // "power"
  const char* summary;  // one line of `lvtool help`
  std::vector<Arg> positionals;  // all required, in order
  std::vector<Arg> options;
};

// Checks `params` against `command` (plus the options of `shared`, when
// given) and returns them with every declared default filled in. Throws
// a coded check::InputError on the first violation.
Params validate(const Command& command, Params params,
                const Command* shared = nullptr);

// Tokenizes argv[first..) into positionals and "--key value" options. A
// token some command declares as a flag takes no value, and a declared
// alias ("-o") is stored under its option's name ("--out").
Params parse_params(int argc, char** argv, int first);

// Tokenizes argv[first..) like parse_params, with `command`'s flags
// alone, and stops at the first positional, which `first` is left at.
Params parse_prefix(const Command& command, int argc, char** argv,
                    int& first);

// `lvtool help`: every command's synopsis and argument lines.
std::string help_text();

}  // namespace lv::svc
