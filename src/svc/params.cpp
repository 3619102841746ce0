#include "svc/params.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/codes.hpp"
#include "svc/handlers.hpp"

namespace lv::svc {

namespace {

// Every table a command line can be checked against, in `lvtool help`
// order.
std::vector<const Command*> all_commands() {
  std::vector<const Command*> all;
  for (const OpSpec& op : registry()) all.push_back(&op.command);
  for (const Command* c : {&serve_command(), &client_command(),
                           &request_options(), &process_options()})
    all.push_back(c);
  return all;
}

const Arg* find_option(const Command& command, const std::string& token) {
  for (const Arg& a : command.options)
    if (token == a.name || (a.alias != nullptr && token == a.alias)) return &a;
  return nullptr;
}

[[noreturn]] void fail(const char* code, const std::string& message) {
  throw check::InputError(code, message);
}

void check_value(const Arg& a, const std::string& value) {
  switch (a.type) {
    case ArgType::number:
      check::require_double(value, a.name);
      break;
    case ArgType::positive:
      if (!(check::require_double(value, a.name) > 0.0))
        fail(check::codes::cli_number,
             std::string(a.name) + " must be > 0, got " + value);
      break;
    case ArgType::integer:
      if (const long long n = check::require_int(value, a.name);
          n < a.lo || n > a.hi)
        fail(check::codes::cli_number,
             std::string(a.name) + " must be " +
                 (a.hi == LLONG_MAX ? ">= " + std::to_string(a.lo)
                                    : "in [" + std::to_string(a.lo) + ", " +
                                          std::to_string(a.hi) + "]") +
                 ", got " + value);
      break;
    case ArgType::one_of:
      if (("|" + std::string(a.choices) + "|").find("|" + value + "|") ==
          std::string::npos)
        fail(check::codes::cli_option, "unknown " + std::string(a.name) +
                                           " '" + value + "' (" + a.choices +
                                           ")");
      break;
    default:  // text, file, flag: any value
      break;
  }
}

// The tokenizer behind parse_params (every table) and parse_prefix (one
// table, stops at the first positional). An undeclared "--key" takes a
// value and is kept for validate() to reject.
Params tokenize(const std::vector<const Command*>& tables, bool prefix,
                int argc, char** argv, int& i) {
  Params params;
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    const Arg* a = nullptr;
    for (const Command* table : tables)
      if ((a = find_option(*table, token)) != nullptr) break;
    if (a == nullptr && token.rfind("--", 0) != 0) {
      if (prefix) break;
      params.positional.push_back(token);
    } else if (a != nullptr && a->type == ArgType::flag) {
      params.options[a->name] = "1";
    } else if (i + 1 >= argc) {
      fail(check::codes::cli_option, "option '" + token + "' needs a value");
    } else {
      params.options[a != nullptr ? a->name : token] = argv[++i];
    }
  }
  return params;
}

std::string placeholder(const Arg& a) {
  switch (a.type) {
    case ArgType::flag: return "";
    case ArgType::integer: return " N";
    case ArgType::text: return " S";
    case ArgType::file: return " FILE";
    case ArgType::one_of: return std::string(" ") + a.choices;
    default: return " X";
  }
}

std::string type_text(const Arg& a) {
  switch (a.type) {
    case ArgType::number: return "number";
    case ArgType::positive: return "number > 0";
    case ArgType::integer:
      return a.hi == LLONG_MAX ? "integer >= " + std::to_string(a.lo)
                               : "integer in [" + std::to_string(a.lo) +
                                     ", " + std::to_string(a.hi) + "]";
    case ArgType::text: return "text";
    case ArgType::file: return "file";
    case ArgType::flag: return "flag";
    case ArgType::one_of: return std::string("one of ") + a.choices;
  }
  return "";
}

}  // namespace

const std::string& Params::declared(const std::string& key) const {
  const auto it = options.find(key);
  if (it == options.end())
    throw std::logic_error("option " + key + " read but neither given nor "
                           "declared with a default");
  return it->second;
}

Params validate(const Command& command, Params params, const Command* shared) {
  const std::string name = command.name;
  const std::size_t want = command.positionals.size();
  if (params.positional.size() < want)
    fail(check::codes::cli_option,
         name + " needs " + command.positionals[params.positional.size()].name);
  if (params.positional.size() > want)
    fail(check::codes::cli_option,
         name + ": unexpected argument '" + params.positional[want] + "'");
  for (std::size_t i = 0; i < want; ++i)
    check_value(command.positionals[i], params.positional[i]);

  for (const auto& [key, value] : params.options) {
    const Arg* a = find_option(command, key);
    if (a == nullptr && shared != nullptr) a = find_option(*shared, key);
    if (a == nullptr || key != a->name)
      fail(check::codes::cli_option,
           "unknown option '" + key + "' for " + name);
    check_value(*a, value);
  }
  // Groups count what was given, so they are checked before the defaults
  // are filled in.
  for (const Group g : {Group::exclusive, Group::required}) {
    std::string members;
    std::size_t given = 0;
    for (const Arg& a : command.options) {
      if (a.group != g) continue;
      members += (members.empty() ? "" : " | ") + std::string(a.name);
      given += params.options.count(a.name);
    }
    if (given > 1 || (g == Group::required && !members.empty() && given == 0))
      fail(check::codes::cli_option,
           name + " takes " + (g == Group::required ? "exactly" : "at most") +
               " one of " + members);
  }
  for (const Command* table : {&command, shared})
    if (table != nullptr)
      for (const Arg& a : table->options)
        if (!a.fallback.empty()) params.options.emplace(a.name, a.fallback);
  return params;
}

Params parse_params(int argc, char** argv, int first) {
  return tokenize(all_commands(), false, argc, argv, first);
}

Params parse_prefix(const Command& command, int argc, char** argv,
                    int& first) {
  return tokenize({&command}, true, argc, argv, first);
}

std::string help_text() {
  std::string s =
      "lvtool — low-voltage design toolkit CLI\n"
      "usage: lvtool <command> [arguments]; exit 0 = success, 2 = input "
      "error, 1 = internal error\n";
  for (const Command* c : all_commands()) {
    s += "\n  " + std::string(c->name);
    for (const Arg& a : c->positionals) s += " " + std::string(a.name);
    for (std::size_t i = 0; i < c->options.size(); ++i) {
      const Arg& a = c->options[i];
      const bool first = i == 0 || c->options[i - 1].group != a.group;
      const bool last = i + 1 == c->options.size() ||
                        c->options[i + 1].group != a.group;
      const char* open = a.group == Group::required ? "(" : "[";
      s += a.group == Group::none || first ? std::string(" ") + open : " | ";
      s += a.name + placeholder(a);
      if (a.group == Group::none || last)
        s += a.group == Group::required ? ")" : "]";
    }
    s += "\n      " + std::string(c->summary) + "\n";
    for (const std::vector<Arg>* list : {&c->positionals, &c->options})
      for (const Arg& a : *list) {
        std::string line = "      " + std::string(a.name);
        if (a.alias != nullptr) line += std::string(", ") + a.alias;
        line.resize(std::max<std::size_t>(line.size() + 1, 26), ' ');
        line += std::string(a.help) + " (" + type_text(a);
        if (!a.fallback.empty()) line += "; default " + a.fallback;
        s += line + ")\n";
      }
  }
  return s;
}

}  // namespace lv::svc
