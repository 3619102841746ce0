#include "check/diag.hpp"

#include <sstream>

#include "util/json.hpp"

namespace lv::check {

std::string Diag::to_string() const {
  std::ostringstream out;
  if (!loc.file.empty()) out << loc.file << ':';
  if (loc.line > 0) out << loc.line << ':';
  if (!loc.file.empty() || loc.line > 0) out << ' ';
  out << check::to_string(severity) << ": [" << code << "] " << message;
  return out.str();
}

void DiagSink::report(Diag d) {
  if (d.loc.file.empty()) d.loc.file = context_file_;
  if (d.severity == Severity::error) ++errors_;
  if (d.severity == Severity::warning) ++warnings_;
  diags_.push_back(std::move(d));
}

void DiagSink::error(std::string code, std::string message, SourceLoc loc) {
  report({Severity::error, std::move(code), std::move(message),
          std::move(loc)});
}

void DiagSink::warning(std::string code, std::string message, SourceLoc loc) {
  report({Severity::warning, std::move(code), std::move(message),
          std::move(loc)});
}

void DiagSink::note(std::string code, std::string message, SourceLoc loc) {
  report({Severity::note, std::move(code), std::move(message),
          std::move(loc)});
}

bool DiagSink::has(std::string_view code) const {
  for (const Diag& d : diags_)
    if (d.code == code) return true;
  return false;
}

std::string DiagSink::to_text() const {
  std::ostringstream out;
  for (const Diag& d : diags_) out << d.to_string() << '\n';
  return out.str();
}

std::string DiagSink::to_json(bool pretty) const {
  const char* nl = pretty ? "\n" : "";
  const char* ind = pretty ? "  " : "";
  const char* ind2 = pretty ? "    " : "";
  const char* sp = pretty ? " " : "";
  std::ostringstream out;
  out << '{' << nl;
  out << ind << "\"schema\":" << sp << "\"lv-diag/1\"," << nl;
  out << ind << "\"errors\":" << sp << errors_ << ',' << nl;
  out << ind << "\"warnings\":" << sp << warnings_ << ',' << nl;
  out << ind << "\"diags\":" << sp << '[' << nl;
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diag& d = diags_[i];
    out << ind2 << "{\"severity\":" << sp << '"' << to_string(d.severity)
        << "\"," << sp << "\"code\":" << sp << '"'
        << util::json_escape(d.code) << "\"," << sp << "\"message\":" << sp
        << '"' << util::json_escape(d.message) << '"';
    if (!d.loc.file.empty())
      out << ',' << sp << "\"file\":" << sp << '"'
          << util::json_escape(d.loc.file) << '"';
    if (d.loc.line > 0) out << ',' << sp << "\"line\":" << sp << d.loc.line;
    out << '}' << (i + 1 < diags_.size() ? "," : "") << nl;
  }
  out << ind << ']' << nl;
  out << '}' << nl;
  return out.str();
}

}  // namespace lv::check
