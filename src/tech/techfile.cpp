#include "tech/techfile.hpp"

#include <charconv>
#include <cstdio>
#include <span>
#include <sstream>

#include "check/codes.hpp"
#include "check/diag.hpp"

namespace lv::tech {

namespace {

namespace dev = lv::device;

std::string format_double(double v) {
  // 17 significant digits: the minimum guaranteeing that every binary64
  // value survives the text round-trip bit-exactly.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using check::rule::Fields;

template <typename T>
void emit_fields(std::ostringstream& out, const T& object, Fields<T> fields) {
  for (const auto& f : fields)
    out << f.name << " = " << format_double(object.*f.member) << '\n';
}

// Sets the field named `key`; false when no field has that name.
template <typename T>
bool assign_field(T& object, Fields<T> fields, std::string_view key,
                  double value) {
  for (const auto& f : fields) {
    if (key != f.name) continue;
    object.*f.member = value;
    return true;
  }
  return false;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(int line, const std::string& message,
                       const char* code = check::codes::tech_syntax) {
  throw check::InputError(
      code, "techfile line " + std::to_string(line) + ": " + message,
      {"", line});
}

double parse_number(std::string_view value, int line) {
  // std::from_chars(double) is available in libstdc++ 11+.
  double out = 0.0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto result = std::from_chars(first, last, out);
  if (result.ec != std::errc{} || result.ptr != last)
    fail(line, "expected a number, got '" + std::string(value) + "'",
         check::codes::tech_number);
  return out;
}

VtControl parse_vt_control(std::string_view value, int line) {
  if (value == "fixed") return VtControl::fixed;
  if (value == "soias_backgate") return VtControl::soias_backgate;
  if (value == "dual_vt") return VtControl::dual_vt;
  if (value == "body_bias") return VtControl::body_bias;
  fail(line, "unknown vt_control '" + std::string(value) + "'");
}

}  // namespace

std::string to_techfile(const Process& t) {
  std::ostringstream out;
  out << "lvtech 1\n";
  out << "[process]\n";
  out << "name = " << t.name << '\n';
  // vt_control follows the unit widths, where files have always had it.
  const Fields<Process> scalars = kProcessFields;
  emit_fields(out, t, scalars.first(7));
  out << "vt_control = " << to_string(t.vt_control) << '\n';
  emit_fields(out, t, scalars.subspan(7));
  out << "[nmos]\n";
  emit_fields<dev::MosfetParams>(out, t.nmos, dev::kMosfetFields);
  out << "[pmos]\n";
  emit_fields<dev::MosfetParams>(out, t.pmos, dev::kMosfetFields);
  out << "[soias]\n";
  emit_fields<dev::SoiasGeometry>(out, t.soias_geometry, dev::kSoiasFields);
  return out.str();
}

Process parse_techfile(std::string_view text) {
  Process t = soi_low_vt();  // defaults; files state what they change
  t.name = "unnamed";
  t.nmos.polarity = dev::Polarity::nmos;
  t.pmos.polarity = dev::Polarity::pmos;

  std::string section;
  int line_no = 0;
  bool saw_header = false;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (!saw_header) {
      if (line != "lvtech 1") fail(line_no, "missing 'lvtech 1' header");
      saw_header = true;
      continue;
    }

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      section = std::string(trim(line.substr(1, line.size() - 2)));
      if (section != "process" && section != "nmos" && section != "pmos" &&
          section != "soias")
        fail(line_no, "unknown section '" + section + "'");
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_no, "expected 'key = value'");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line_no, "empty key or value");

    if (section == "process") {
      if (key == "name") {
        t.name = std::string(value);
      } else if (key == "vt_control") {
        t.vt_control = parse_vt_control(value, line_no);
      } else if (!assign_field<Process>(t, kProcessFields, key,
                                        parse_number(value, line_no))) {
        fail(line_no, "unknown [process] key '" + std::string(key) + "'",
             check::codes::tech_unknown_key);
      }
    } else if (section == "nmos" || section == "pmos") {
      auto& p = section == "nmos" ? t.nmos : t.pmos;
      if (!assign_field<dev::MosfetParams>(p, dev::kMosfetFields, key,
                                           parse_number(value, line_no)))
        fail(line_no, "unknown [" + section + "] key '" + std::string(key) + "'",
             check::codes::tech_unknown_key);
    } else if (section == "soias") {
      if (!assign_field<dev::SoiasGeometry>(t.soias_geometry,
                                            dev::kSoiasFields, key,
                                            parse_number(value, line_no)))
        fail(line_no, "unknown [soias] key '" + std::string(key) + "'",
             check::codes::tech_unknown_key);
    } else {
      fail(line_no, "key outside any section");
    }
  }

  if (!saw_header)
    throw check::InputError(check::codes::tech_syntax, "techfile: empty input");
  return t;
}

}  // namespace lv::tech
