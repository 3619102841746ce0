// Building blocks of the error rules each input type states next to its
// own definition (device/params.hpp, device/soias.hpp, tech/process.hpp,
// circuit/netlist.hpp).
//
// A rule set is a function template over a `report` callable, invoked as
// report(code, message) once per finding, in a fixed order. The message
// is built only for a finding, so a check that passes builds no string
// and allocates nothing. Two reporters read every rule set:
//   * check::validate forwards each finding to its DiagSink, so
//     `lvtool check` shows them all;
//   * throw_first (below) throws the first as a coded InputError, which
//     is how constructors and the validate() members reject an object.
//
// Header-only for the same reason as check/diag.hpp: the modules below
// lv_check state their rules without a link edge to it.
#pragma once

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "check/codes.hpp"
#include "check/diag.hpp"

namespace lv::check::rule {

// The reporter that turns the first finding into a thrown InputError.
struct ThrowFirst {
  [[noreturn]] void operator()(const char* code, std::string message) const {
    throw InputError(code, std::move(message));
  }
};
inline constexpr ThrowFirst throw_first{};

// "nmos.vt0" for a field of a named section, "temp_k" without one.
inline std::string field_name(std::string_view section, const char* name) {
  std::string out{section};
  if (!out.empty()) out += '.';
  return out += name;
}

inline constexpr double kMax = std::numeric_limits<double>::max();
// The lower bound of a field that must be > 0.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

// One numeric field of a parameter struct and its bound: the value must
// lie in [lo, hi], which also excludes NaN and the infinities. A bound
// of [0, kMax] or [kPositive, kMax] is reported as ">= 0" or "> 0"
// (tech.nonpositive), any other as a range (tech.range).
template <typename T>
struct Field {
  const char* name;
  double T::*member;
  double lo = -kMax;
  double hi = kMax;
};

template <typename T>
using Fields = std::span<const Field<T>>;

template <typename T>
bool holds(const T& object, const Field<T>& f) {
  const double v = object.*f.member;
  return v >= f.lo && v <= f.hi;
}

// True when every row holds: the whole check of an object that passes.
template <typename T>
bool holds(const T& object, std::type_identity_t<Fields<T>> fields) {
#pragma GCC unroll 32  // a device build runs this: fold each row's bounds
  for (const Field<T>& f : fields)
    if (!holds(object, f)) return false;
  return true;
}

// The bound of one row. A non-finite value is left to finite_fields.
template <typename T, typename Report>
void bounded(const T& object, const Field<T>& f, std::string_view section,
             Report& report) {
  const double v = object.*f.member;
  if (!std::isfinite(v) || holds(object, f)) return;
  if (f.hi == kMax && (f.lo == 0.0 || f.lo == kPositive))
    report(codes::tech_nonpositive,
           field_name(section, f.name) + " must be " +
               (f.lo == 0.0 ? ">= 0" : "> 0") + ", got " + std::to_string(v));
  else
    report(codes::tech_range, field_name(section, f.name) + " = " +
                                  std::to_string(v) + " outside [" +
                                  std::to_string(f.lo) + ", " +
                                  std::to_string(f.hi) + "]");
}

// Finiteness of every row, in table order.
template <typename T, typename Report>
void finite_fields(const T& object, std::type_identity_t<Fields<T>> fields,
                   std::string_view section, Report& report) {
  for (const Field<T>& f : fields) {
    const double v = object.*f.member;
    if (!std::isfinite(v))
      report(codes::tech_nonfinite, field_name(section, f.name) +
                                        " is not finite (" +
                                        std::to_string(v) + ")");
  }
}

// The bound of every row, in table order.
template <typename T, typename Report>
void bounded_fields(const T& object, std::type_identity_t<Fields<T>> fields,
                    std::string_view section, Report& report) {
  for (const Field<T>& f : fields) bounded(object, f, section, report);
}

// Throws the first finding of every row as a coded InputError: a
// non-finite value first, then a bound, as a process reports them.
template <typename T>
void require(const T& object, std::type_identity_t<Fields<T>> fields,
             std::string_view section) {
  if (holds(object, fields)) return;  // every device build runs this
  finite_fields(object, fields, section, throw_first);
  bounded_fields(object, fields, section, throw_first);
}

}  // namespace lv::check::rule
