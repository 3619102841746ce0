// JSON string escaping shared by the lv-run-report/1 writer
// (obs/run_report.cpp) and the lv-diag/1 renderer (check/diag.cpp).
#pragma once

#include <string>

namespace lv::util {

// Escapes `s` for use inside a JSON string literal: quote, backslash and
// the named control escapes, \u00XX for the other control bytes; every
// other byte passes through unchanged.
std::string json_escape(const std::string& s);

}  // namespace lv::util
