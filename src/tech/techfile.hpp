// Text format for Process descriptions ("tech files").
//
// Layout: INI-style sections with key = value pairs, '#' comments, and a
// required "lvtech 1" version header. Example:
//
//     lvtech 1
//     [process]
//     name = soias
//     vdd_nominal = 1.0
//     vt_control = soias_backgate
//     [nmos]
//     vt0 = 0.448
//     n_sub = 1.10
//     [soias]
//     t_si = 45e-9
//
// Unknown keys are an error (catching typos in calibration files is the
// point of having a parser). Missing keys keep the default value from the
// corresponding predefined baseline, so files only state what they change.
#pragma once

#include <string>
#include <string_view>

#include "tech/process.hpp"

namespace lv::tech {

// Serializes every field so the output round-trips exactly.
std::string to_techfile(const Process& process);

// Parses a tech file; throws lv::check::InputError (a lv::util::Error
// carrying a coded diagnostic with the line number) on any syntax error,
// unknown section/key, or non-numeric value. Syntax only: the values are
// not checked against Process::visit_rules, so a caller that needs a
// usable process reads the file through check::require_techfile.
Process parse_techfile(std::string_view text);

}  // namespace lv::tech
