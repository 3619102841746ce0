#include "circuit/cells.hpp"

#include <array>
#include <cctype>
#include <string>

#include "util/error.hpp"

namespace lv::circuit {

namespace {

constexpr std::size_t kKindCount = static_cast<std::size_t>(CellKind::kind_count);

// Physical parameters follow classic sizing practice: series devices are
// upsized by the stack height to restore drive, so an n-high NAND stack
// contributes n_inputs * stack unit widths of NMOS. Flip-flop numbers
// approximate transistor counts of the published register styles:
// C2MOS ~ 18 devices with a heavily loaded clock, TSPC ~ 11 devices and a
// single clock phase, LCLR ~ 8 devices (Barber, MIT SM thesis 1996).
constexpr std::array<CellInfo, kKindCount> kCatalog{{
    // name       in  seq   pin   drv   nW    pW   nS pS  intr  clkC
    {"INV",        1, false, 1.0, 1.0,  1.0,  1.0, 1, 1, 1.0, 0.0},
    {"BUF",        1, false, 1.0, 1.0,  2.0,  2.0, 1, 1, 1.4, 0.0},
    {"NAND2",      2, false, 1.5, 1.0,  4.0,  2.0, 2, 1, 1.5, 0.0},
    {"NAND3",      3, false, 2.0, 1.0,  9.0,  3.0, 3, 1, 2.0, 0.0},
    {"NAND4",      4, false, 2.5, 1.0, 16.0,  4.0, 4, 1, 2.5, 0.0},
    {"NOR2",       2, false, 1.5, 1.0,  2.0,  4.0, 1, 2, 1.5, 0.0},
    {"NOR3",       3, false, 2.0, 1.0,  3.0,  9.0, 1, 3, 2.0, 0.0},
    {"NOR4",       4, false, 2.5, 1.0,  4.0, 16.0, 1, 4, 2.5, 0.0},
    {"AND2",       2, false, 1.5, 1.0,  5.0,  3.0, 2, 1, 1.8, 0.0},
    {"OR2",        2, false, 1.5, 1.0,  3.0,  5.0, 1, 2, 1.8, 0.0},
    {"XOR2",       2, false, 2.0, 0.9,  3.0,  3.0, 2, 2, 2.2, 0.0},
    {"XNOR2",      2, false, 2.0, 0.9,  3.0,  3.0, 2, 2, 2.2, 0.0},
    {"AOI21",      3, false, 1.5, 0.9,  4.0,  4.0, 2, 2, 1.8, 0.0},
    {"OAI21",      3, false, 1.5, 0.9,  4.0,  4.0, 2, 2, 1.8, 0.0},
    {"MUX2",       3, false, 1.5, 0.9,  4.0,  4.0, 2, 2, 2.0, 0.0},
    {"TIE0",       0, false, 0.0, 0.3,  1.0,  0.0, 1, 1, 0.5, 0.0},
    {"TIE1",       0, false, 0.0, 0.3,  0.0,  1.0, 1, 1, 0.5, 0.0},
    {"DFF",        2, true,  1.5, 1.0,  9.0,  9.0, 2, 2, 3.0, 3.0},
    {"DFF_C2MOS",  2, true,  2.0, 1.0, 10.0, 10.0, 2, 2, 3.6, 4.5},
    {"DFF_TSPC",   2, true,  1.3, 1.0,  6.5,  6.5, 2, 2, 2.6, 2.4},
    {"DFF_LCLR",   2, true,  1.0, 0.9,  4.5,  4.5, 2, 2, 2.0, 1.5},
}};

bool equals_ignoring_case(std::string_view a, std::string_view b) {
  const auto lower = [](char ch) {
    return std::tolower(static_cast<unsigned char>(ch));
  };
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (lower(a[i]) != lower(b[i])) return false;
  return true;
}

}  // namespace

const CellInfo& cell_info(CellKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  lv::util::require(idx < kKindCount, "cell_info: invalid CellKind");
  return kCatalog[idx];
}

CellKind cell_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (equals_ignoring_case(kCatalog[i].name, name))
      return static_cast<CellKind>(i);
  }
  return CellKind::kind_count;
}

Logic evaluate_cell(CellKind kind, std::span<const Logic> inputs) {
  const CellInfo& info = cell_info(kind);
  lv::util::require(!info.sequential,
                    "evaluate_cell: sequential cell evaluated combinationally");
  lv::util::require(inputs.size() == static_cast<std::size_t>(info.input_count),
                    "evaluate_cell: wrong input count");
  switch (kind) {
    case CellKind::inv:
      return logic_not(inputs[0]);
    case CellKind::buf:
      return inputs[0];
    case CellKind::nand2:
      return logic_not(logic_and(inputs[0], inputs[1]));
    case CellKind::nand3:
      return logic_not(logic_and(logic_and(inputs[0], inputs[1]), inputs[2]));
    case CellKind::nand4:
      return logic_not(logic_and(logic_and(inputs[0], inputs[1]),
                                 logic_and(inputs[2], inputs[3])));
    case CellKind::nor2:
      return logic_not(logic_or(inputs[0], inputs[1]));
    case CellKind::nor3:
      return logic_not(logic_or(logic_or(inputs[0], inputs[1]), inputs[2]));
    case CellKind::nor4:
      return logic_not(logic_or(logic_or(inputs[0], inputs[1]),
                                logic_or(inputs[2], inputs[3])));
    case CellKind::and2:
      return logic_and(inputs[0], inputs[1]);
    case CellKind::or2:
      return logic_or(inputs[0], inputs[1]);
    case CellKind::xor2:
      return logic_xor(inputs[0], inputs[1]);
    case CellKind::xnor2:
      return logic_not(logic_xor(inputs[0], inputs[1]));
    case CellKind::aoi21:
      return logic_not(logic_or(logic_and(inputs[0], inputs[1]), inputs[2]));
    case CellKind::oai21:
      return logic_not(logic_and(logic_or(inputs[0], inputs[1]), inputs[2]));
    case CellKind::mux2:
      return logic_mux(inputs[0], inputs[1], inputs[2]);
    case CellKind::tie0:
      return Logic::zero;
    case CellKind::tie1:
      return Logic::one;
    default:
      throw lv::util::Error("evaluate_cell: unhandled cell kind");
  }
}

}  // namespace lv::circuit
