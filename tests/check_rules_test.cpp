// One rule set per input format. `lvtool check` (check::validate) and
// construction (the device constructors, Process::validate,
// Netlist::validate, SimGraph) must agree on every input: the checker
// reports an error exactly when construction throws, with the same code,
// at each bound and one ulp past it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "check/validate.hpp"
#include "circuit/netlist.hpp"
#include "device/soias.hpp"
#include "sim/sim_graph.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "tech/process.hpp"

namespace chk = lv::check;
namespace codes = lv::check::codes;
namespace dev = lv::device;
namespace c = lv::circuit;
namespace tech = lv::tech;

namespace {

using Verdict = std::optional<std::string>;  // error code, or accepted

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double below(double v) { return std::nextafter(v, -kInf); }
double above(double v) { return std::nextafter(v, kInf); }

// The code of the first error `lvtool check` reports.
template <typename T>
Verdict check_verdict(const T& object) {
  chk::DiagSink sink;
  chk::validate(object, sink);
  for (const chk::Diag& d : sink.diags())
    if (d.severity == chk::Severity::error) return d.code;
  return std::nullopt;
}

// The code of the InputError `build` throws.
Verdict build_verdict(const std::function<void()>& build) {
  try {
    build();
  } catch (const chk::InputError& e) {
    return e.code();
  }
  return std::nullopt;
}

// Values on each side of a field's bound, each with the code it must
// draw (none when accepted). A bound with no upper end is a sign rule.
template <typename T>
std::vector<std::pair<double, Verdict>> probes(const chk::rule::Field<T>& f) {
  using chk::rule::kMax;
  std::vector<std::pair<double, Verdict>> out = {
      {kNan, codes::tech_nonfinite}, {kInf, codes::tech_nonfinite}};
  if (f.lo == -kMax) {
    out.insert(out.end(), {{0.0, {}}, {-1.0, {}}});
  } else {
    out.insert(out.end(), {{f.lo, {}},
                           {below(f.lo), f.hi == kMax ? codes::tech_nonpositive
                                                      : codes::tech_range}});
  }
  if (f.hi != kMax)
    out.insert(out.end(), {{f.hi, {}}, {above(f.hi), codes::tech_range}});
  return out;
}

std::string label(const char* field, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s = %.17g", field, v);
  return buf;
}

}  // namespace

TEST(RuleAgreement, EveryMosfetBoundAgreesWithTheDevices) {
  for (const auto& f : dev::kMosfetFields) {
    for (const auto& [v, want] : probes(f)) {
      auto t = tech::soi_low_vt();
      t.pmos.*f.member = v;
      const std::string at = label(f.name, v);
      EXPECT_EQ(check_verdict(t), want) << at;
      EXPECT_EQ(build_verdict([&] { t.validate(); }), want) << at;
      EXPECT_EQ(build_verdict([&] { (void)t.make_pmos(); }), want) << at;
      EXPECT_EQ(build_verdict([&] { (void)t.pmos_caps(); }), want) << at;
    }
  }
}

TEST(RuleAgreement, EverySoiasBoundAgreesWithTheDevice) {
  for (const auto& f : dev::kSoiasFields) {
    for (const auto& [v, want] : probes(f)) {
      auto t = tech::soias();
      t.soias_geometry.*f.member = v;
      const std::string at = label(f.name, v);
      EXPECT_EQ(check_verdict(t), want) << at;
      EXPECT_EQ(build_verdict([&] { t.validate(); }), want) << at;
      EXPECT_EQ(build_verdict([&] {
                  (void)dev::SoiasDevice{t.make_nmos(), t.soias_geometry};
                }),
                want)
          << at;
    }
  }
}

TEST(RuleAgreement, EveryProcessRuleAgreesWithValidate) {
  struct Case {
    const char* field;
    tech::Process (*base)();
    double tech::Process::*member;
    double value;
    Verdict want;
  };
  const double vdd = tech::soi_low_vt().vdd_nominal;
  const Case cases[] = {
      {"vdd_min", tech::soi_low_vt, &tech::Process::vdd_min, above(0.0), {}},
      {"vdd_min", tech::soi_low_vt, &tech::Process::vdd_min, 0.0,
       codes::tech_vdd_order},
      {"vdd_min", tech::soi_low_vt, &tech::Process::vdd_min, vdd, {}},
      {"vdd_min", tech::soi_low_vt, &tech::Process::vdd_min, above(vdd),
       codes::tech_vdd_order},
      {"vdd_max", tech::soi_low_vt, &tech::Process::vdd_max, vdd, {}},
      {"vdd_max", tech::soi_low_vt, &tech::Process::vdd_max, below(vdd),
       codes::tech_vdd_order},
      {"vdd_nominal", tech::soi_low_vt, &tech::Process::vdd_nominal, kNan,
       codes::tech_nonfinite},
      {"unit_nmos_width", tech::soi_low_vt, &tech::Process::unit_nmos_width,
       above(0.0), {}},
      {"unit_nmos_width", tech::soi_low_vt, &tech::Process::unit_nmos_width,
       0.0, codes::tech_nonpositive},
      {"unit_pmos_width", tech::soi_low_vt, &tech::Process::unit_pmos_width,
       0.0, codes::tech_nonpositive},
      {"wire_cap_per_m", tech::soi_low_vt, &tech::Process::wire_cap_per_m,
       0.0, {}},
      {"wire_cap_per_m", tech::soi_low_vt, &tech::Process::wire_cap_per_m,
       below(0.0), codes::tech_nonpositive},
      {"avg_wire_per_fanout", tech::soi_low_vt,
       &tech::Process::avg_wire_per_fanout, below(0.0),
       codes::tech_nonpositive},
      // A temperature outside 150-500 K is only a warning.
      {"temp_k", tech::soi_low_vt, &tech::Process::temp_k, above(0.0), {}},
      {"temp_k", tech::soi_low_vt, &tech::Process::temp_k, 0.0,
       codes::tech_nonpositive},
      {"temp_k", tech::soi_low_vt, &tech::Process::temp_k, kInf,
       codes::tech_nonfinite},
      {"backgate_swing", tech::soias, &tech::Process::backgate_swing, 0.0, {}},
      {"backgate_swing", tech::soias, &tech::Process::backgate_swing,
       below(0.0), codes::tech_nonpositive},
      // A field another VT control needs is still checked for finiteness.
      {"backgate_swing", tech::soi_low_vt, &tech::Process::backgate_swing,
       below(0.0), {}},
      {"backgate_swing", tech::soi_low_vt, &tech::Process::backgate_swing,
       kNan, codes::tech_nonfinite},
      {"high_vt_offset", tech::dual_vt_mtcmos, &tech::Process::high_vt_offset,
       above(0.0), {}},
      {"high_vt_offset", tech::dual_vt_mtcmos, &tech::Process::high_vt_offset,
       0.0, codes::tech_nonpositive},
      {"standby_body_bias", tech::bulk_body_bias,
       &tech::Process::standby_body_bias, 0.0, {}},
      {"standby_body_bias", tech::bulk_body_bias,
       &tech::Process::standby_body_bias, below(0.0),
       codes::tech_nonpositive},
  };
  for (const Case& k : cases) {
    auto t = k.base();
    t.*k.member = k.value;
    const std::string at = t.name + ": " + label(k.field, k.value);
    EXPECT_EQ(check_verdict(t), k.want) << at;
    EXPECT_EQ(build_verdict([&] { t.validate(); }), k.want) << at;
  }

  auto unnamed = tech::soi_low_vt();
  unnamed.name.clear();
  EXPECT_EQ(check_verdict(unnamed), Verdict{codes::tech_range});
  EXPECT_EQ(build_verdict([&] { unnamed.validate(); }),
            Verdict{codes::tech_range});
  auto swapped = tech::soi_low_vt();
  swapped.nmos.polarity = dev::Polarity::pmos;
  EXPECT_EQ(check_verdict(swapped), Verdict{codes::tech_polarity});
  EXPECT_EQ(build_verdict([&] { swapped.validate(); }),
            Verdict{codes::tech_polarity});
}

// Checker and constructor both report the checker's text.
TEST(RuleAgreement, ConstructionThrowsTheCheckersMessage) {
  auto t = tech::soi_low_vt();
  t.nmos.vt0 = above(2.0);
  chk::DiagSink sink;
  chk::validate(t, sink);
  ASSERT_EQ(sink.error_count(), 1u);
  try {
    (void)t.make_nmos();
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.diag().message, sink.diags().front().message);
    EXPECT_EQ(e.diag().message,
              "nmos.vt0 = 2.000000 outside [0.001000, 2.000000]");
  }
}

TEST(RuleAgreement, EveryNetlistRuleAgreesWithConstruction) {
  struct Case {
    const char* name;
    std::function<void(c::Netlist&)> build;
    Verdict want;
  };
  const Case cases[] = {
      {"read net driven",
       [](c::Netlist& nl) {
         const auto a = nl.add_input("a");
         const auto w = nl.add_gate(c::CellKind::inv, "g0", {a});
         nl.mark_output(nl.add_gate(c::CellKind::and2, "g1", {a, w}));
       },
       {}},
      {"read net undriven",
       [](c::Netlist& nl) {
         const auto a = nl.add_input("a");
         const auto w = nl.add_net("floating");
         nl.mark_output(nl.add_gate(c::CellKind::and2, "g1", {a, w}));
       },
       codes::net_undriven},
      {"flop on the clock",
       [](c::Netlist& nl) {
         const auto d = nl.add_input("d");
         const auto clk = nl.add_clock("clk");
         nl.mark_output(nl.add_gate(c::CellKind::dff, "ff", {d, clk}));
       },
       {}},
      {"flop off the clock",
       [](c::Netlist& nl) {
         const auto d = nl.add_input("d");
         const auto clk = nl.add_clock("clk");
         const auto q = nl.add_gate(c::CellKind::dff, "ff", {clk, d});
         nl.mark_output(q);
       },
       codes::net_clocking},
      {"flop with no clock net",
       [](c::Netlist& nl) {
         const auto d = nl.add_input("d");
         const auto e = nl.add_input("e");
         nl.mark_output(nl.add_gate(c::CellKind::dff, "ff", {d, e}));
       },
       codes::net_clocking},
      {"loop through a flop",
       [](c::Netlist& nl) {
         const auto clk = nl.add_clock("clk");
         const auto q = nl.add_net("q");
         const auto nq = nl.add_gate(c::CellKind::inv, "g0", {q});
         nl.add_gate_onto(c::CellKind::dff, "ff", {nq, clk}, q);
         nl.mark_output(q);
       },
       {}},
      {"combinational loop",
       [](c::Netlist& nl) {
         const auto a = nl.add_input("a");
         const auto w = nl.add_net("w");
         const auto v = nl.add_gate(c::CellKind::nand2, "g0", {a, w});
         nl.add_gate_onto(c::CellKind::inv, "g1", {v}, w);
         nl.mark_output(v);
       },
       codes::net_cycle},
  };
  for (const Case& k : cases) {
    c::Netlist nl;
    k.build(nl);
    EXPECT_EQ(check_verdict(nl), k.want) << k.name;
    EXPECT_EQ(build_verdict([&] { nl.validate(); }), k.want) << k.name;
    EXPECT_EQ(build_verdict([&] { lv::sim::SimGraph graph{nl}; }), k.want)
        << k.name;
  }
}

// A netlist breaking several rules: the checker reports every finding,
// construction throws the first of them.
TEST(RuleAgreement, ConstructionThrowsTheFirstNetlistFinding) {
  c::Netlist nl;
  const auto d = nl.add_input("d");
  const auto ghost = nl.add_net("ghost");
  nl.add_gate(c::CellKind::dff, "ff", {d, d});
  const auto w = nl.add_net("w");
  const auto v = nl.add_gate(c::CellKind::nand2, "g0", {ghost, w});
  nl.add_gate_onto(c::CellKind::inv, "g1", {v}, w);
  chk::DiagSink sink;
  chk::validate(nl, sink);
  ASSERT_EQ(sink.error_count(), 3u) << sink.to_text();
  EXPECT_EQ(sink.diags()[0].code, codes::net_clocking);
  EXPECT_EQ(sink.diags()[1].code, codes::net_undriven);
  EXPECT_EQ(sink.diags()[2].code, codes::net_cycle);
  try {
    nl.validate();
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.diag().message, sink.diags()[0].message);
  }
}

// A threshold of 2.0 V and a DIBL coefficient of 0.5 V/V sit on their
// bounds: `check` passes them, so every analysis must build its devices
// from them (exit 0), not fail with svc.internal.
TEST(RuleAgreement, BoundaryTechfilesRunEveryAnalysis) {
  const char* kNetlist =
      "lvnet 1\ninput a\ninput b\nnet y\ngate g0 NAND2 y a b\noutput y\n";
  for (const char* tech_text :
       {"lvtech 1\n[process]\nname = hi_vt\n[nmos]\nvt0 = 2.0\n",
        "lvtech 1\n[process]\nname = hi_dibl\n[pmos]\ndibl = 0.5\n"}) {
    lv::svc::Session session{1};
    lv::svc::ServiceContext ctx{session};
    const auto run = [&](const char* op, std::vector<std::string> positional) {
      lv::svc::Request request;
      request.op = op;
      request.params.positional = std::move(positional);
      request.inputs = {{"file", tech_text},
                        {"tech", tech_text},
                        {"netlist", kNetlist}};
      return lv::svc::run_request(ctx, request);
    };
    const auto checked = run("check", {"t.lvtech"});
    EXPECT_EQ(checked.exit_code, 0) << tech_text << checked.out;
    for (const char* op : {"timing", "power", "dualvt", "glitch"}) {
      const auto r = run(op, {"n.lvnet", "t.lvtech"});
      EXPECT_EQ(r.exit_code, 0) << op << ": " << tech_text << r.err;
    }
    const auto r = run("optimize-vt", {"t.lvtech"});
    EXPECT_EQ(r.exit_code, 0) << "optimize-vt: " << tech_text << r.err;
  }
}
