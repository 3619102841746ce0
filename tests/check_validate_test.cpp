// Fixture-driven validator tests: every corrupt file under tests/fixtures
// must be rejected with its designed machine-readable code, and the one
// merely-suspicious fixture must load with a warning. LVSIM_FIXTURE_DIR is
// injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "check/ingest.hpp"
#include "circuit/netlist.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"

namespace chk = lv::check;
namespace codes = lv::check::codes;

namespace {

std::string fixture(const std::string& name) {
  return chk::read_file(std::string(LVSIM_FIXTURE_DIR) + "/" + name);
}

// Loads one techfile fixture and asserts it is rejected with `code`.
void expect_tech_rejected(const std::string& name, const char* code) {
  chk::DiagSink sink;
  const auto t = chk::load_techfile_text(fixture(name), sink, name);
  EXPECT_FALSE(t.has_value()) << name;
  EXPECT_FALSE(sink.ok()) << name;
  EXPECT_TRUE(sink.has(code)) << name << ": missing " << code << "\n"
                              << sink.to_text();
}

void expect_netlist_rejected(const std::string& name, const char* code) {
  chk::DiagSink sink;
  const auto nl = chk::load_netlist_text(fixture(name), sink, name);
  EXPECT_FALSE(nl.has_value()) << name;
  EXPECT_TRUE(sink.has(code)) << name << ": missing " << code << "\n"
                              << sink.to_text();
}

const lv::circuit::Netlist& tiny_netlist() {
  static const lv::circuit::Netlist nl = [] {
    chk::DiagSink sink;
    auto loaded = chk::load_netlist_text(
        "lvnet 1\ninput a\ninput b\nnet w\nnet y\n"
        "gate g1 NAND2 w a b\ngate g2 INV y w\noutput y\n",
        sink);
    if (!loaded) throw std::runtime_error("tiny netlist failed to load");
    return std::move(*loaded);
  }();
  return nl;
}

void expect_activity_rejected(const std::string& name, const char* code) {
  chk::DiagSink sink;
  const auto stats =
      chk::load_activity_text(tiny_netlist(), fixture(name), sink, name);
  EXPECT_FALSE(stats.has_value()) << name;
  EXPECT_TRUE(sink.has(code)) << name << ": missing " << code << "\n"
                              << sink.to_text();
}

}  // namespace

TEST(ValidateTech, NanThresholdRejected) {
  expect_tech_rejected("tech_nan_vt0.lvtech", codes::tech_nonfinite);
}

TEST(ValidateTech, NanSoiasThicknessRejected) {
  expect_tech_rejected("tech_nan_tsi.lvtech", codes::tech_nonfinite);
}

TEST(ValidateTech, NegativeCapacitanceRejected) {
  expect_tech_rejected("tech_negative_cap.lvtech", codes::tech_nonpositive);
}

TEST(ValidateTech, AlphaOutsideRangeRejected) {
  expect_tech_rejected("tech_alpha_range.lvtech", codes::tech_range);
}

TEST(ValidateTech, VddOrderingRejected) {
  expect_tech_rejected("tech_vdd_order.lvtech", codes::tech_vdd_order);
}

TEST(ValidateNetlist, CombinationalCycleRejected) {
  expect_netlist_rejected("net_cycle.lvnet", codes::net_cycle);
}

// gm reads net a on two pins; the loop gm -> n2 -> gb -> n1 -> gm must
// still be found and named, with the exit code of an input error.
TEST(ValidateNetlist, CycleThroughRepeatedPinRejected) {
  lv::svc::Session session{1};
  lv::svc::ServiceContext ctx{session};
  lv::svc::Request request;
  request.op = "check";
  request.params.positional = {std::string(LVSIM_FIXTURE_DIR) +
                               "/net_cycle_repeated_pin.lvnet"};
  const lv::svc::Response r = lv::svc::run_request(ctx, request);
  EXPECT_EQ(r.exit_code, 2) << r.out << r.err;
  EXPECT_NE(r.out.find("[net.cycle] combinational cycle through 2 gate(s), "
                       "including: gm, gb"),
            std::string::npos)
      << r.out;
}

TEST(ValidateNetlist, DoubleDriverRejected) {
  expect_netlist_rejected("net_double_driver.lvnet", codes::net_multi_driver);
}

TEST(ValidateNetlist, UndrivenNetRejected) {
  expect_netlist_rejected("net_undriven.lvnet", codes::net_undriven);
}

TEST(ValidateNetlist, UnknownCellRejected) {
  expect_netlist_rejected("net_unknown_cell.lvnet", codes::net_unknown_cell);
}

TEST(ValidateNetlist, ReservedNameRejected) {
  expect_netlist_rejected("net_reserved_name.lvnet", codes::net_reserved_name);
}

TEST(ValidateNetlist, DiagnosticsCarryFileAndLine) {
  chk::DiagSink sink;
  const std::string name = "net_unknown_cell.lvnet";
  chk::load_netlist_text(fixture(name), sink, name);
  ASSERT_FALSE(sink.diags().empty());
  const auto& d = sink.diags().front();
  EXPECT_EQ(d.code, codes::net_unknown_cell);
  EXPECT_EQ(d.loc.file, name);
  EXPECT_EQ(d.loc.line, 5);  // the gate line in the fixture
}

TEST(ValidateNetlist, BusGapIsOnlyAWarning) {
  chk::DiagSink sink;
  const auto nl =
      chk::load_netlist_text(fixture("net_bus_gap.lvnet"), sink, "net_bus_gap");
  ASSERT_TRUE(nl.has_value());  // warnings do not reject
  EXPECT_TRUE(sink.ok());
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_TRUE(sink.has(codes::net_bus_gap));
}

TEST(ValidateActivity, SettledAboveTransitionsRejected) {
  expect_activity_rejected("act_count_order.lvact", codes::act_count_order);
}

TEST(ValidateActivity, SettledAboveCyclesRejected) {
  expect_activity_rejected("act_settled_exceeds_cycles.lvact",
                           codes::act_settled_exceeds_cycles);
}

TEST(ValidateActivity, UnknownNetRejected) {
  expect_activity_rejected("act_unknown_net.lvact", codes::act_unknown_net);
}
