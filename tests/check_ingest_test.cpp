// Ingestion boundary and guarded-numerics tests: the throwing loaders map
// bad inputs to coded InputErrors, and a poisoned process (NaN that slips
// past construction-time checks) is caught by the STA/power guards with
// the offending element named instead of silently producing NaN results.
#include "check/ingest.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "power/estimator.hpp"
#include "tech/process.hpp"
#include "tech/techfile.hpp"
#include "timing/sta.hpp"

namespace chk = lv::check;
namespace codes = lv::check::codes;
namespace c = lv::circuit;

TEST(ReadFile, MissingFileThrowsIoOpen) {
  try {
    chk::read_file("/nonexistent/definitely/missing.lvnet");
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::io_open);
  }
}

TEST(ReadFile, UnreadablePathThrowsIoOpen) {
  // A directory opens but cannot be read: io.open, not an empty file.
  const std::string dir = std::filesystem::temp_directory_path().string();
  try {
    chk::read_file(dir);
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::io_open);
    EXPECT_EQ(std::string(e.what()), "error reading '" + dir + "'");
  }
}

TEST(ReadFile, ReadsAPipeToItsEnd) {
  // A pipe has no size to start from, so the string grows as it reads;
  // 10 000 bytes take two doublings past the first 4 KiB.
  const auto path = std::filesystem::temp_directory_path() /
                    ("read_file_" + std::to_string(::getpid()) + ".fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string text;
  for (int i = 0; i < 10000; ++i) text += static_cast<char>('a' + i % 26);
  std::thread writer{[&] {
    std::ofstream out{path, std::ios::binary};
    out << text;
  }};
  const std::string got = chk::read_file(path.string());
  writer.join();
  std::filesystem::remove(path);
  EXPECT_EQ(got, text);
}

TEST(RequireTechfile, ValidTextRoundTrips) {
  const auto t = chk::require_techfile(lv::tech::to_techfile(lv::tech::soias()));
  EXPECT_EQ(t.name, lv::tech::soias().name);
}

TEST(RequireTechfile, SemanticErrorThrowsWithCode) {
  try {
    chk::require_techfile("lvtech 1\n[nmos]\nvt0 = nan\n", "mem.lvtech");
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::tech_nonfinite);
    EXPECT_EQ(e.diag().loc.file, "mem.lvtech");
  }
}

TEST(RequireNetlist, SyntaxErrorKeepsLineNumber) {
  try {
    chk::require_netlist("lvnet 1\ninput a\ngarbage here\n");
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::net_syntax);
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(RequireActivity, ValidTextLoads) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 2);
  const auto text = "lvact 1\ncycles 8\n";
  const auto stats = chk::require_activity(nl, text);
  EXPECT_EQ(stats.cycles(), 8u);
}

TEST(LoadNetlist, CollectsMultipleErrorsInOnePass) {
  // Undriven net AND a bus gap: the collecting loader reports both rather
  // than stopping at the first.
  chk::DiagSink sink;
  const auto nl = chk::load_netlist_text(
      "lvnet 1\ninput a0\ninput a1\ninput a3\nnet ghost\nnet w\n"
      "gate g1 NAND2 w a0 ghost\noutput w\n",
      sink);
  EXPECT_FALSE(nl.has_value());
  EXPECT_TRUE(sink.has(codes::net_undriven));
  EXPECT_TRUE(sink.has(codes::net_bus_gap));
}

namespace {

// A process whose devices still build but that poisons every load: the
// engines read a Process without running its rules, and a NaN wire
// capacitance drags NaN into each gate's load, so only the guards stand
// between it and the reported numbers.
lv::tech::Process poisoned_process() {
  auto t = lv::tech::soi_low_vt();
  t.wire_cap_per_m = std::numeric_limits<double>::quiet_NaN();
  return t;
}

}  // namespace

TEST(StaGuard, NamesGateWhenDelayGoesNonFinite) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 2);
  const lv::timing::Sta sta{nl, poisoned_process(), 1.0};
  try {
    (void)sta.run(1e-9);
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::sta_nonfinite);
    // The diagnostic names a concrete gate, not just "NaN somewhere".
    EXPECT_NE(std::string(e.what()).find("gate '"), std::string::npos);
  }
}

TEST(PowerGuard, NamesComponentWhenTotalGoesNonFinite) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 2);
  const lv::power::PowerEstimator est{nl, poisoned_process(), {}};
  try {
    (void)est.estimate_uniform(0.2);
    FAIL() << "expected InputError";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), codes::power_nonfinite);
  }
}

TEST(StaAndPower, HealthyProcessStaysFinite) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 2);
  const auto t = lv::tech::soi_low_vt();
  const auto r = lv::timing::Sta{nl, t, 1.0}.run(1e-6);
  EXPECT_TRUE(std::isfinite(r.critical_delay));
  const auto br = lv::power::PowerEstimator{nl, t, {}}.estimate_uniform(0.2);
  EXPECT_TRUE(std::isfinite(br.total()));
}
