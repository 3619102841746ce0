// lv::obs — registry semantics, report partitioning, JSON well-formedness,
// and the observability extension of the exec determinism contract: the
// `counters` and `histograms` sections of a RunReport must be
// bit-identical at --threads 1/2/8 for the same pipeline inputs.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "circuit/generators.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_report.hpp"
#include "opt/voltage_opt.hpp"
#include "scoped_threads.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "tech/process.hpp"
#include "timing/delay_model.hpp"
#include "util/numeric.hpp"

namespace o = lv::obs;
using lv::test::ScopedThreads;

namespace {

// Every test runs with a clean, enabled registry and leaves obs off for
// whatever test binary code runs after it.
class Obs : public ::testing::Test {
 protected:
  void SetUp() override {
    o::Registry::global().reset();
    o::set_enabled(true);
  }
  void TearDown() override {
    o::set_enabled(false);
    o::Registry::global().reset();
  }
};

// Minimal recursive-descent JSON reader: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, literals) and
// nothing else. Returns true iff the whole input is one valid value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_{text} {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == 'u') {
          for (int k = 0; k < 4; ++k)
            if (++pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---- registry semantics -----------------------------------------------

TEST_F(Obs, CounterAccumulatesAndIsNamedOnce) {
  auto& c = o::Registry::global().counter("t.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&o::Registry::global().counter("t.counter"), &c);
}

TEST_F(Obs, DisabledCollectionIsANoop) {
  auto& c = o::Registry::global().counter("t.off");
  auto& g = o::Registry::global().gauge("t.off_gauge");
  auto& t = o::Registry::global().timer("t.off_timer");
  o::set_enabled(false);
  c.add(5);
  g.set(3.0);
  { o::ScopedTimer scope{t}; }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(t.calls(), 0u);
}

TEST_F(Obs, ResetZeroesValuesButReferencesSurvive) {
  auto& c = o::Registry::global().counter("t.reset");
  c.add(7);
  o::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the cached reference still feeds the same instrument
  EXPECT_EQ(o::Registry::global().counter("t.reset").value(), 1u);
}

TEST_F(Obs, GaugeTracksRunningMax) {
  auto& g = o::Registry::global().gauge("t.hwm");
  g.update_max(3.0);
  g.update_max(1.0);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST_F(Obs, ScopedTimerRecordsOneCall) {
  auto& t = o::Registry::global().timer("t.scope");
  { o::ScopedTimer scope{t}; }
  EXPECT_EQ(t.calls(), 1u);
}

// ---- report partitioning ----------------------------------------------

TEST_F(Obs, ReportPartitionsCountersByStability) {
  o::Registry::global().counter("t.exact").add(3);
  o::Registry::global()
      .counter("t.sched", o::Stability::scheduling)
      .add(4);
  const o::RunReport r = o::Registry::global().report();
  ASSERT_EQ(r.counters.count("t.exact"), 1u);
  EXPECT_EQ(r.counters.at("t.exact"), 3u);
  EXPECT_EQ(r.counters.count("t.sched"), 0u);
  ASSERT_EQ(r.scheduling_counters.count("t.sched"), 1u);
  EXPECT_EQ(r.scheduling_counters.at("t.sched"), 4u);
}

TEST_F(Obs, ReportCarriesHistogramUnderOverflow) {
  auto& h = o::Registry::global().histogram("t.hist", 0.0, 10.0, 5);
  h.add(-1.0);
  h.add(3.0);
  h.add(10.0);  // == hi: half-open range, overflow
  h.add(99.0);
  const o::RunReport r = o::Registry::global().report();
  ASSERT_EQ(r.histograms.count("t.hist"), 1u);
  const auto& hs = r.histograms.at("t.hist");
  EXPECT_EQ(hs.underflow, 1u);
  EXPECT_EQ(hs.overflow, 2u);
  EXPECT_EQ(hs.total, 4u);
  ASSERT_EQ(hs.counts.size(), 5u);
  EXPECT_EQ(hs.counts[1], 1u);
}

TEST_F(Obs, JsonReportIsWellFormed) {
  // Populate every section, with a name that needs escaping.
  o::Registry::global().counter("t.\"quoted\"\n").add(1);
  o::Registry::global().counter("t.s", o::Stability::scheduling).add(2);
  o::Registry::global().gauge("t.g").set(1.5);
  o::Registry::global().timer("t.t").record(120);
  o::Registry::global().histogram("t.h", 0.0, 1.0, 4).add(0.5);
  const o::RunReport r = o::Registry::global().report();
  for (const bool pretty : {true, false}) {
    const std::string json = r.to_json(pretty);
    EXPECT_TRUE(JsonChecker{json}.valid()) << json;
    EXPECT_NE(json.find("\"schema\""), std::string::npos);
    EXPECT_NE(json.find("lv-run-report/1"), std::string::npos);
  }
}

TEST_F(Obs, EmptyReportIsStillValidJson) {
  const o::RunReport r = o::Registry::global().report();
  EXPECT_TRUE(JsonChecker{r.to_json()}.valid());
}

// ---- determinism: the counter section at widths 1/2/8 -----------------

namespace {

// Runs `pipeline` on a clean registry at widths 1, 2, and 8 and requires
// the deterministic report sections (exact counters + histograms) to be
// identical to the width-1 reference. Scheduling counters, gauges, and
// timers are exempt by design.
template <class Fn>
void expect_deterministic_report(Fn&& pipeline) {
  auto run_at = [&](std::size_t width) {
    const ScopedThreads threads{width};
    o::Registry::global().reset();
    pipeline();
    return o::Registry::global().report();
  };
  const o::RunReport ref = run_at(1);
  EXPECT_FALSE(ref.counters.empty());
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    const o::RunReport got = run_at(width);
    EXPECT_EQ(got.counters, ref.counters) << "width " << width;
    ASSERT_EQ(got.histograms.size(), ref.histograms.size());
    for (const auto& [name, h] : ref.histograms) {
      ASSERT_EQ(got.histograms.count(name), 1u) << name;
      const auto& gh = got.histograms.at(name);
      EXPECT_EQ(gh.counts, h.counts) << name << " width " << width;
      EXPECT_EQ(gh.underflow, h.underflow) << name << " width " << width;
      EXPECT_EQ(gh.overflow, h.overflow) << name << " width " << width;
      EXPECT_EQ(gh.total, h.total) << name << " width " << width;
    }
  }
}

}  // namespace

TEST_F(Obs, Fig3IsoDelayCurveCountersAreWidthInvariant) {
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  const auto vts = lv::util::linspace(0.05, 0.50, 19);
  expect_deterministic_report(
      [&] { lv::opt::iso_delay_curve(tech, ring, vts, 120e-12); });
}

TEST_F(Obs, Fig4VtSweepCountersAreWidthInvariant) {
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  expect_deterministic_report(
      [&] { lv::opt::optimize_vt(tech, ring, 5e6, 1.0, 0.05, 0.55, 21); });
}

TEST_F(Obs, Fo1MemoCountersAreSchedulingCounters) {
  // Each exec worker owns an FO1 memo, so hit/miss totals depend on how
  // the thresholds split across workers: scheduling section only.
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  {
    const ScopedThreads serial{1};
    lv::opt::optimize_vt(tech, ring, 5e6, 1.0, 0.05, 0.55, 26);
  }
  const o::RunReport r = o::Registry::global().report();
  for (const char* name : {"opt.fo1_memo.hits", "opt.fo1_memo.misses"}) {
    EXPECT_EQ(r.counters.count(name), 0u) << name;
    ASSERT_EQ(r.scheduling_counters.count(name), 1u) << name;
    EXPECT_GT(r.scheduling_counters.at(name), 0u) << name;
  }
  // Every bisection walks the same dyadic tree, so supplies repeat.
  EXPECT_GT(r.scheduling_counters.at("opt.fo1_memo.hits"),
            r.scheduling_counters.at("opt.fo1_memo.misses") / 2);
}

TEST_F(Obs, FaultCampaignCountersAreWidthInvariant) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 8);
  const auto vecs = lv::sim::random_vectors(
      48, static_cast<int>(nl.primary_inputs().size()), 7);
  expect_deterministic_report([&] { lv::sim::fault_coverage(nl, vecs); });

  const o::RunReport r = o::Registry::global().report();
  ASSERT_EQ(r.counters.count("sim.fault_word_evals"), 1u);
  EXPECT_GT(r.counters.at("sim.fault_word_evals"), 0u);
  EXPECT_EQ(r.scheduling_counters.count("sim.fault_word_evals"), 0u);

  // A chain of N BUFs under the all-zero vector: the good pass evaluates
  // N gates, every stuck-at-0 fault matches the good machine and costs
  // nothing, and stuck-at-1 on chain net k re-evaluates the N - k gates
  // below it: N + N(N-1)/2 in all.
  constexpr std::size_t kChain = 12;
  lv::circuit::Netlist chain;
  lv::circuit::NetId net = chain.add_input("a");
  for (std::size_t k = 0; k < kChain; ++k)
    net = chain.add_gate(lv::circuit::CellKind::buf,
                         "b" + std::to_string(k), {net});
  chain.mark_output(net);
  o::Registry::global().reset();
  lv::sim::fault_coverage(chain, {0});
  EXPECT_EQ(o::Registry::global().counter("sim.fault_word_evals").value(),
            kChain + kChain * (kChain - 1) / 2);
}

TEST_F(Obs, FaultCampaignStartsThePoolOnlyWhenItPays) {
  // A 64-vector block whose live faults x gates is below the campaign's
  // threshold is one exec index, graded inline. At 256 vectors alu16
  // stays below it in every block and never hands work to the pool;
  // mul12's first block is above it and runs one index per fault there.
  const ScopedThreads threads{4};
  const auto grade = [](const lv::circuit::Netlist& nl) {
    const auto vecs = lv::sim::random_vectors(
        256, static_cast<int>(nl.primary_inputs().size()), 1);
    o::Registry::global().reset();
    lv::sim::fault_coverage(nl, vecs);
    return o::Registry::global().report();
  };
  const auto generations = [](const o::RunReport& r) {
    const auto it = r.scheduling_counters.find("exec.pool.generations");
    return it == r.scheduling_counters.end() ? 0u : it->second;
  };

  lv::circuit::Netlist alu16;
  lv::circuit::build_alu(alu16, 16);
  const o::RunReport alu = grade(alu16);
  EXPECT_EQ(generations(alu), 0u);
  EXPECT_EQ(alu.counters.at("exec.parallel_items"),
            alu.counters.at("exec.parallel_calls"));

  lv::circuit::Netlist mul12;
  lv::circuit::build_array_multiplier(mul12, 12);
  const o::RunReport mul = grade(mul12);
  EXPECT_GE(generations(mul), 1u);
  EXPECT_GT(mul.counters.at("exec.parallel_items"),
            mul.counters.at("exec.parallel_calls"));
}

namespace {

// Simulates 32 random stimuli on each of 4 seeds, one simulator per
// seed over one shared graph, the seeds fanned out over the exec pool:
// each simulator's counter traffic depends only on the netlist and its
// stimulus, so the report must not depend on the width.
template <class Drive>
void simulate_per_seed(const lv::circuit::Netlist& nl, Drive&& drive) {
  const auto graph = lv::sim::SimGraph::compile(nl);
  lv::exec::parallel_for_stateful(
      4, [] { return 0; },
      [&](int&, std::size_t seed) {
        lv::sim::Simulator sim{graph};
        const auto vecs = lv::sim::random_vectors(
            32, static_cast<int>(nl.primary_inputs().size()), 9 + seed);
        for (const auto v : vecs) {
          drive(sim, v);
          sim.settle();
        }
      });
}

}  // namespace

TEST_F(Obs, CompiledKernelCountersArePresentAndWidthInvariant) {
  // The compiled kernel's instrumentation — LUT evaluation and event
  // counts — must be Stability::exact: both depend only on the netlist
  // and stimulus, never on thread scheduling. Presence in `counters`
  // (not scheduling_counters) plus the width sweep pins that.
  // sim.graph_compile_ns is a Timer and therefore exempt from the
  // determinism contract; assert only that compilation was timed.
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 8);
  const lv::circuit::Bus inputs = nl.primary_inputs();
  expect_deterministic_report([&] {
    simulate_per_seed(nl, [&](lv::sim::Simulator& sim, std::uint64_t v) {
      sim.set_bus(inputs, v);
    });
  });

  // The harness left the registry holding the width-8 run; the named
  // counters must be there with real traffic.
  const o::RunReport r = o::Registry::global().report();
  ASSERT_EQ(r.counters.count("sim.lut_evals"), 1u);
  EXPECT_GT(r.counters.at("sim.lut_evals"), 0u);
  ASSERT_EQ(r.counters.count("sim.events_processed"), 1u);
  EXPECT_EQ(r.scheduling_counters.count("sim.lut_evals"), 0u);
  EXPECT_EQ(r.scheduling_counters.count("sim.events_processed"), 0u);
  EXPECT_GT(o::Registry::global().timer("sim.graph_compile_ns").calls(), 0u);
}
