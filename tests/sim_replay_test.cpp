// Vector-parallel activity replay (sim::replay_vectors): the stimulus is
// split over exec workers, each seated on its predecessor vector, and the
// per-worker counts are summed. Whatever the width, the ActivityStats and
// the deterministic obs sections must equal a serial replay's, which in
// turn must equal the interpreted oracle (tests/reference_simulator.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "circuit/netlist_io.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "reference_simulator.hpp"
#include "scoped_threads.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace o = lv::obs;
namespace s = lv::sim;
using lv::test::ScopedThreads;

namespace {

constexpr std::size_t kWidths[] = {1, 2, 4, 8};
constexpr std::size_t kCounts[] = {0, 1, 3, 7, 1000};

struct Fixture {
  std::string name;
  c::Netlist nl;
};

std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  out.push_back({"rca8", {}});
  c::build_ripple_carry_adder(out.back().nl, 8);
  out.push_back({"mul4", {}});
  c::build_array_multiplier(out.back().nl, 4);
  out.push_back({"wmul4", {}});
  c::build_wallace_multiplier(out.back().nl, 4);
  // Net ids out of topological order: y is declared before m, its
  // driver's input, so seating must follow the gate order, not net ids.
  out.push_back({"rev", c::parse_netlist_text(
                            "lvnet 1\ninput a\ninput b\nnet y\nnet m\n"
                            "gate g1 AND2 m a b\ngate g2 BUF y m\n"
                            "output y\n")});
  return out;
}

// The state lvtool simulate replays from: all inputs 0, settled, stats
// cleared.
s::Simulator primed(const c::Netlist& nl, s::SimConfig config) {
  s::Simulator sim{nl, config};
  sim.set_bus(nl.primary_inputs(), 0);
  sim.settle();
  sim.clear_stats();
  return sim;
}

// The oracle's counts over the same replay (its cumulative counters
// less the priming settle's).
s::testing::ReferenceSimulator::Stats oracle(
    const c::Netlist& nl, s::SimConfig config,
    const std::vector<std::uint64_t>& vecs) {
  s::testing::ReferenceSimulator ref{nl, config};
  ref.set_bus(nl.primary_inputs(), 0);
  ref.settle();
  auto want = ref.stats();
  for (const auto v : vecs) {
    ref.set_bus(nl.primary_inputs(), v);
    ref.settle();
  }
  const auto& after = ref.stats();
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    want.transitions[n] = after.transitions[n] - want.transitions[n];
    want.settled_changes[n] = after.settled_changes[n] - want.settled_changes[n];
  }
  want.cycles = after.cycles - want.cycles;
  return want;
}

void expect_equal(const s::ActivityStats& got,
                  const s::testing::ReferenceSimulator::Stats& want) {
  ASSERT_EQ(got.cycles(), want.cycles);
  for (c::NetId n = 0; n < want.transitions.size(); ++n) {
    ASSERT_EQ(got.transitions(n), want.transitions[n]) << "net " << n;
    ASSERT_EQ(got.settled_changes(n), want.settled_changes[n]) << "net " << n;
  }
}

class ObsOn : public ::testing::Test {
 protected:
  void SetUp() override {
    o::set_enabled(true);
    o::Registry::global().reset();
  }
  void TearDown() override {
    o::Registry::global().reset();
    o::set_enabled(false);
  }
};

using SimReplay = ObsOn;

std::uint64_t seats() {
  return o::Registry::global()
      .counter("sim.replay_seats", o::Stability::scheduling)
      .value();
}

}  // namespace

TEST_F(SimReplay, StatsAndCounterSectionMatchOracleAtEveryWidth) {
  for (const Fixture& f : fixtures()) {
    const auto bits = static_cast<int>(f.nl.primary_inputs().size());
    const s::SimConfig config;
    for (const std::size_t n : kCounts) {
      SCOPED_TRACE(::testing::Message() << f.name << " n " << n);
      const auto vecs = s::random_vectors(n, bits, 17 + n);
      const auto want = oracle(f.nl, config, vecs);
      const s::Simulator start = primed(f.nl, config);
      o::RunReport serial;
      for (const std::size_t width : kWidths) {
        SCOPED_TRACE(::testing::Message() << "width " << width);
        const ScopedThreads threads{width};
        o::Registry::global().reset();
        const s::ActivityStats got =
            s::replay_vectors(start, f.nl.primary_inputs(), vecs);
        expect_equal(got, want);
        const o::RunReport r = o::Registry::global().report();
        if (width == 1) {
          serial = r;
          EXPECT_EQ(seats(), 0u);
          continue;
        }
        EXPECT_EQ(r.counters, serial.counters);
        ASSERT_EQ(r.histograms.size(), serial.histograms.size());
        for (const auto& [name, h] : serial.histograms) {
          ASSERT_EQ(r.histograms.count(name), 1u) << name;
          EXPECT_EQ(r.histograms.at(name).counts, h.counts) << name;
          EXPECT_EQ(r.histograms.at(name).total, h.total) << name;
        }
      }
    }
  }
}

TEST_F(SimReplay, SerialCountersMatchAHandWrittenLoop) {
  // Width 1 is today's loop, counter for counter, so a width-invariant
  // replay is also a faithful one.
  c::Netlist nl;
  c::build_array_multiplier(nl, 4);
  const auto vecs = s::random_vectors(300, 8, 5);
  const s::Simulator start = primed(nl, {});

  s::Simulator loop = start;
  o::Registry::global().reset();
  for (const auto v : vecs) {
    loop.set_bus(nl.primary_inputs(), v);
    loop.settle();
  }
  // The replay is one exec region; the hand loop is none.
  const auto sim_counters = [] {
    auto counters = o::Registry::global().report().counters;
    counters.erase("exec.parallel_calls");
    counters.erase("exec.parallel_items");
    return counters;
  };
  const auto want = sim_counters();

  o::Registry::global().reset();
  const ScopedThreads threads{4};
  const auto got = s::replay_vectors(start, nl.primary_inputs(), vecs);
  const auto counters = sim_counters();
  EXPECT_GT(counters.at("sim.events_processed"), 0u);
  EXPECT_EQ(counters, want);
  EXPECT_EQ(got.total_transitions(), loop.stats().total_transitions());
  EXPECT_EQ(got.cycles(), loop.stats().cycles());
}

TEST_F(SimReplay, SeatsOnlyWhenSplitAcrossWorkers) {
  // Seats happen only if a second worker claims vectors before the
  // first has claimed them all, so the replay must outlast worker
  // start-up on a loaded host: 20 000 vectors take tens of ms.
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const auto vecs = s::random_vectors(20000, 16, 3);
  const s::Simulator start = primed(nl, {});
  {
    const ScopedThreads threads{1};
    s::replay_vectors(start, nl.primary_inputs(), vecs);
  }
  EXPECT_EQ(seats(), 0u);
  const ScopedThreads threads{4};
  s::replay_vectors(start, nl.primary_inputs(), vecs);
  EXPECT_GT(seats(), 0u);
  // A replay nested in a parallel region (a server request) runs inline
  // on its worker: no split, no seats.
  o::Registry::global().reset();
  lv::exec::parallel_for_stateful(
      2, [] { return 0; },
      [&](int&, std::size_t) {
        s::replay_vectors(start, nl.primary_inputs(), vecs);
      });
  EXPECT_EQ(seats(), 0u);
}

TEST_F(SimReplay, ClockedNetlistReplaysSeriallyLikeTheLoop) {
  c::Netlist nl;
  c::build_pipelined_mac(nl, 4, "mac");
  const c::Bus inputs = nl.primary_inputs();
  ASSERT_LE(inputs.size(), 64u);
  s::Simulator start{nl};
  start.set_bus(inputs, 0);
  start.reset_flops(c::Logic::zero);
  start.settle();
  start.clear_stats();
  const auto vecs =
      s::random_vectors(200, static_cast<int>(inputs.size()), 9);

  s::Simulator loop = start;
  for (const auto v : vecs) {
    loop.set_bus(inputs, v);
    loop.clock_cycle();
  }
  // A clocked replay runs in a plain loop: at no width does the pool
  // start a generation, and nothing is seated.
  const auto& generations = o::Registry::global().counter(
      "exec.pool.generations", o::Stability::scheduling);
  const std::uint64_t before = generations.value();
  for (const std::size_t width : kWidths) {
    const ScopedThreads threads{width};
    const auto got = s::replay_vectors(start, inputs, vecs);
    ASSERT_EQ(got.cycles(), loop.stats().cycles());
    for (c::NetId n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(got.transitions(n), loop.stats().transitions(n)) << n;
      ASSERT_EQ(got.settled_changes(n), loop.stats().settled_changes(n)) << n;
    }
  }
  EXPECT_EQ(generations.value(), before);
  EXPECT_EQ(seats(), 0u);
  // The counter is live: a combinational replay at width 4 opens one.
  c::Netlist rca;
  c::build_ripple_carry_adder(rca, 8);
  const ScopedThreads threads{4};
  s::replay_vectors(primed(rca, {}), rca.primary_inputs(),
                    s::random_vectors(200, 16, 3));
  EXPECT_EQ(generations.value(), before + 1);
}

TEST_F(SimReplay, ErrorIsTheLowestFailingIndexAtEveryWidth) {
  // Per-vector event counts from a serial loop; a budget below some of
  // them makes those vectors throw, and every width must report the
  // first one.
  c::Netlist nl;
  c::build_array_multiplier(nl, 4);
  const auto vecs = s::random_vectors(400, 8, 11);
  std::vector<std::uint64_t> events;
  auto& processed = o::Registry::global().counter("sim.events_processed");
  const s::Simulator start_unbounded = primed(nl, {});
  const std::uint64_t priming = processed.value();
  {
    s::Simulator sim = start_unbounded;
    for (const auto v : vecs) {
      const std::uint64_t before = processed.value();
      sim.set_bus(nl.primary_inputs(), v);
      sim.settle();
      events.push_back(processed.value() - before);
    }
  }
  std::vector<std::uint64_t> sorted = events;
  std::sort(sorted.begin(), sorted.end());
  // The priming settle (from X) must stay within the budget.
  const std::uint64_t budget = std::max(priming, sorted[sorted.size() * 3 / 4]);
  std::size_t first = 0;
  while (events[first] <= budget) ++first;
  ASSERT_LT(first, vecs.size());
  const std::string want = "replay vector " + std::to_string(first) +
                           ": Simulator: event budget exceeded: more than " +
                           std::to_string(budget) + " events in one settle";

  const s::Simulator start = primed(nl, s::SimConfig{budget});
  for (const std::size_t width : kWidths) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    const ScopedThreads threads{width};
    try {
      s::replay_vectors(start, nl.primary_inputs(), vecs);
      FAIL() << "expected the budget to trip";
    } catch (const lv::check::InputError& e) {
      EXPECT_EQ(e.code(), lv::check::codes::sim_event_budget);
      EXPECT_EQ(std::string{e.what()}.rfind(want, 0), 0u) << e.what();
    }
  }
}

TEST_F(SimReplay, ClockedBudgetErrorNamesTheVector) {
  // Primed with every input at 1 and the flops at 0, each input
  // register's D and Q differ, so vector 0's clock edge sets off a
  // larger settle than the constructor and the priming drained together.
  // A budget of exactly that many events trips on vector 0, and the
  // serial loop wraps the coded error as the parallel path does.
  c::Netlist mac;
  c::build_pipelined_mac(mac, 4, "mac");
  const c::Bus inputs = mac.primary_inputs();
  const std::uint64_t ones = (std::uint64_t{1} << inputs.size()) - 1;
  const auto prime = [&](s::Simulator& sim) {
    sim.set_bus(inputs, ones);
    sim.reset_flops(c::Logic::zero);
    sim.settle();
  };
  auto& processed = o::Registry::global().counter("sim.events_processed");
  const std::uint64_t before = processed.value();
  s::Simulator twin{mac};
  prime(twin);
  const std::uint64_t budget = processed.value() - before;
  s::Simulator start{mac, s::SimConfig{budget}};
  prime(start);
  const std::vector<std::uint64_t> vecs{ones, 0, ones};
  const ScopedThreads threads{4};
  try {
    s::replay_vectors(start, inputs, vecs);
    FAIL() << "expected the budget to trip";
  } catch (const lv::check::InputError& e) {
    EXPECT_EQ(e.code(), lv::check::codes::sim_event_budget);
    EXPECT_EQ(std::string{e.what()}.rfind("replay vector 0: ", 0), 0u)
        << e.what();
  }
}

TEST(SimSeat, SeatedSimulatorMatchesASettledOne) {
  // Seating on a vector reproduces the settled values a real settle
  // reaches, and the next settle from there counts the same events.
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 4);
  const c::Bus inputs = nl.primary_inputs();
  s::Simulator settled = primed(nl, {});
  s::Simulator seated = settled;
  settled.set_bus(inputs, 0xa7);
  settled.settle();
  seated.seat(inputs, 0xa7);
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    ASSERT_EQ(seated.value(n), settled.value(n)) << nl.net(n).name;
  std::uint64_t product = 0;
  EXPECT_TRUE(seated.read_bus(ports.product, product));
  EXPECT_EQ(seated.stats().cycles(), 0u);

  settled.clear_stats();
  for (s::Simulator* sim : {&settled, &seated}) {
    sim->set_bus(inputs, 0x3c);
    sim->settle();
  }
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(seated.stats().transitions(n), settled.stats().transitions(n));
    ASSERT_EQ(seated.stats().settled_changes(n),
              settled.stats().settled_changes(n));
  }
}

TEST(SimSeat, RejectsBadUse) {
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 4);
  s::Simulator sim{nl};
  sim.set_bus(ports.a, 3);  // pending events: not quiescent
  EXPECT_THROW(sim.seat(ports.a, 1), lv::util::Error);
  sim.settle();
  EXPECT_THROW(sim.seat({ports.sum[0]}, 1), lv::util::Error);

  c::Netlist mac;
  c::build_pipelined_mac(mac, 4, "mac");
  s::Simulator clocked{mac};
  EXPECT_THROW(clocked.seat(mac.primary_inputs(), 0), lv::util::Error);
}
