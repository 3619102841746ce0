#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// An adder simulator pre-warmed so initial X-resolution toggles are not
// counted in the statistics under test.
struct AdderRig {
  c::Netlist nl;
  c::AdderPorts ports;
  s::Simulator sim;

  explicit AdderRig(int width)
      : ports{c::build_ripple_carry_adder(nl, width)}, sim{nl} {
    sim.set_bus(ports.a, 0);
    sim.set_bus(ports.b, 0);
    sim.settle();
    sim.clear_stats();
  }
};

}  // namespace

TEST(Stimulus, GeneratorsShapeAndDeterminism) {
  const auto r1 = s::random_vectors(100, 8, 7);
  const auto r2 = s::random_vectors(100, 8, 7);
  EXPECT_EQ(r1, r2);
  for (const auto v : r1) EXPECT_LT(v, 256u);

  const auto cnt = s::counting_vectors(300, 8, 250);
  EXPECT_EQ(cnt[0], 250u);
  EXPECT_EQ(cnt[6], 0u);  // wraps mod 256

  const auto gray = s::gray_vectors(256, 8);
  for (std::size_t i = 1; i < gray.size(); ++i) {
    const auto diff = gray[i] ^ gray[i - 1];
    EXPECT_EQ(__builtin_popcountll(diff), 1) << "at " << i;
  }

  const auto walk = s::random_walk_vectors(1000, 8, 3, 5);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    const auto a = static_cast<std::int64_t>(walk[i]);
    const auto b = static_cast<std::int64_t>(walk[i - 1]);
    EXPECT_LE(std::abs(a - b), 3);
  }
}

TEST(Activity, RandomInputsProduceSubstantialActivity) {
  AdderRig rig{8};
  const auto a = s::random_vectors(2000, 8, 11);
  const auto b = s::random_vectors(2000, 8, 22);
  s::run_two_operand_workload(rig.sim, rig.ports.a, rig.ports.b, a, b);
  const double alpha = s::mean_alpha(rig.sim);
  // Fig. 8 regime: mean transition probability is O(0.5) per node.
  EXPECT_GT(alpha, 0.15);
  EXPECT_LT(alpha, 1.5);
}

TEST(Activity, CorrelatedInputsMuchQuieter) {
  // The Fig. 8 vs Fig. 9 comparison: one operand fixed at 0, the other
  // counting, yields far lower node activity than random stimulus.
  AdderRig random_rig{8};
  {
    const auto a = s::random_vectors(2000, 8, 11);
    const auto b = s::random_vectors(2000, 8, 22);
    s::run_two_operand_workload(random_rig.sim, random_rig.ports.a,
                                random_rig.ports.b, a, b);
  }
  AdderRig counting_rig{8};
  {
    const auto a = std::vector<std::uint64_t>(2000, 0);  // fixed at 0
    const auto b = s::counting_vectors(2000, 8, 0);
    s::run_two_operand_workload(counting_rig.sim, counting_rig.ports.a,
                                counting_rig.ports.b, a, b);
  }
  const double alpha_random = s::mean_alpha(random_rig.sim);
  const double alpha_counting = s::mean_alpha(counting_rig.sim);
  EXPECT_LT(alpha_counting, 0.5 * alpha_random);
}

TEST(Activity, UnitDelayShowsCarryChainGlitches) {
  // With unit delays, late carries re-evaluate high-order sum bits:
  // total toggles must exceed settled-value changes somewhere.
  AdderRig rig{8};
  const auto a = s::random_vectors(3000, 8, 31);
  const auto b = s::random_vectors(3000, 8, 32);
  s::run_two_operand_workload(rig.sim, rig.ports.a, rig.ports.b, a, b);
  double max_glitch = 0.0;
  for (c::NetId n = 0; n < rig.nl.net_count(); ++n)
    max_glitch = std::max(max_glitch, rig.sim.stats().glitch_fraction(n));
  EXPECT_GT(max_glitch, 0.05);
}

TEST(Activity, MsbOfCountingInputTogglesRarely) {
  AdderRig rig{8};
  const auto a = std::vector<std::uint64_t>(512, 0);
  const auto b = s::counting_vectors(512, 8, 0);
  s::run_two_operand_workload(rig.sim, rig.ports.a, rig.ports.b, a, b);
  // Counting stimulus: sum LSB toggles every cycle, MSB every 128 cycles.
  const double lsb_rate = rig.sim.stats().toggle_rate(rig.ports.sum[0]);
  const double msb_rate = rig.sim.stats().toggle_rate(rig.ports.sum[7]);
  EXPECT_GT(lsb_rate, 0.9);
  EXPECT_LT(msb_rate, 0.05);
}

TEST(Activity, HistogramCoversGateNetsOnly) {
  AdderRig rig{8};
  const auto a = s::random_vectors(500, 8, 1);
  const auto b = s::random_vectors(500, 8, 2);
  s::run_two_operand_workload(rig.sim, rig.ports.a, rig.ports.b, a, b);
  const auto hist = s::activity_histogram(rig.sim, 20, 2.0);
  // 8-bit RCA: 41 gates + tie -> 42 gate-driven nets.
  EXPECT_EQ(hist.total(), rig.nl.instance_count());
}

TEST(Activity, StatsClearedByClearStats) {
  AdderRig rig{8};
  const auto a = s::random_vectors(100, 8, 1);
  const auto b = s::random_vectors(100, 8, 2);
  s::run_two_operand_workload(rig.sim, rig.ports.a, rig.ports.b, a, b);
  EXPECT_GT(rig.sim.stats().total_transitions(), 0u);
  rig.sim.clear_stats();
  EXPECT_EQ(rig.sim.stats().total_transitions(), 0u);
  EXPECT_EQ(rig.sim.stats().cycles(), 0u);
}

// Parameterized sweep: adders of several widths all compute correctly
// under random stimulus while accumulating activity (a joint functional +
// statistics property).
class AdderWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdderWidthSweep, RandomFunctionalAndActive) {
  const int width = GetParam();
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, width);
  s::Simulator sim{nl};
  const auto a = s::random_vectors(200, width, 77);
  const auto b = s::random_vectors(200, width, 78);
  const std::uint64_t mask =
      width == 64 ? ~0ull : ((1ull << width) - 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    sim.set_bus(ports.a, a[i]);
    sim.set_bus(ports.b, b[i]);
    sim.settle();
    std::uint64_t sum = 0;
    ASSERT_TRUE(sim.read_bus(ports.sum, sum));
    ASSERT_EQ(sum, (a[i] + b[i]) & mask);
  }
  EXPECT_GT(sim.stats().total_transitions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidthSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 24, 32));
