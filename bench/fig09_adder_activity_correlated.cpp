// Fig. 9 — Histogram of transition activity for an 8-bit ripple-carry
// adder with correlated inputs: one operand fixed at 0, the other
// incrementing 0..255 (repeated).
//
// Paper shape: the mass shifts strongly toward low transition
// probability — "activity is significantly lower, verifying that the node
// transition activity is a very strong function of signal statistics".
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/ascii_plot.hpp"

int main(int argc, char** argv) {
  lv::bench::apply_bench_args(argc, argv);
  namespace c = lv::circuit;
  namespace s = lv::sim;
  lv::bench::banner("Fig. 9",
                    "8-bit RCA activity histogram, correlated inputs");

  constexpr std::size_t kVectors = 10000;
  const auto stimulus = [&](bool correlated) {
    return std::pair{correlated ? std::vector<std::uint64_t>(kVectors, 0)
                                : s::random_vectors(kVectors, 8, 0xf18a),
                     correlated ? s::counting_vectors(kVectors, 8, 0)
                                : s::random_vectors(kVectors, 8, 0xf18b)};
  };

  const auto run = [&](bool correlated) {
    c::Netlist nl;
    const auto ports = c::build_ripple_carry_adder(nl, 8);
    s::Simulator sim{nl};
    sim.set_bus(ports.a, 0);
    sim.set_bus(ports.b, 0);
    sim.settle();
    sim.clear_stats();
    const auto [a, b] = stimulus(correlated);
    s::run_two_operand_workload(sim, ports.a, ports.b, a, b);
    return std::pair{s::activity_histogram(sim, 20, 2.0),
                     s::mean_alpha(sim)};
  };

  const auto [hist, alpha] = run(true);
  std::printf("%s\n",
              lv::util::render_histogram(
                  hist, "number of nodes vs transition probability "
                        "(one input fixed at 0, other counting 0..255)")
                  .c_str());

  const auto [_, alpha_random] = run(false);
  std::printf("mean node alpha: correlated = %.4f, random = %.4f "
              "(ratio %.2f)\n",
              alpha, alpha_random, alpha / alpha_random);

  lv::bench::shape_check(
      "correlated stimulus at least 2x quieter than random",
      alpha < 0.5 * alpha_random);
  // Most nodes fall in the lowest bins.
  std::uint64_t low_bins = hist.count(0) + hist.count(1) + hist.count(2);
  lv::bench::shape_check(
      "majority of nodes in the lowest 15% of the probability range",
      low_bins > hist.total() / 2);
  return 0;
}
