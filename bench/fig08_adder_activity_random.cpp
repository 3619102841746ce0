// Fig. 8 — Histogram of transition activity for an 8-bit ripple-carry
// adder with random input patterns (delay-annotated simulation, glitches
// included — the paper uses IRSIM).
//
// Paper shape: a broad histogram; many nodes transition with substantial
// probability under random stimulus.
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
  lv::bench::banner("Fig. 8", "8-bit RCA activity histogram, random inputs");

  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  constexpr std::size_t kVectors = 10000;
  const auto a = s::random_vectors(kVectors, 8, 0xf18a);
  const auto b = s::random_vectors(kVectors, 8, 0xf18b);

  s::Simulator sim{nl};
  sim.set_bus(ports.a, 0);
  sim.set_bus(ports.b, 0);
  sim.settle();
  sim.clear_stats();
  s::run_two_operand_workload(sim, ports.a, ports.b, a, b);

  const auto hist = s::activity_histogram(sim, 20, 2.0);
  std::printf("%s\n",
              lv::util::render_histogram(
                  hist, "number of nodes vs transition probability "
                        "(toggles/cycle, glitches included)")
                  .c_str());

  const double alpha = s::mean_alpha(sim);
  std::printf("mean node alpha (rising transitions/cycle): %.4f\n", alpha);
  double glitchiest = 0.0;
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    glitchiest = std::max(glitchiest, sim.stats().glitch_fraction(n));
  std::printf("worst per-node glitch fraction: %.3f\n", glitchiest);

  lv::bench::shape_check("substantial mean activity under random stimulus",
                         alpha > 0.15 && alpha < 1.5);
  lv::bench::shape_check("carry-chain glitching visible (some node >5%)",
                         glitchiest > 0.05);
  lv::bench::shape_check("histogram covers all gate-driven nodes",
                         hist.total() == nl.instance_count());
  return 0;
}
