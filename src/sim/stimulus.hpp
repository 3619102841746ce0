// Stimulus generation and activity-extraction harnesses.
//
// Fig. 8 uses uniform random vectors on an 8-bit adder; Fig. 9 fixes one
// operand and increments the other ("one of the inputs fixed at 0 and the
// other input increments from 0 to 255"), demonstrating that node activity
// is a strong function of signal statistics. Both stimuli live here, plus
// gray-code and bounded-random-walk sources used by tests and examples.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/statistics.hpp"

namespace lv::sim {

// `count` uniform values over [0, 2^bits).
std::vector<std::uint64_t> random_vectors(std::size_t count, int bits,
                                          std::uint64_t seed);

// start, start+1, ... (mod 2^bits).
std::vector<std::uint64_t> counting_vectors(std::size_t count, int bits,
                                            std::uint64_t start = 0);

// Gray-code sequence (exactly one bit flips between consecutive vectors).
std::vector<std::uint64_t> gray_vectors(std::size_t count, int bits,
                                        std::uint64_t start = 0);

// Bounded random walk: v += uniform[-step, step], clamped to [0, 2^bits).
// Models strongly correlated data (e.g. speech samples, Section 2's
// "signal statistics").
std::vector<std::uint64_t> random_walk_vectors(std::size_t count, int bits,
                                               std::uint64_t step,
                                               std::uint64_t seed);

// Applies (a, b) vector pairs to two buses, settling after each pair.
// Vectors must have equal length.
void run_two_operand_workload(Simulator& sim, const circuit::Bus& a,
                              const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors);

// Activity replay of `vectors` on `inputs` (lvtool simulate / glitch):
// vector i is driven onto the bus and settled, or clocked in on a
// netlist with flops, and the returned ActivityStats count exactly those
// vectors.size() cycles, bit-identical to running that loop serially on
// a copy of `primed` with cleared statistics. `primed` holds the state
// the replay starts from and is not modified.
//
// A combinational replay splits the indices over thread_count() workers
// (exec::parallel_for_stateful, guided claims), one copy of `primed` per
// worker. A worker whose next index i does not follow the one it just
// finished first seats its copy on the settled state of vector i-1
// (Simulator::seat); a combinational netlist's settled state depends
// only on its inputs, so every counted settle sees the same (previous,
// next) vector pair, and hence the same events, as the serial loop. The
// workers' integer counts are summed at the end. Called from inside a
// parallel region it runs at width 1. A clocked netlist carries flop
// state from vector to vector, so it replays in a plain serial loop on
// one copy of `primed` and opens no exec region. Width 1 seats nothing.
// Seats are counted in the scheduling-stability counter
// sim.replay_seats. An error is rethrown as "replay vector i: <what>"
// for the lowest failing index i, at any width; a coded
// check::InputError (sim.event_budget) keeps its code.
ActivityStats replay_vectors(const Simulator& primed,
                             const circuit::Bus& inputs,
                             const std::vector<std::uint64_t>& vectors);

// Builds the Figs. 8-9 histogram: per-node transition probability
// (toggles per cycle) over all gate-driven nets (primary inputs and the
// clock are stimulus, not circuit nodes).
lv::util::Histogram activity_histogram(const circuit::Netlist& netlist,
                                       const ActivityStats& stats,
                                       std::size_t bins,
                                       double max_probability = 1.0);
inline lv::util::Histogram activity_histogram(const Simulator& sim,
                                              std::size_t bins,
                                              double max_probability = 1.0) {
  return activity_histogram(sim.netlist(), sim.stats(), bins,
                            max_probability);
}

// Mean node transition activity alpha (rising transitions per node per
// cycle) over gate-driven nets — the scalar the paper's energy models use.
double mean_alpha(const circuit::Netlist& netlist, const ActivityStats& stats);
inline double mean_alpha(const Simulator& sim) {
  return mean_alpha(sim.netlist(), sim.stats());
}

}  // namespace lv::sim
