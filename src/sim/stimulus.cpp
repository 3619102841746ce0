#include "sim/stimulus.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <string>

#include "check/diag.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace lv::sim {

namespace u = lv::util;

namespace {

std::uint64_t mask_for(int bits) {
  u::require(bits >= 1 && bits <= 64, "stimulus: bits must be in [1, 64]");
  return bits == 64 ? ~std::uint64_t{0}
                    : ((std::uint64_t{1} << bits) - 1);
}

}  // namespace

std::vector<std::uint64_t> random_vectors(std::size_t count, int bits,
                                          std::uint64_t seed) {
  const std::uint64_t mask = mask_for(bits);
  u::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.next_u64() & mask);
  return out;
}

std::vector<std::uint64_t> counting_vectors(std::size_t count, int bits,
                                            std::uint64_t start) {
  const std::uint64_t mask = mask_for(bits);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back((start + i) & mask);
  return out;
}

std::vector<std::uint64_t> gray_vectors(std::size_t count, int bits,
                                        std::uint64_t start) {
  const std::uint64_t mask = mask_for(bits);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t n = (start + i) & mask;
    out.push_back((n ^ (n >> 1)) & mask);
  }
  return out;
}

std::vector<std::uint64_t> random_walk_vectors(std::size_t count, int bits,
                                               std::uint64_t step,
                                               std::uint64_t seed) {
  const std::uint64_t mask = mask_for(bits);
  u::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t v = mask / 2;
  for (std::size_t i = 0; i < count; ++i) {
    const auto delta = static_cast<std::int64_t>(rng.next_below(2 * step + 1)) -
                       static_cast<std::int64_t>(step);
    std::int64_t next = static_cast<std::int64_t>(v) + delta;
    next = std::max<std::int64_t>(0, std::min(next, static_cast<std::int64_t>(mask)));
    v = static_cast<std::uint64_t>(next);
    out.push_back(v);
  }
  return out;
}

void run_two_operand_workload(Simulator& sim, const circuit::Bus& a,
                              const circuit::Bus& b,
                              const std::vector<std::uint64_t>& a_vectors,
                              const std::vector<std::uint64_t>& b_vectors) {
  u::require(a_vectors.size() == b_vectors.size(),
             "run_two_operand_workload: vector count mismatch");
  for (std::size_t i = 0; i < a_vectors.size(); ++i) {
    sim.set_bus(a, a_vectors[i]);
    sim.set_bus(b, b_vectors[i]);
    sim.settle();
  }
}

namespace {

// One replay step: vector i onto `inputs` of `sim`, then settled, or
// clocked in on a clocked netlist. With `reseat`, `sim` first takes the
// settled state of vector i-1. An error is rethrown as "replay vector i:
// <what>"; a coded check::InputError (sim.event_budget) keeps its code.
void replay_step(Simulator& sim, const circuit::Bus& inputs,
                 const std::vector<std::uint64_t>& vectors, std::size_t i,
                 bool reseat, bool clocked) {
  try {
    if (reseat) sim.seat(inputs, vectors[i - 1]);
    sim.set_bus(inputs, vectors[i]);
    if (clocked)
      sim.clock_cycle();
    else
      sim.settle();
  } catch (const std::exception& e) {
    std::string what =
        "replay vector " + std::to_string(i) + ": " + e.what();
    if (const auto* coded = dynamic_cast<const check::InputError*>(&e))
      throw check::InputError(coded->code(), std::move(what));
    throw u::Error(std::move(what));
  }
}

}  // namespace

ActivityStats replay_vectors(const Simulator& primed,
                             const circuit::Bus& inputs,
                             const std::vector<std::uint64_t>& vectors) {
  if (!primed.graph().sequential_instances().empty()) {
    // Flop state carries from vector to vector: replay in order on one
    // copy, stopping at the first failing vector.
    Simulator sim = primed;
    sim.clear_stats();
    for (std::size_t i = 0; i < vectors.size(); ++i)
      replay_step(sim, inputs, vectors, i, /*reseat=*/false,
                  /*clocked=*/true);
    return sim.stats();
  }
  constexpr std::size_t kUnknown = std::numeric_limits<std::size_t>::max();
  struct Worker {
    Simulator sim;
    std::size_t next = 0;  // the index whose predecessor `sim` holds
    std::uint64_t seats = 0;
  };
  std::deque<Worker> workers;  // stable addresses while workers join
  std::mutex join_mu;
  exec::parallel_for_stateful(
      vectors.size(),
      [&] {
        Simulator sim = primed;
        sim.clear_stats();
        const std::lock_guard<std::mutex> lock{join_mu};
        return &workers.emplace_back(Worker{std::move(sim)});
      },
      [&](Worker* w, std::size_t i) {
        const bool reseat = w->next != i;
        // Until the step succeeds the simulator's state is unknown; a
        // later index reseats (and fails too if events are still
        // pending). The region reports the lowest failing index, as the
        // serial loop would.
        w->next = kUnknown;
        replay_step(w->sim, inputs, vectors, i, reseat, /*clocked=*/false);
        w->seats += reseat;
        w->next = i + 1;
      });
  ActivityStats total{primed.graph().net_count()};
  std::uint64_t seats = 0;
  for (const Worker& w : workers) {
    total += w.sim.stats();
    seats += w.seats;
  }
  if (obs::enabled()) {
    static auto& c_seats = obs::Registry::global().counter(
        "sim.replay_seats", obs::Stability::scheduling);
    c_seats.add(seats);
  }
  return total;
}

lv::util::Histogram activity_histogram(const circuit::Netlist& netlist,
                                       const ActivityStats& stats,
                                       std::size_t bins,
                                       double max_probability) {
  lv::util::Histogram hist{0.0, max_probability, bins};
  for (circuit::NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    if (net.is_primary_input || net.is_clock) continue;
    hist.add(stats.toggle_rate(n));
  }
  return hist;
}

double mean_alpha(const circuit::Netlist& netlist,
                  const ActivityStats& stats) {
  double sum = 0.0;
  std::size_t nodes = 0;
  for (circuit::NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    if (net.is_primary_input || net.is_clock) continue;
    sum += stats.alpha(n);
    ++nodes;
  }
  return nodes == 0 ? 0.0 : sum / static_cast<double>(nodes);
}

}  // namespace lv::sim
