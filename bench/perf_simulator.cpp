// P1 — engine throughput: event-driven logic simulation, the activity
// replay's and the stuck-at fault campaign's thread scaling, and the
// LVR32 instruction-set simulator (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "circuit/generators.hpp"
#include "exec/thread_pool.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "workloads/idea.hpp"

namespace {

void BM_AdderSimulation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_ripple_carry_adder(nl, width);
  lv::sim::Simulator sim{nl};
  const auto a = lv::sim::random_vectors(256, width, 1);
  const auto b = lv::sim::random_vectors(256, width, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.set_bus(ports.a, a[i & 255]);
    sim.set_bus(ports.b, b[i & 255]);
    sim.settle();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_AdderSimulation)->Arg(8)->Arg(16)->Arg(32);

void BM_MultiplierSimulation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_array_multiplier(nl, width);
  lv::sim::Simulator sim{nl};
  const auto a = lv::sim::random_vectors(256, width, 3);
  const auto b = lv::sim::random_vectors(256, width, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.set_bus(ports.a, a[i & 255]);
    sim.set_bus(ports.b, b[i & 255]);
    sim.settle();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_MultiplierSimulation)->Arg(4)->Arg(8);

// Activity-extraction workload: 1024 random vectors over a 16-bit RCA.
void BM_AdderWorkloadScalar(benchmark::State& state) {
  lv::circuit::Netlist nl;
  const auto ports = lv::circuit::build_ripple_carry_adder(nl, 16);
  const auto a = lv::sim::random_vectors(1024, 16, 21);
  const auto b = lv::sim::random_vectors(1024, 16, 22);
  lv::sim::Simulator sim{nl};
  for (auto _ : state) {
    lv::sim::run_two_operand_workload(sim, ports.a, ports.b, a, b);
    benchmark::DoNotOptimize(sim.stats().cycles());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_AdderWorkloadScalar);

// Activity replay as `lvtool simulate` runs it (sim::replay_vectors)
// over an 8-bit array multiplier, at the worker width given by the
// argument: the vectors are split over the workers, each seated on its
// predecessor vector. CI (bench-smoke) gates threads:1 / threads:4 >=
// 2.0 within one run. Every width must reproduce the serial replay's
// ActivityStats before anything is timed.
void BM_ActivityReplay(benchmark::State& state, int width) {
  lv::circuit::Netlist nl;
  lv::circuit::build_array_multiplier(nl, width);
  const lv::circuit::Bus inputs = nl.primary_inputs();
  lv::sim::Simulator start{nl};
  start.set_bus(inputs, 0);
  start.settle();
  start.clear_stats();
  const auto vecs =
      lv::sim::random_vectors(1000, static_cast<int>(inputs.size()), 5);
  lv::exec::set_thread_count(1);
  const auto serial = lv::sim::replay_vectors(start, inputs, vecs);
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  const auto split = lv::sim::replay_vectors(start, inputs, vecs);
  bool same = split.cycles() == serial.cycles();
  for (lv::circuit::NetId n = 0; same && n < nl.net_count(); ++n)
    same = split.transitions(n) == serial.transitions(n) &&
           split.settled_changes(n) == serial.settled_changes(n);
  if (!same) {
    state.SkipWithError("the split replay changed the activity");
    lv::exec::set_thread_count(0);
    return;
  }
  for (auto _ : state) {
    const auto stats = lv::sim::replay_vectors(start, inputs, vecs);
    benchmark::DoNotOptimize(stats.cycles());
  }
  lv::exec::set_thread_count(0);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(vecs.size()));
}
BENCHMARK_CAPTURE(BM_ActivityReplay, mul8, 8)->ArgName("threads")
    ->Arg(1)->Arg(4)->UseRealTime();

// Per-event cost of the scalar kernel: a single-thread replay of a
// Wallace-tree multiplier (glitch-heavy, wide fanout), with the events
// one replay drains as an inverted rate counter, so `events` reads as
// seconds per event. The replay must reproduce a hand-written serial
// settle loop's ActivityStats before anything is timed.
void BM_ScalarReplayEvents(benchmark::State& state, int width) {
  lv::circuit::Netlist nl;
  lv::circuit::build_wallace_multiplier(nl, width);
  const lv::circuit::Bus inputs = nl.primary_inputs();
  lv::sim::Simulator start{nl};
  start.set_bus(inputs, 0);
  start.settle();
  start.clear_stats();
  const auto vecs =
      lv::sim::random_vectors(200, static_cast<int>(inputs.size()), 9);
  lv::sim::Simulator loop = start;
  for (const auto v : vecs) {
    loop.set_bus(inputs, v);
    loop.settle();
  }
  const bool obs_was = lv::obs::enabled();
  lv::obs::set_enabled(true);
  auto& processed =
      lv::obs::Registry::global().counter("sim.events_processed");
  const std::uint64_t before = processed.value();
  lv::exec::set_thread_count(1);
  const auto replay = lv::sim::replay_vectors(start, inputs, vecs);
  const std::uint64_t events = processed.value() - before;
  lv::obs::set_enabled(obs_was);
  bool same = replay.cycles() == loop.stats().cycles();
  for (lv::circuit::NetId n = 0; same && n < nl.net_count(); ++n)
    same = replay.transitions(n) == loop.stats().transitions(n) &&
           replay.settled_changes(n) == loop.stats().settled_changes(n);
  if (!same) {
    state.SkipWithError("the replay changed the activity");
    lv::exec::set_thread_count(0);
    return;
  }
  for (auto _ : state) {
    const auto stats = lv::sim::replay_vectors(start, inputs, vecs);
    benchmark::DoNotOptimize(stats.cycles());
  }
  lv::exec::set_thread_count(0);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(vecs.size()));
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ScalarReplayEvents, wmul16, 16)->UseRealTime();

void BM_MachineIdeaBlock(benchmark::State& state) {
  const auto workload = lv::workloads::idea_workload(1);
  const auto prog = lv::isa::assemble(workload.source);
  for (auto _ : state) {
    lv::isa::Machine m;
    m.load(prog.words);
    const auto retired = m.run();
    benchmark::DoNotOptimize(retired);
    state.counters["instructions"] = static_cast<double>(retired);
  }
}
BENCHMARK(BM_MachineIdeaBlock);

void BM_Assembler(benchmark::State& state) {
  const auto workload = lv::workloads::idea_workload(16);
  for (auto _ : state) {
    const auto prog = lv::isa::assemble(workload.source);
    benchmark::DoNotOptimize(prog.words.data());
  }
}
BENCHMARK(BM_Assembler);

// Stuck-at fault campaign (64 vectors per word, only disturbed gates
// re-evaluated) at the worker width given by the argument (/1 = serial
// code path; results identical at every width). mul12 with 256 vectors
// is the shape of one perfbench fault_grade operation.
void BM_FaultCampaign(benchmark::State& state,
                      void (*build)(lv::circuit::Netlist&),
                      std::size_t vectors) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  lv::circuit::Netlist nl;
  build(nl);
  const auto vecs = lv::sim::random_vectors(
      vectors, static_cast<int>(nl.primary_inputs().size()), 7);
  for (auto _ : state) {
    const auto r = lv::sim::fault_coverage(nl, vecs);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.counters["faults"] = static_cast<double>(
      lv::sim::enumerate_faults(nl).size());
  lv::exec::set_thread_count(0);
}
void build_rca12(lv::circuit::Netlist& nl) {
  lv::circuit::build_ripple_carry_adder(nl, 12);
}
void build_mul8(lv::circuit::Netlist& nl) {
  lv::circuit::build_array_multiplier(nl, 8);
}
void build_mul12(lv::circuit::Netlist& nl) {
  lv::circuit::build_array_multiplier(nl, 12);
}
BENCHMARK_CAPTURE(BM_FaultCampaign, rca12, build_rca12, 64)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK_CAPTURE(BM_FaultCampaign, mul8, build_mul8, 64)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK_CAPTURE(BM_FaultCampaign, mul12_v256, build_mul12, 256)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
