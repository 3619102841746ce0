// Steady-state allocation accounting for the compiled event kernel.
//
// The acceptance bar for the kernel is *zero heap allocations per event*
// once warmed up: the event queue recycles its pages across drains,
// evaluation scratch is reused, and the per-cycle capture
// list is a member buffer. This test replaces global operator new/delete
// with counting shims and requires that a warmed-up simulator performs
// no allocation at all across thousands of further events.
//
// The counting overloads are process-global, so this file must stay its
// own test binary (registered separately in tests/CMakeLists.txt) and
// must not run under sanitizers that interpose the allocator — the CTest
// label handles that via the standard presets (asan/ubsan replace
// new/delete themselves but tolerate user overloads; the test only
// *counts*, it still forwards to malloc/free).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// obs counter flushes call Registry::counter() name lookups only at
// static-init of the function-local references; the .add() path itself is
// allocation-free. Still, disable obs so the test pins the *kernel's*
// behavior, not the metrics layer's.
class ObsOff {
 public:
  ObsOff() : was_{lv::obs::enabled()} { lv::obs::set_enabled(false); }
  ~ObsOff() { lv::obs::set_enabled(was_); }

 private:
  bool was_;
};

}  // namespace

TEST(SimAllocation, CombinationalSettleSteadyStateAllocFree) {
  ObsOff off;
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 16);
  const auto a = s::random_vectors(128, 16, 5);
  const auto b = s::random_vectors(128, 16, 6);

  s::Simulator sim{nl};
  // Warm-up: queue pages, scratch, and dirty list grow to their high-water
  // marks during the first settles. Full-bus toggles first — the
  // all-ones/all-zeros flip propagates the longest carry chains and
  // touches every net, so later random vectors stay under the
  // capacities established here.
  for (int i = 0; i < 8; ++i) {
    sim.set_bus(ports.a, (i & 1) ? 0xffffu : 0u);
    sim.set_bus(ports.b, (i & 1) ? 0u : 0xffffu);
    sim.settle();
  }
  for (std::size_t i = 0; i < 64; ++i) {
    sim.set_bus(ports.a, a[i]);
    sim.set_bus(ports.b, b[i]);
    sim.settle();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 64; i < 128; ++i) {
    sim.set_bus(ports.a, a[i]);
    sim.set_bus(ports.b, b[i]);
    sim.settle();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "allocations in steady state";
}

TEST(SimAllocation, GlitchHeavyMultiplierSteadyStateAllocFree) {
  // An 8-bit array multiplier glitches hard (hundreds of events pending
  // at once under the unit model), so the scheduler's runs cross page
  // ends and pages cycle through the freelist on every settle. Warm-up
  // is one pass over the measured vectors: it grows the page pool to the
  // run's high-water mark, and the second pass must reuse it.
  ObsOff off;
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 8);
  const auto a = s::random_vectors(96, 8, 15);
  const auto b = s::random_vectors(96, 8, 16);

  s::Simulator sim{nl};
  const auto pass = [&] {
    for (std::size_t i = 0; i < a.size(); ++i) {
      sim.set_bus(ports.a, a[i]);
      sim.set_bus(ports.b, b[i]);
      sim.settle();
    }
  };
  pass();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  pass();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "allocations in steady state";
}

TEST(SimAllocation, SequentialClockingSteadyStateAllocFree) {
  ObsOff off;
  c::Netlist nl;
  const auto ports = c::build_pipelined_mac(nl, 8, "mac");
  const auto a = s::random_vectors(128, 8, 7);
  const auto b = s::random_vectors(128, 8, 8);

  s::Simulator sim{nl};
  sim.reset_flops(c::Logic::zero);
  for (int i = 0; i < 8; ++i) {
    sim.set_bus(ports.a, (i & 1) ? 0xffu : 0u);
    sim.set_bus(ports.b, (i & 1) ? 0u : 0xffu);
    sim.clock_cycle();
  }
  for (std::size_t i = 0; i < 64; ++i) {
    sim.set_bus(ports.a, a[i]);
    sim.set_bus(ports.b, b[i]);
    sim.clock_cycle();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 64; i < 128; ++i) {
    sim.set_bus(ports.a, a[i]);
    sim.set_bus(ports.b, b[i]);
    sim.clock_cycle();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "allocations during warmed-up clocking";
}
