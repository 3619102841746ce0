// Deterministic parallel loop primitives.
//
// Every sweep and campaign loop in the toolkit funnels through these
// three shapes:
//
//   parallel_map<T>(n, fn)              — out[i] = fn(i)
//   parallel_map_stateful<T>(n, mk, fn) — out[i] = fn(state, i), one
//                                         `mk()` state per worker (used
//                                         for AnalysisContext clones)
//   parallel_for_stateful(n, mk, fn)    — fn(state, i), same states, for
//                                         loops that accumulate into the
//                                         state or write slots of their
//                                         own (per-worker fault
//                                         propagators, one index per
//                                         fault or per block)
//
// A region's width is thread_count() (`--threads`, LVSIM_THREADS,
// set_thread_count), capped at n, or 1 on a pool worker. A width-1
// region (n == 1 included) runs inline on the caller and never touches
// the pool. A caller whose work is too small to pay for the pool passes
// one index covering all of it; there is no width parameter. The fault
// campaign does this for a block below its measured work threshold
// (sim/fault.hpp).
//
// Determinism contract: results are written into per-index slots, and
// callers fold them in serial index order on the calling thread, so
// output is bit-identical to the serial loop at any thread count. That
// rules out chunk-partial floating-point sums (addition is not
// associative): a caller that needs a sum maps the terms and adds them
// 0..n-1 exactly as the serial loop would. Scheduling affects only which
// thread computes a slot, never its value.
//
// Scheduling is guided self-scheduling: workers claim contiguous index
// ranges from one atomic cursor, and each claim takes
// ceil(remaining / (4 * width)) indices (at least 1). Early claims are
// large (the first equals an even ~4-chunks-per-worker split), so
// uniform sweeps pay few cursor round-trips; claims shrink as the range
// drains, so the tail of a skewed loop (fault campaigns, where one item
// can cost ~100x another) spreads over every worker instead of idling
// behind one oversized last chunk. Claim sizes are a pure function of
// the cursor position, so the partition of [0, n) into claims is the
// same on every run at a given width.
//
// Exceptions: every index is attempted even when one throws; afterwards
// the exception from the *lowest* failing index is rethrown, so the
// error a caller observes is also independent of the thread count.
//
// Nested calls (a parallel body invoking another primitive) run serially
// inline on the worker — correct, deterministic, no pool deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace lv::exec {

namespace detail {

struct NoState {};

// lv::obs instrumentation. Calls and items are Stability::exact: every
// primitive invocation passes through drive() exactly once (nested calls
// included) and processes all n items, regardless of the thread width.
// Chunk claims only exist on the parallel path and their count depends
// on the width, so they are scheduling-stability.
inline void note_parallel_call(std::size_t n) {
  if (!obs::enabled()) return;
  static auto& calls = obs::Registry::global().counter("exec.parallel_calls");
  static auto& items = obs::Registry::global().counter("exec.parallel_items");
  calls.add(1);
  items.add(n);
}

inline void note_chunk_claim() {
  if (!obs::enabled()) return;
  static auto& chunks = obs::Registry::global().counter(
      "exec.pool.chunks_claimed", obs::Stability::scheduling);
  chunks.add(1);
}

inline std::size_t resolve_width(std::size_t n) {
  if (n <= 1 || on_worker_thread()) return 1;
  const std::size_t width = thread_count();
  return width < n ? width : n;
}

// Guided claim size for a cursor with `remaining` unclaimed indices:
// ceil(remaining / (4 * width)), which is >= 1 whenever remaining >= 1
// and never exceeds remaining, so the cursor stops exactly at n with no
// zero-length claims. The divisor is 4 * width rather than the textbook
// 2 * width: with 2 * width the opening claim of a 26-batch mul12 fault
// round is 4 batches, the round waits on that one worker, and grading
// ran 26 % slower (EXPERIMENTS.md, "Parallel schedule").
inline std::size_t guided_claim(std::size_t remaining, std::size_t width) {
  const std::size_t divisor = 4 * width;
  return (remaining + divisor - 1) / divisor;
}

// Shared driver: fn(state, i) over [0, n) with one make() state per
// participating worker. Implements the determinism and exception
// contracts documented at the top of this header.
template <class MakeState, class Fn>
void drive(std::size_t n, MakeState&& make, Fn&& fn) {
  if (n == 0) return;
  note_parallel_call(n);
  std::size_t err_index = n;
  std::exception_ptr err;
  const std::size_t width = resolve_width(n);
  if (width == 1) {
    std::optional<std::decay_t<decltype(make())>> state;
    state.emplace(make());  // a failing make() propagates directly
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(*state, i);
      } catch (...) {
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
  } else {
    std::atomic<std::size_t> cursor{0};
    std::mutex err_mu;
    ThreadPool::pool().run(width, [&](std::size_t) {
      std::optional<std::decay_t<decltype(make())>> state;
      for (;;) {
        // Claim [begin, end) with end <= n: the cursor never advances
        // past n, so a worker arriving after the last claim observes
        // `begin >= n` without burning a no-op scheduling step.
        std::size_t begin = cursor.load(std::memory_order_relaxed);
        std::size_t end = 0;
        do {
          if (begin >= n) return;
          end = begin + guided_claim(n - begin, width);
        } while (!cursor.compare_exchange_weak(begin, end,
                                               std::memory_order_relaxed));
        note_chunk_claim();
        if (!state) {
          try {
            state.emplace(make());
          } catch (...) {
            std::lock_guard<std::mutex> lock{err_mu};
            if (begin < err_index) {
              err_index = begin;
              err = std::current_exception();
            }
            return;
          }
        }
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fn(*state, i);
          } catch (...) {
            std::lock_guard<std::mutex> lock{err_mu};
            if (i < err_index) {
              err_index = i;
              err = std::current_exception();
            }
          }
        }
      }
    });
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace detail

// T must be default-constructible (slots are pre-allocated).
template <class T, class Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  detail::drive(
      n, [] { return detail::NoState{}; },
      [&](detail::NoState&, std::size_t i) { out[i] = fn(i); });
  return out;
}

// Per-worker state: `make()` runs at most once per participating worker
// (on that worker's thread, before its first index); fn(state, i) may
// mutate it freely. Results must depend only on i, not on which indices
// the state served before — AnalysisContext clones qualify because their
// memo caches return bit-identical values whether recomputed or reused.
template <class T, class MakeState, class Fn>
std::vector<T> parallel_map_stateful(std::size_t n, MakeState&& make,
                                     Fn&& fn) {
  std::vector<T> out(n);
  detail::drive(n, std::forward<MakeState>(make),
                [&](auto& state, std::size_t i) { out[i] = fn(state, i); });
  return out;
}

// Per-worker state without per-index result slots: the body accumulates
// into its state (the activity replay's per-worker simulators). A state
// sees its indices in increasing order; whatever it accumulates must be
// folded by the caller in a way that does not depend on which worker
// served which index (integer sums do not).
template <class MakeState, class Fn>
void parallel_for_stateful(std::size_t n, MakeState&& make, Fn&& fn) {
  detail::drive(n, std::forward<MakeState>(make), std::forward<Fn>(fn));
}

}  // namespace lv::exec
