// Lazily-started worker pool behind the lv::exec parallel primitives.
//
// One process-wide pool serves every sweep and campaign loop in the
// toolkit. Threads are created on the first parallel call that actually
// needs them (a `--threads 1` run never spawns any), grow on demand up to
// the configured width, and idle between calls. The pool moves *work*,
// never *results*: the primitives in exec/parallel.hpp write each task's
// output into a caller-owned slot keyed by task index, and callers fold
// those slots in serial index order, which is what makes parallel output
// bit-identical to the serial loop at any thread count.
//
// Width resolution, in priority order: set_thread_count() (the CLI
// `--threads N` knob lands here), the LVSIM_THREADS environment variable,
// then std::thread::hardware_concurrency(). That one process-wide width
// is the only one a region uses; no call site picks its own. How a
// region's indices are distributed over its workers is not configurable
// either: exec/parallel.hpp runs one guided self-scheduling cursor for
// every parallel region.
#pragma once

#include <cstddef>
#include <functional>

namespace lv::exec {

// Largest accepted width. `--threads`, `serve --workers` and
// LVSIM_THREADS above it are rejected (an LVSIM_THREADS outside
// [1, kMaxThreads] falls back to the hardware default), so no setting
// asks the operating system for an unbounded number of threads.
inline constexpr std::size_t kMaxThreads = 1024;

// Effective worker width for the next parallel region (>= 1).
std::size_t thread_count();

// Overrides the width; 0 restores the LVSIM_THREADS/hardware default.
// Existing pool threads are kept (idle workers are cheap); a smaller
// width simply leaves them unscheduled.
void set_thread_count(std::size_t n);

// True while the calling thread is executing a pool task. Parallel
// primitives called from inside a task run serially inline, so nested
// parallelism degrades gracefully instead of deadlocking the pool.
bool on_worker_thread();

class ThreadPool {
 public:
  static ThreadPool& pool();

  // Invokes task(worker_id) concurrently from `width` workers, with
  // worker 0 being the calling thread; blocks until every worker
  // returns. `task` must not throw (the parallel primitives capture
  // exceptions per index before they reach the pool) and must not call
  // run() again from a worker (guarded by on_worker_thread()).
  void run(std::size_t width, const std::function<void(std::size_t)>& task);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  ~ThreadPool();

  struct Impl;
  Impl* impl_;
};

}  // namespace lv::exec
