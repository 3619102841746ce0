#include "exec/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lv::exec {

namespace {

thread_local bool t_on_worker = false;

// Per-worker busy-time slices (lv::obs). Wall time is never part of the
// deterministic report; these show where parallel work actually landed.
lv::obs::Timer& worker_busy_timer(std::size_t id) {
  return lv::obs::Registry::global().timer("exec.worker." +
                                           std::to_string(id) + ".busy");
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("LVSIM_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1 && static_cast<unsigned long>(v) <= kMaxThreads)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// 0 = unset, resolve from the environment/hardware on first read.
std::atomic<std::size_t> g_configured{0};

}  // namespace

std::size_t thread_count() {
  const std::size_t configured = g_configured.load(std::memory_order_relaxed);
  return configured != 0 ? configured : default_thread_count();
}

void set_thread_count(std::size_t n) {
  g_configured.store(n, std::memory_order_relaxed);
}

bool on_worker_thread() { return t_on_worker; }

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a new generation is up
  std::condition_variable done_cv;  // caller: all participants finished
  std::vector<std::thread> threads;

  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t width = 0;       // participants this generation (incl. caller)
  std::uint64_t generation = 0;
  std::size_t remaining = 0;   // pool participants still inside the task
  bool shutdown = false;

  void worker_loop(std::size_t id) {
    t_on_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock{mu};
    for (;;) {
      work_cv.wait(lock,
                   [&] { return shutdown || generation != seen; });
      if (shutdown) return;
      seen = generation;
      if (id >= width) continue;  // not scheduled this generation
      const auto* fn = task;
      lock.unlock();
      if (lv::obs::enabled()) {
        lv::obs::ScopedTimer busy{worker_busy_timer(id)};
        (*fn)(id);
      } else {
        (*fn)(id);
      }
      lock.lock();
      if (--remaining == 0) done_cv.notify_all();
    }
  }
};

ThreadPool& ThreadPool::pool() {
  static ThreadPool instance;
  return instance;
}

ThreadPool::ThreadPool() : impl_{new Impl} {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{impl_->mu};
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::run(std::size_t width,
                     const std::function<void(std::size_t)>& task) {
  lv::util::require(!t_on_worker, "ThreadPool::run: nested pool entry");
  if (width <= 1) {
    task(0);
    return;
  }
  if (lv::obs::enabled()) {
    // Generations and widths depend on the thread count by definition.
    static auto& generations = lv::obs::Registry::global().counter(
        "exec.pool.generations", lv::obs::Stability::scheduling);
    generations.add(1);
  }
  {
    std::lock_guard<std::mutex> lock{impl_->mu};
    // Lazily grow the pool: worker i handles ids 1..width-1.
    while (impl_->threads.size() < width - 1) {
      const std::size_t id = impl_->threads.size() + 1;
      impl_->threads.emplace_back(
          [this, id] { impl_->worker_loop(id); });
    }
    impl_->task = &task;
    impl_->width = width;
    impl_->remaining = width - 1;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  // The caller is worker 0. Flag it for the duration so a nested parallel
  // call from its own slice runs inline instead of re-entering the pool
  // mid-generation (which would clobber the in-flight task state).
  t_on_worker = true;
  if (lv::obs::enabled()) {
    lv::obs::ScopedTimer busy{worker_busy_timer(0)};
    task(0);
  } else {
    task(0);
  }
  t_on_worker = false;
  std::unique_lock<std::mutex> lock{impl_->mu};
  impl_->done_cv.wait(lock, [&] { return impl_->remaining == 0; });
  impl_->task = nullptr;
}

}  // namespace lv::exec
