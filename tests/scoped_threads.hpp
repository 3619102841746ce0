// Test-scoped exec width: sets lv::exec::set_thread_count(n) for the
// enclosing scope and restores the default (LVSIM_THREADS or the
// hardware width) on exit, also when an ASSERT returns early.
#pragma once

#include <cstddef>

#include "exec/thread_pool.hpp"

namespace lv::test {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { lv::exec::set_thread_count(n); }
  ~ScopedThreads() { lv::exec::set_thread_count(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

}  // namespace lv::test
