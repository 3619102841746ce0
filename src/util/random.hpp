// Deterministic, seedable PRNG (xoshiro256**) used for all stochastic
// stimulus in lvsim. Benches must print identical output run-to-run, so
// nothing in the library uses std::random_device or global RNG state.
// Parallel regions draw nothing: a campaign draws its stimulus serially
// from one seeded stream before it fans out (sim::random_vectors ahead
// of fault_coverage and replay_vectors), so output cannot depend on the
// thread width.
#pragma once

#include <cstdint>

namespace lv::util {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next 64 raw bits.
  std::uint64_t next_u64();
  // Uniform in [0, bound) without modulo bias for the bit widths we use.
  std::uint64_t next_below(std::uint64_t bound);
  // Uniform double in [0, 1).
  double next_double();
  // Bernoulli with probability p of returning true.
  bool next_bool(double p = 0.5);
  // Uniform 32-bit value.
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64()); }

 private:
  std::uint64_t s_[4];
};

}  // namespace lv::util
