// Deterministic random number generation. Every stochastic component of the
// system draws from a seeded Rng so that simulations and tests are exactly
// reproducible.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace esh {

// xoshiro256** seeded through SplitMix64. Small, fast, and good enough for
// workload generation and ASPE key material (which needs statistical, not
// cryptographic, randomness in this reproduction).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform in [0, 2^64). Inline: the oracle's sampler draws ~1,000 per
  // publication.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [0, 1).
  double next_double();

  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

  // Standard normal via Box-Muller.
  double normal(double mean = 0.0, double stddev = 1.0);

  // Exponential with the given rate (events per unit).
  double exponential(double rate);

  bool next_bool() { return (next_u64() & 1u) != 0; }

  // Derive an independent generator; used to give each component its own
  // stream so adding draws in one place does not perturb another.
  Rng split();

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace esh
