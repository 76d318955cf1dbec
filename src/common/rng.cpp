#include "common/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace esh {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument{"next_below: bound must be > 0"};
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  // 53 top bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double z0 = mag * std::cos(2.0 * std::numbers::pi * u2);
  const double z1 = mag * std::sin(2.0 * std::numbers::pi * u2);
  cached_normal_ = z1;
  has_cached_normal_ = true;
  return mean + stddev * z0;
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument{"exponential: rate must be > 0"};
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

Rng Rng::split() { return Rng{next_u64()}; }

}  // namespace esh
