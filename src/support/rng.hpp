// Deterministic random number generation.
//
// All stochastic pieces of the library (random MPS initialization, Davidson
// restart vectors, bond-growth noise) draw from an explicitly seeded Rng so
// that runs are reproducible bit-for-bit at fixed thread count.
#pragma once

#include <cstdint>
#include <random>

namespace tt {

/// Seedable PRNG wrapper around std::mt19937_64 with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Standard normal sample.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t integer(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  std::mt19937_64& engine() { return gen_; }

 private:
  // tt-lint: allow(no-wallclock-random) seeded by every constructor (explicit seed or the fixed default); this is the library's one sanctioned RNG entry point
  std::mt19937_64 gen_;
};

}  // namespace tt
