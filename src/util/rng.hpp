#pragma once
// Deterministic pseudo-random number generation for generators, property
// tests and benchmark sweeps.
//
// We ship our own xoshiro256** + splitmix64 instead of <random> engines so
// that instance streams are bit-reproducible across standard libraries —
// the paper tables the benches print must be regenerable on any platform
// (docs/ARCHITECTURE.md, "Paper tables from the benches").

#include <array>
#include <cstdint>
#include <vector>

namespace wdag::util {

/// splitmix64: used to seed xoshiro and as a cheap standalone mixer.
/// Passes BigCrush when used as a 64-bit stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can be used
/// with <random> distributions if desired.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli draw with probability `p` (clamped to [0,1]).
  bool chance(double p);

  /// Fisher–Yates shuffle of a vector.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element index for a container of size n (>0).
  std::size_t index(std::size_t n);

  /// Derive an independent child generator (for parallel workers).
  Xoshiro256 split();

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace wdag::util
