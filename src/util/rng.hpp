// Deterministic pseudo-random number generation for simulation.
//
// All stochastic behaviour in the simulator flows through Rng so that every
// experiment is reproducible from a single seed. The generator is
// xoshiro256++ (Blackman & Vigna), seeded via SplitMix64; it is fast, has a
// 2^256-1 period, and passes BigCrush. Rng also provides the distributions
// the calibration models need (uniform, normal, lognormal, exponential,
// Poisson) without depending on the unspecified std::distribution
// implementations, which differ across standard libraries and would break
// cross-platform reproducibility.
//
// The generator core (next_u64 / uniform) is defined inline here so hot
// loops keep the four state words in registers instead of paying a
// cross-TU call per draw. The fill_* batch APIs draw n values in one call
// and are *defined* to be stream-equivalent to n scalar calls — same
// values, same state afterwards — so call sites can batch freely without
// perturbing any seeded experiment (pinned by util_rng_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace cmdare::util {

/// Deterministic random number generator (xoshiro256++).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` using SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent stream for a named sub-component. Streams
  /// derived with different names (or from different parents) are
  /// statistically independent for simulation purposes.
  [[nodiscard]] Rng fork(std::string_view stream_name) const;

  /// Derives an independent stream for a counter/index (replica number,
  /// grid-cell number, shard id, ...). The derivation is pure 64-bit
  /// integer arithmetic — no hashing of a formatted string — so the
  /// mapping (parent state, index) -> stream is identical on every
  /// platform and is pinned by a regression test; campaign seeding
  /// (exp::run_grid) depends on it staying fixed. Distinct indices
  /// give decorrelated streams, and fork(i) never collides with a
  /// fork(name) stream because the index is mixed through a different
  /// finalizer than the FNV-1a string path.
  [[nodiscard]] Rng fork(std::uint64_t index) const;

  /// Index forks for [first_index, first_index + count): exactly
  /// equivalent to calling fork(first_index + i) in a loop (fork does not
  /// advance the parent stream), but hashes the parent state once. Used
  /// where a component seeds one stream per replica/tenant/shard.
  [[nodiscard]] std::vector<Rng> fork_batch(std::uint64_t first_index,
                                            std::size_t count) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so Rng works with std::shuffle.
  std::uint64_t operator()() { return next_u64(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Fills `out[0..n)` with the next n raw values. Stream-equivalent to n
  /// next_u64() calls; the state round-trips through locals so the
  /// compiler keeps it in registers across the whole batch.
  void fill_u64(std::uint64_t* out, std::size_t n);
  /// Fills `out[0..n)` with the next n uniform [0, 1) doubles.
  /// Stream-equivalent to n uniform() calls.
  void fill_uniform(double* out, std::size_t n);
  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (cached pair).
  double normal();
  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);
  /// Lognormal parameterized by the mean and coefficient of variation of
  /// the *resulting* distribution (not of the underlying normal). This is
  /// the natural parameterization for "step time with CoV 0.02"-style
  /// calibration targets. Requires mean > 0, cv >= 0.
  double lognormal_mean_cv(double mean, double cv);
  /// Exponential with the given rate (> 0).
  double exponential(double rate);
  /// Poisson-distributed count with the given mean (>= 0).
  std::uint64_t poisson(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

 private:
  Rng(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2, std::uint64_t s3);

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace cmdare::util
