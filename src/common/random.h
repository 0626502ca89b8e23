#ifndef TITANT_COMMON_RANDOM_H_
#define TITANT_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace titant {

/// Deterministic, fast PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every randomized component in the library takes an explicit seed so that
/// experiments are exactly reproducible; nothing reads global entropy.
class Rng {
 public:
  /// Seeds the generator. Any 64-bit value is acceptable (including 0).
  explicit Rng(uint64_t seed = 0x5eed'7177'4a47'0001ULL);

  /// Next raw 64 random bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). `n` must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Gaussian with the given mean and stddev.
  double Gaussian(double mean, double stddev);

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given rate (> 0).
  double Exponential(double rate);

  /// Pareto-distributed value with scale `xm` > 0 and shape `alpha` > 0;
  /// used for heavy-tailed degree/amount distributions.
  double Pareto(double xm, double alpha);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation for large ones).
  int Poisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to `weights`
  /// (linear scan; use AliasTable in src/nrl for repeated sampling).
  std::size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(Uniform(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each worker
  /// thread its own deterministic stream.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace titant

#endif  // TITANT_COMMON_RANDOM_H_
