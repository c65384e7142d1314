#ifndef WSD_UTIL_RNG_H_
#define WSD_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsd {

/// SplitMix64: used to expand a user seed into stream seeds. Stateless
/// step function.
uint64_t SplitMix64(uint64_t& state);

/// Deterministic 64-bit PRNG (xoshiro256**). Every randomized component in
/// the library takes an explicit seed so all experiments are reproducible.
///
/// Not thread-safe; use one Rng per thread.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (no cached spare; simple and fast
  /// enough at our scales).
  double Normal();

  /// Gaussian with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  uint64_t Poisson(double mean);

  /// Log-normal sample with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container size.
  size_t Index(size_t size) { return static_cast<size_t>(Uniform(size)); }

 private:
  uint64_t s_[4];
};

/// O(1) sampling from a fixed discrete distribution (Walker/Vose alias
/// method). Weights must be non-negative with a positive sum.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(const std::vector<double>& weights);

  /// Rebuilds the table for new weights.
  void Reset(const std::vector<double>& weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Table must be non-empty.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace wsd

#endif  // WSD_UTIL_RNG_H_
