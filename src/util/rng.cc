#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace wsd {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& w : s_) w = SplitMix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zero words from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
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

uint64_t Rng::Uniform(uint64_t bound) {
  WSD_DCHECK(bound > 0);
  // Lemire's method with rejection to remove modulo bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal() {
  // Box-Muller; avoid log(0) by nudging u1 away from zero.
  double u1 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; fine for synthetic
    // workload generation.
    double x = Normal(mean, std::sqrt(mean));
    return x <= 0.0 ? 0 : static_cast<uint64_t>(x + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = NextDouble();
  uint64_t n = 0;
  while (prod > limit) {
    ++n;
    prod *= NextDouble();
  }
  return n;
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

AliasTable::AliasTable(const std::vector<double>& weights) { Reset(weights); }

void AliasTable::Reset(const std::vector<double>& weights) {
  const size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  if (n == 0) return;

  double total = 0.0;
  for (double w : weights) {
    WSD_CHECK(w >= 0.0) << "negative weight in AliasTable";
    total += w;
  }
  WSD_CHECK(total > 0.0) << "AliasTable requires a positive weight sum";

  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining entries are (numerically) exactly 1.
  for (uint32_t s : small) prob_[s] = 1.0;
  for (uint32_t l : large) prob_[l] = 1.0;
}

size_t AliasTable::Sample(Rng& rng) const {
  WSD_DCHECK(!prob_.empty());
  size_t i = static_cast<size_t>(rng.Uniform(prob_.size()));
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace wsd
