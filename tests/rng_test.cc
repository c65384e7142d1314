#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/histogram.h"

namespace wsd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(17);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << "bucket " << b;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCasesAndRate) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(37);
  RunningStats small, large;
  for (int i = 0; i < 100000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, LogNormalMeanMatchesFormula) {
  Rng rng(43);
  const double mu = 1.0, sigma = 0.5;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.LogNormal(mu, sigma));
  EXPECT_NEAR(stats.mean(), std::exp(mu + 0.5 * sigma * sigma), 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(51);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.Shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(61);
  AliasTable table({1.0, 3.0, 6.0});
  int counts[3] = {};
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.6, 0.01);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Rng rng(67);
  AliasTable table({0.0, 1.0, 0.0, 2.0});
  for (int i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

}  // namespace
}  // namespace wsd
