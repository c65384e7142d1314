// Per-tier equivalence tests for the vectorized scan primitives: the
// AVX2 tier must produce output bit-identical to the scalar reference
// (OpsForTier(kScalar)) for every primitive, including at block
// boundaries (32-byte loads, 64-byte blocks and the zero-padded tail).
// Also covers tier selection, the override/gauge plumbing, and the
// BitPlane helpers the kernels lean on.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "util/cpu.h"
#include "util/metrics.h"

namespace wsd {
namespace simd {
namespace {

size_t PlaneWords(size_t n) { return (n + 63) / 64; }

// Runs one builder primitive at `tier` and at kScalar over `input` and
// expects identical words (including zeroed tail bits).
void ExpectBuilderMatch(Tier tier, const std::string& input,
                        void (*ScanOps::*builder)(const char*, size_t,
                                                  uint64_t*)) {
  const size_t words = PlaneWords(input.size());
  std::vector<uint64_t> got(words + 1, ~uint64_t{0});
  std::vector<uint64_t> want(words + 1, ~uint64_t{0});
  (OpsForTier(tier).*builder)(input.data(), input.size(), got.data());
  (OpsForTier(Tier::kScalar).*builder)(input.data(), input.size(),
                                       want.data());
  for (size_t w = 0; w < words; ++w) {
    ASSERT_EQ(got[w], want[w])
        << TierName(tier) << " word " << w << " n=" << input.size();
  }
}

void ExpectHtmlMatch(Tier tier, const std::string& input) {
  const size_t words = PlaneWords(input.size());
  std::vector<uint64_t> got(4 * (words + 1), ~uint64_t{0});
  std::vector<uint64_t> want(4 * (words + 1), ~uint64_t{0});
  const size_t stride = words + 1;
  OpsForTier(tier).build_html(input.data(), input.size(), got.data(),
                              got.data() + stride, got.data() + 2 * stride,
                              got.data() + 3 * stride);
  OpsForTier(Tier::kScalar)
      .build_html(input.data(), input.size(), want.data(),
                  want.data() + stride, want.data() + 2 * stride,
                  want.data() + 3 * stride);
  static const char* kPlane[] = {"lt", "amp", "gt", "quote"};
  for (int p = 0; p < 4; ++p) {
    for (size_t w = 0; w < words; ++w) {
      ASSERT_EQ(got[p * stride + w], want[p * stride + w])
          << TierName(tier) << " plane " << kPlane[p] << " word " << w
          << " n=" << input.size();
    }
  }
}

void ExpectFindsMatch(Tier tier, const std::string& input) {
  const ScanOps& ops = OpsForTier(tier);
  const ScanOps& ref = OpsForTier(Tier::kScalar);
  for (size_t from = 0; from <= input.size(); from += 1 + from / 7) {
    ASSERT_EQ(ops.find_tag_end(input.data(), input.size(), from),
              ref.find_tag_end(input.data(), input.size(), from))
        << TierName(tier) << " find_tag_end from=" << from;
    for (const char* needle : {"</script", "</style", "<A", "x"}) {
      ASSERT_EQ(ops.find_ci(input.data(), input.size(), from, needle,
                            std::strlen(needle)),
                ref.find_ci(input.data(), input.size(), from, needle,
                            std::strlen(needle)))
          << TierName(tier) << " find_ci '" << needle << "' from=" << from;
    }
  }
}

void ExpectAllPrimitivesMatch(Tier tier, const std::string& input) {
  ExpectHtmlMatch(tier, input);
  ExpectBuilderMatch(tier, input, &ScanOps::build_phone_candidates);
  ExpectBuilderMatch(tier, input, &ScanOps::build_isbn_candidates);
  ExpectBuilderMatch(tier, input, &ScanOps::build_word_chars);
  ExpectFindsMatch(tier, input);
}

class SimdTierTest : public ::testing::TestWithParam<Tier> {};

TEST_P(SimdTierTest, MatchesScalarOnCraftedInputs) {
  const Tier tier = GetParam();
  const std::vector<std::string> inputs = {
      "",
      "<",
      "&",
      "<a href=\"x\">hi &amp; bye</a>",
      "call (555) 123-4567 or +1 555 000 1111 now",
      "ISBN 978-0-306-40615-7 and 0-306-40615-2X",
      "don't stop-word the classifier's tokens",
      "<div class='q\"uo\"ted'>mixed \" and ' quotes</div>",
      std::string(63, '<'),
      std::string(64, '&'),
      std::string(65, '>'),
      std::string(127, '7'),
      std::string(128, 'x') + "<b>",
      std::string(255, ' ') + "&",
  };
  for (const std::string& input : inputs) {
    ExpectAllPrimitivesMatch(tier, input);
  }
  // Every length 0..130 exercises each vector width's tail handling.
  std::string ramp;
  for (size_t n = 0; n <= 130; ++n) {
    ExpectAllPrimitivesMatch(tier, ramp);
    ramp.push_back("<>&\"'ab1 -"[n % 10]);
  }
}

TEST_P(SimdTierTest, MatchesScalarOnSeededRandomInputs) {
  const Tier tier = GetParam();
  std::mt19937 rng(0x5eed);
  // HTML-ish alphabet, dense in structural bytes so plane words are
  // non-trivial; includes high bytes for the signed-compare edge.
  const std::string alphabet =
      "<<>>&&\"' abcdefghijklmnopqrstuvwxyzABCXZ0123456789()+-=/;#xX"
      "\t\n\x80\xc3\xa9\xff";
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<size_t> len_dist(0, 600);
    std::uniform_int_distribution<size_t> chr_dist(0, alphabet.size() - 1);
    std::string input;
    const size_t len = len_dist(rng);
    input.reserve(len);
    for (size_t i = 0; i < len; ++i) input.push_back(alphabet[chr_dist(rng)]);
    ExpectAllPrimitivesMatch(tier, input);
  }
}

INSTANTIATE_TEST_SUITE_P(AvailableTiers, SimdTierTest,
                         ::testing::ValuesIn(AvailableTiers()),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                           return std::string(TierName(info.param));
                         });

// Dispatch picks AVX2 whenever the CPU has it, unless WSD_FORCE_SCALAR is
// set (to anything but "0"). Holds in both CI legs: the default run and
// the forced-scalar run of the whole suite.
TEST(DispatchTest, ActiveTierFollowsCpuAndForceScalar) {
  const char* force = std::getenv("WSD_FORCE_SCALAR");
  const bool forced = force != nullptr && std::string(force) != "" &&
                      std::string(force) != "0";
  EXPECT_EQ(ActiveTier(),
            !forced && CpuHasAvx2() ? Tier::kAvx2 : Tier::kScalar);
  EXPECT_EQ(MetricsRegistry::Global().GetGauge("wsd.scan.simd_tier").value(),
            static_cast<double>(ActiveTier()));
}

TEST(ScopedTierOverrideTest, SwapsOpsAndGaugeThenRestores) {
  const Tier before = ActiveTier();
  auto& gauge = MetricsRegistry::Global().GetGauge("wsd.scan.simd_tier");
  {
    const ScopedTierOverride pinned(Tier::kScalar);
    EXPECT_EQ(ActiveTier(), Tier::kScalar);
    EXPECT_EQ(gauge.value(), 0.0);
    // Dispatch actually repoints: the active ops are the scalar table.
    EXPECT_EQ(&Ops(), &OpsForTier(Tier::kScalar));
  }
  EXPECT_EQ(ActiveTier(), before);
  EXPECT_EQ(gauge.value(), static_cast<double>(before));
  EXPECT_EQ(&Ops(), &OpsForTier(before));
}

TEST(AvailableTiersTest, ScalarAlwaysAvx2WhenSupported) {
  const std::vector<Tier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0], Tier::kScalar);
  if (CpuHasAvx2()) {
    ASSERT_EQ(tiers.size(), 2u);
    EXPECT_EQ(tiers[1], Tier::kAvx2);
  } else {
    EXPECT_EQ(tiers.size(), 1u);
  }
  // The gauge contract: the numeric tier values never change.
  EXPECT_EQ(static_cast<int>(Tier::kScalar), 0);
  EXPECT_EQ(static_cast<int>(Tier::kAvx2), 3);
}

TEST(BitPlaneTest, NextSetNextClearAnyInRange) {
  BitPlane plane;
  const std::string input(150, 'a');
  std::string marked = input;
  marked[0] = '<';
  marked[63] = '<';
  marked[64] = '<';
  marked[149] = '<';
  BitPlane lt, amp, gt, quote;
  BuildHtmlPlanes(marked, &lt, &amp, &gt, &quote);
  EXPECT_EQ(lt.NextSet(0), 0u);
  EXPECT_EQ(lt.NextSet(1), 63u);
  EXPECT_EQ(lt.NextSet(64), 64u);
  EXPECT_EQ(lt.NextSet(65), 149u);
  EXPECT_EQ(lt.NextSet(150), BitPlane::npos);
  EXPECT_EQ(lt.NextSet(100000), BitPlane::npos);
  EXPECT_EQ(lt.NextClear(0), 1u);
  EXPECT_EQ(lt.NextClear(63), 65u);
  EXPECT_EQ(lt.NextClear(149), 150u);
  EXPECT_TRUE(lt.AnyInRange(0, 1));
  EXPECT_FALSE(lt.AnyInRange(1, 63));
  EXPECT_TRUE(lt.AnyInRange(1, 64));
  EXPECT_TRUE(lt.AnyInRange(60, 150));
  EXPECT_FALSE(lt.AnyInRange(65, 149));
  EXPECT_FALSE(lt.AnyInRange(10, 10));
  // Word-aligned range edges.
  EXPECT_TRUE(lt.AnyInRange(64, 128));
  EXPECT_FALSE(lt.AnyInRange(128, 149));
}

TEST(BitPlaneTest, ReusedPlaneShrinksWithoutStaleBits) {
  BitPlane lt, amp, gt, quote;
  BuildHtmlPlanes(std::string(200, '<'), &lt, &amp, &gt, &quote);
  // Rebuilding over a shorter input must leave no bits visible past the
  // new size, even though capacity is retained.
  BuildHtmlPlanes("abc<", &lt, &amp, &gt, &quote);
  EXPECT_EQ(lt.size(), 4u);
  EXPECT_EQ(lt.NextSet(0), 3u);
  EXPECT_EQ(lt.NextSet(4), BitPlane::npos);
  EXPECT_GT(lt.MemoryFootprint(), 0u);
}

}  // namespace
}  // namespace simd
}  // namespace wsd
