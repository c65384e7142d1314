// Failure-injection suite: the parsing and extraction layers face
// adversarial/corrupted input (the real Web) and must never crash, hang,
// or emit invalid identifiers — they may only miss matches.

#include <gtest/gtest.h>

#include <vector>

#include "corpus/web_cache.h"
#include "entity/phone.h"
#include "entity/url.h"
#include "extract/href_extractor.h"
#include "extract/isbn_extractor.h"
#include "extract/phone_extractor.h"
#include "html/text_extract.h"
#include "html/tokenizer.h"
#include "util/rng.h"

namespace wsd {
namespace {

// Test-local collectors over the streaming extractor API (the library
// only exposes sink-style *Into entry points).
std::vector<PhoneMatch> ExtractPhones(std::string_view text) {
  std::vector<PhoneMatch> out;
  ExtractPhonesInto(text, [&](const PhoneMatch& m) { out.push_back(m); });
  return out;
}

std::vector<IsbnMatch> ExtractIsbns(std::string_view text) {
  std::vector<IsbnMatch> out;
  ExtractIsbnsInto(text, [&](const IsbnMatch& m) { out.push_back(m); });
  return out;
}

std::vector<HrefMatch> ExtractHrefs(std::string_view page_html) {
  HrefScratch scratch;
  std::vector<HrefMatch> out;
  ExtractHrefsInto(page_html, &scratch,
                   [&](const HrefMatch& m) { out.push_back(m); });
  return out;
}

// Drains the materializing tokenizer; returns the token count.
size_t CountTokens(std::string_view input) {
  html::Tokenizer tokenizer(input);
  html::Token token;
  size_t n = 0;
  while (tokenizer.Next(&token)) ++n;
  return n;
}

std::string VisibleText(std::string_view page_html) {
  std::string text;
  html::ExtractVisibleTextInto(page_html, &text);
  return text;
}

// Random byte mutations over a real rendered page.
class MutatedPageTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string BasePage() {
    SyntheticWeb::Config config;
    config.domain = Domain::kRestaurants;
    config.attr = Attribute::kPhone;
    config.num_entities = 50;
    config.seed = 21;
    SpreadParams params =
        DefaultSpreadParams(Domain::kRestaurants, Attribute::kPhone);
    params.num_sites = 30;
    config.spread = params;
    auto web = SyntheticWeb::Create(config);
    std::string html;
    web->GeneratePages(0, [&](const Page& p, const PageTruth&) {
      if (html.empty()) html = p.html;
    });
    return html;
  }
};

TEST_P(MutatedPageTest, PipelineSurvivesRandomCorruption) {
  Rng rng(GetParam());
  std::string page = BasePage();
  ASSERT_FALSE(page.empty());
  // Flip ~2% of bytes to arbitrary values (including NUL, '<', '"').
  for (size_t i = 0; i < page.size(); ++i) {
    if (rng.Bernoulli(0.02)) {
      page[i] = static_cast<char>(rng.Uniform(256));
    }
  }
  // None of these may crash; outputs must stay well-formed.
  (void)CountTokens(page);
  const std::string text = VisibleText(page);
  for (const PhoneMatch& m : ExtractPhones(text)) {
    EXPECT_TRUE(IsValidNanp(m.digits));
  }
  for (const IsbnMatch& m : ExtractIsbns(text)) {
    EXPECT_EQ(m.isbn13.size(), 13u);
  }
  for (const HrefMatch& m : ExtractHrefs(page)) {
    EXPECT_FALSE(m.canonical.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedPageTest,
                         ::testing::Range<uint64_t>(1, 33));

// Pure-noise inputs.
class RandomBytesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBytesTest, ParsersNeverCrashOnGarbage) {
  Rng rng(GetParam());
  std::string garbage(2048, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
  (void)CountTokens(garbage);
  (void)VisibleText(garbage);
  (void)ExtractPhones(garbage);
  (void)ExtractIsbns(garbage);
  (void)ExtractHrefs(garbage);
  (void)ParseUrl(garbage);
  (void)CanonicalizeHomepage(garbage);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesTest,
                         ::testing::Range<uint64_t>(50, 66));

TEST(PathologicalInputTest, DeepNestingAndLongRuns) {
  // 20k unclosed divs: one token per tag, and the text survives the
  // depth.
  std::string deep;
  for (int i = 0; i < 20000; ++i) deep += "<div>";
  deep += "x";
  EXPECT_EQ(CountTokens(deep), 20001u);
  EXPECT_NE(VisibleText(deep).find('x'), std::string::npos);

  // A megabyte of digits: extractors must reject it quickly (single run).
  const std::string digits(1 << 20, '7');
  EXPECT_TRUE(ExtractPhones(digits).empty());
  EXPECT_TRUE(ExtractIsbns(digits).empty());

  // A long run of '<' characters.
  const std::string angles(100000, '<');
  (void)CountTokens(angles);
  SUCCEED();
}

TEST(PathologicalInputTest, UnterminatedConstructs) {
  for (const char* input :
       {"<!--never closed", "<script>var x=1;", "<a href=\"x",
        "<div attr='unterminated", "&#x", "&#xxxxxxxxxxxx;"}) {
    (void)CountTokens(input);
    (void)VisibleText(input);
  }
  SUCCEED();
}

}  // namespace
}  // namespace wsd
