// Golden-page tests for the schema.org extraction channel: microdata
// (itemscope/itemprop) and JSON-LD (<script type="application/ld+json">)
// edge cases, plus the visible-text exclusion contract for JSON-LD
// blocks. Pages here are hand-written, not generated — they pin the
// extractor behaviour against the markup shapes real listing pages use.

#include "extract/microdata_extractor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "html/text_extract.h"

namespace wsd {
namespace {

std::vector<std::string> Microdata(std::string_view html) {
  MicrodataScratch scratch;
  std::vector<std::string> out;
  ExtractMicrodataInto(html, &scratch,
                       [&](std::string_view v) { out.emplace_back(v); });
  return out;
}

std::vector<std::string> JsonLd(std::string_view html) {
  MicrodataScratch scratch;
  std::vector<std::string> out;
  ExtractJsonLdInto(html, &scratch,
                    [&](std::string_view v) { out.emplace_back(v); });
  return out;
}

// ---------------------------------------------------------------------
// Microdata golden pages.

TEST(MicrodataTest, BasicItempropElementContent) {
  const auto values = Microdata(
      "<div itemscope itemtype=\"https://schema.org/LocalBusiness\">"
      "<span itemprop=\"telephone\">415-555-0134</span></div>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(MicrodataTest, NestedItemscopesEmitEachProperty) {
  // A business card embedding a department, each with its own telephone:
  // both properties are emitted, in document order.
  const auto values = Microdata(
      "<div itemscope itemtype=\"https://schema.org/LocalBusiness\">"
      "  <span itemprop=\"telephone\">415-555-0134</span>"
      "  <div itemprop=\"department\" itemscope>"
      "    <span itemprop=\"telephone\">415-555-0199</span>"
      "  </div>"
      "</div>");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "415-555-0134");
  EXPECT_EQ(values[1], "415-555-0199");
}

TEST(MicrodataTest, MarkupNestedInsidePropertyIsConcatenated) {
  const auto values = Microdata(
      "<p itemprop=\"telephone\"><b>415</b>-555-<i>0134</i></p>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(MicrodataTest, VoidElementContentAttribute) {
  // itemprop on a void element carries the value in content=...; no
  // closing tag ever arrives and none is needed.
  const auto values = Microdata(
      "<meta itemprop=\"telephone\" content=\"415-555-0134\">"
      "<link itemprop=\"url\" href=\"https://example.com\">");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(MicrodataTest, SelfClosingPropertyWithContent) {
  const auto values = Microdata(
      "<meta itemprop=\"telephone\" content=\"415-555-0134\"/>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(MicrodataTest, CharRefsInsideValuesAreDecoded) {
  // Both element content and content= attributes decode character
  // references before the sink sees the value.
  const auto element = Microdata(
      "<span itemprop=\"telephone\">415&#45;555&#x2d;0134</span>");
  ASSERT_EQ(element.size(), 1u);
  EXPECT_EQ(element[0], "415-555-0134");

  const auto attr = Microdata(
      "<meta itemprop=\"telephone\" content=\"415&#45;555&#x2d;0134\">");
  ASSERT_EQ(attr.size(), 1u);
  EXPECT_EQ(attr[0], "415-555-0134");
}

TEST(MicrodataTest, UnterminatedPropertyAtEofIsDropped) {
  // The property element never closes: nothing is emitted half-captured.
  EXPECT_TRUE(
      Microdata("<span itemprop=\"telephone\">415-555-0134").empty());
  EXPECT_TRUE(Microdata("<span itemprop=\"telephone\">").empty());
  EXPECT_TRUE(Microdata("<span itemprop=\"telephone\"").empty());
}

TEST(MicrodataTest, OtherItempropNamesAreIgnored) {
  EXPECT_TRUE(
      Microdata("<span itemprop=\"name\">Mario's Pizza</span>").empty());
  EXPECT_TRUE(
      Microdata("<span itemprop=\"telephones\">415-555-0134</span>")
          .empty());
}

TEST(MicrodataTest, EmptyAndPathologicalInputs) {
  EXPECT_TRUE(Microdata("").empty());
  EXPECT_TRUE(Microdata("<").empty());
  EXPECT_TRUE(Microdata("itemprop=\"telephone\" outside a tag").empty());
}

// ---------------------------------------------------------------------
// JSON-LD golden pages.

TEST(JsonLdTest, BasicTelephoneKey) {
  const auto values = JsonLd(
      "<script type=\"application/ld+json\">"
      "{\"@type\":\"LocalBusiness\",\"telephone\":\"415-555-0134\"}"
      "</script>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(JsonLdTest, MultipleBlocksAndNestedObjects) {
  const auto values = JsonLd(
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-0134\","
      " \"department\":{\"telephone\":\"415-555-0199\"}}"
      "</script>"
      "<p>prose between blocks</p>"
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-0107\"}"
      "</script>");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], "415-555-0134");
  EXPECT_EQ(values[1], "415-555-0199");
  EXPECT_EQ(values[2], "415-555-0107");
}

TEST(JsonLdTest, EscapesAndUnicodeDecoded) {
  const auto values = JsonLd(
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415\\u002d555\\u002D0134\"}"
      "</script>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0134");
}

TEST(JsonLdTest, MalformedJsonContributesNothingAfterBadToken) {
  // A bad escape poisons the rest of the block (fail-closed), but a later
  // well-formed block still contributes.
  const auto values = JsonLd(
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-\\q0134\","
      " \"telephone\":\"415-555-0199\"}"
      "</script>"
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-0107\"}"
      "</script>");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "415-555-0107");
}

TEST(JsonLdTest, UnpairedSurrogateIsDropped) {
  EXPECT_TRUE(JsonLd("<script type=\"application/ld+json\">"
                     "{\"telephone\":\"\\ud800oops\"}"
                     "</script>")
                  .empty());
}

TEST(JsonLdTest, TruncatedBlockAtEofEmitsNothing) {
  EXPECT_TRUE(JsonLd("<script type=\"application/ld+json\">"
                     "{\"telephone\":\"415-555-0134")
                  .empty());
  EXPECT_TRUE(JsonLd("<script type=\"application/ld+json\">").empty());
}

TEST(JsonLdTest, NonLdScriptsAreIgnored) {
  EXPECT_TRUE(JsonLd("<script>var t = {\"telephone\":\"415-555-0134\"};"
                     "</script>")
                  .empty());
  EXPECT_TRUE(JsonLd("<script type=\"text/javascript\">"
                     "{\"telephone\":\"415-555-0134\"}</script>")
                  .empty());
}

// ---------------------------------------------------------------------
// Visible-text exclusion: JSON-LD payloads are script content and must
// never leak into the visible text the phone/ISBN extractors consume.

TEST(JsonLdVisibleTextTest, JsonLdExcludedFromVisibleText) {
  const std::string html =
      "<p>call us</p>"
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-0134\"}"
      "</script>"
      "<p>today</p>";
  std::string text;
  html::ExtractVisibleTextInto(html, &text);
  EXPECT_EQ(text.find("415-555-0134"), std::string::npos) << text;
  EXPECT_NE(text.find("call us"), std::string::npos);
  EXPECT_NE(text.find("today"), std::string::npos);
}

// Regression: an unterminated ld+json script at EOF must swallow the
// rest of the page (raw-text mode), not dump the payload into visible
// text — and must not read past the buffer.
TEST(JsonLdVisibleTextTest, UnterminatedLdJsonScriptAtEof) {
  const std::string html =
      "<p>intro</p>"
      "<script type=\"application/ld+json\">"
      "{\"telephone\":\"415-555-0134\"";
  std::string text;
  html::ExtractVisibleTextInto(html, &text);
  EXPECT_EQ(text.find("415-555-0134"), std::string::npos) << text;
  EXPECT_EQ(text.find("telephone"), std::string::npos) << text;
  EXPECT_NE(text.find("intro"), std::string::npos);
  // The legacy oracle agrees on the exclusion.
  const std::string legacy = html::ExtractVisibleTextLegacy(html);
  EXPECT_EQ(legacy.find("415-555-0134"), std::string::npos) << legacy;
}

}  // namespace
}  // namespace wsd
