#include <gtest/gtest.h>

#include "html/char_ref.h"
#include "html/text_extract.h"
#include "html/tokenizer.h"

namespace wsd {
namespace html {
namespace {

// ---------- char refs ----------

TEST(CharRefTest, DecodesNamedEntities) {
  EXPECT_EQ(DecodeCharRefs("a &amp; b"), "a & b");
  EXPECT_EQ(DecodeCharRefs("&lt;tag&gt;"), "<tag>");
  EXPECT_EQ(DecodeCharRefs("&quot;x&quot; &apos;y&apos;"), "\"x\" 'y'");
  EXPECT_EQ(DecodeCharRefs("a&nbsp;b"), "a\xc2\xa0""b");
  EXPECT_EQ(DecodeCharRefs("&middot;"), "\xc2\xb7");
}

TEST(CharRefTest, DecodesNumericReferences) {
  EXPECT_EQ(DecodeCharRefs("&#65;&#66;"), "AB");
  EXPECT_EQ(DecodeCharRefs("&#x41;&#X42;"), "AB");
  EXPECT_EQ(DecodeCharRefs("&#233;"), "\xc3\xa9");  // é
}

TEST(CharRefTest, PassesThroughUnknownAndMalformed) {
  EXPECT_EQ(DecodeCharRefs("&unknown;"), "&unknown;");
  EXPECT_EQ(DecodeCharRefs("a & b"), "a & b");
  EXPECT_EQ(DecodeCharRefs("&;"), "&;");
  EXPECT_EQ(DecodeCharRefs("&#xZZ;"), "&#xZZ;");
  EXPECT_EQ(DecodeCharRefs("50% &"), "50% &");
}

TEST(CharRefTest, InvalidCodePointsBecomeReplacement) {
  EXPECT_EQ(DecodeCharRefs("&#x110000;"), "\xef\xbf\xbd");
  EXPECT_EQ(DecodeCharRefs("&#xD800;"), "\xef\xbf\xbd");
}

TEST(CharRefTest, EscapeRoundTrip) {
  const std::string original = "a<b & \"c\" 'd'>";
  EXPECT_EQ(DecodeCharRefs(EscapeHtml(original)), original);
}

// ---------- tokenizer ----------

// Drains Tokenizer::Next into a vector.
std::vector<Token> Tokens(std::string_view input) {
  Tokenizer tokenizer(input);
  std::vector<Token> tokens;
  Token t;
  while (tokenizer.Next(&t)) tokens.push_back(t);
  return tokens;
}

TEST(TokenizerTest, SimpleDocument) {
  auto tokens = Tokens("<p>Hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kStartTag);
  EXPECT_EQ(tokens[0].text, "p");
  EXPECT_EQ(tokens[1].type, TokenType::kText);
  EXPECT_EQ(tokens[1].text, "Hello");
  EXPECT_EQ(tokens[2].type, TokenType::kEndTag);
  EXPECT_EQ(tokens[2].text, "p");
}

TEST(TokenizerTest, AttributesAllQuoteStyles) {
  auto tokens = Tokens(
      "<a href=\"http://x/\" TITLE='hi there' data-id=42 disabled>");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& attrs = tokens[0].attributes;
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].name, "href");
  EXPECT_EQ(attrs[0].value, "http://x/");
  EXPECT_EQ(attrs[1].name, "title");  // lower-cased
  EXPECT_EQ(attrs[1].value, "hi there");
  EXPECT_EQ(attrs[2].name, "data-id");
  EXPECT_EQ(attrs[2].value, "42");
  EXPECT_EQ(attrs[3].name, "disabled");
  EXPECT_EQ(attrs[3].value, "");
}

TEST(TokenizerTest, QuotedGtInsideAttribute) {
  auto tokens = Tokens("<img alt=\"a > b\" src=x>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].attributes[0].value, "a > b");
}

TEST(TokenizerTest, SelfClosing) {
  auto tokens = Tokens("<br/><hr />");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_TRUE(tokens[1].self_closing);
}

TEST(TokenizerTest, CommentAndDoctype) {
  auto tokens = Tokens("<!DOCTYPE html><!-- a <b> comment --><p>x</p>");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kDoctype);
  EXPECT_EQ(tokens[1].type, TokenType::kComment);
  EXPECT_EQ(tokens[1].text, " a <b> comment ");
}

TEST(TokenizerTest, ScriptContentIsRawText) {
  auto tokens = Tokens(
      "<script>if (a < b && x) { document.write('<p>no</p>'); }</script>"
      "<p>after</p>");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "script");
  EXPECT_EQ(tokens[1].type, TokenType::kText);
  EXPECT_NE(tokens[1].text.find("a < b"), std::string::npos);
  EXPECT_EQ(tokens[2].type, TokenType::kEndTag);
  EXPECT_EQ(tokens[2].text, "script");
}

TEST(TokenizerTest, StrayLtIsText) {
  auto tokens = Tokens("1 < 2 and <b>bold</b>");
  // "1 ", "<", " 2 and ", <b>, "bold", </b>
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[1].type, TokenType::kText);
  EXPECT_EQ(tokens[1].text, "<");
}

TEST(TokenizerTest, UnterminatedTagAtEofBecomesText) {
  auto tokens = Tokens("<p>ok</p><a href=\"x");
  EXPECT_EQ(tokens.back().type, TokenType::kText);
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokens("").empty());
}

// ---------- text extraction ----------

TEST(TextExtractTest, VisibleTextSkipsMarkupScriptsStyles) {
  const std::string page =
      "<html><head><style>p{color:red}</style>"
      "<script>var a='<p>x</p>';</script></head>"
      "<body><p>Hello &amp; welcome</p><div>world</div></body></html>";
  std::string text;
  ExtractVisibleTextInto(page, &text);
  EXPECT_NE(text.find("Hello & welcome"), std::string::npos);
  EXPECT_NE(text.find("world"), std::string::npos);
  EXPECT_EQ(text.find("color:red"), std::string::npos);
  EXPECT_EQ(text.find("var a"), std::string::npos);
}

TEST(TextExtractTest, BlockBoundariesBecomeSpaces) {
  std::string text;
  ExtractVisibleTextInto("<p>415</p><p>555<span>0134</span></p>", &text);
  // The two block-separated numbers must not fuse into one digit run.
  EXPECT_NE(text.find("415 "), std::string::npos);
  EXPECT_EQ(text.find("415555"), std::string::npos);
  // Inline elements do not break the run.
  EXPECT_NE(text.find("5550134"), std::string::npos);
}

TEST(TextExtractTest, AnchorsInOrderWithTextAndHref) {
  const auto anchors = ExtractAnchors(
      "<a href=\"http://one.com/\">One</a> mid "
      "<a href='http://two.com/x?y=1'>Two <b>bold</b></a>"
      "<a>no href</a>");
  ASSERT_EQ(anchors.size(), 3u);
  EXPECT_EQ(anchors[0].href, "http://one.com/");
  EXPECT_EQ(anchors[0].text, "One");
  EXPECT_EQ(anchors[1].href, "http://two.com/x?y=1");
  EXPECT_EQ(anchors[1].text, "Two bold");
  EXPECT_EQ(anchors[2].href, "");
}

TEST(TextExtractTest, AnchorHrefEntityDecoded) {
  const auto anchors =
      ExtractAnchors("<a href=\"http://x.com/?a=1&amp;b=2\">x</a>");
  ASSERT_EQ(anchors.size(), 1u);
  EXPECT_EQ(anchors[0].href, "http://x.com/?a=1&b=2");
}

// ---------- fuzzer-found edge cases ----------
// Inputs from fuzz/corpus/ that once crashed a harness or split the
// kernel from the frozen legacy oracle. Each is pinned here in addition
// to its corpus seed.

TEST(CharRefTest, TruncatedReferencesAtEndOfInput) {
  // A reference cut off at EOF is passed through verbatim, never read
  // past the buffer.
  EXPECT_EQ(DecodeCharRefs("&"), "&");
  EXPECT_EQ(DecodeCharRefs("&am"), "&am");
  EXPECT_EQ(DecodeCharRefs("&amp"), "&amp");
  EXPECT_EQ(DecodeCharRefs("&#"), "&#");
  EXPECT_EQ(DecodeCharRefs("&#x"), "&#x");
  EXPECT_EQ(DecodeCharRefs("&#1"), "&#1");
  EXPECT_EQ(DecodeCharRefs("tail&"), "tail&");
}

TEST(CharRefTest, NestedAndAdjacentReferences) {
  // Decoding is single-pass: the output of one reference never seeds
  // another ("&amp;amp;" is "&amp;", not "&").
  EXPECT_EQ(DecodeCharRefs("&amp;amp;"), "&amp;");
  EXPECT_EQ(DecodeCharRefs("&amp;#38;"), "&#38;");
  EXPECT_EQ(DecodeCharRefs("&#38;#38;"), "&#38;");
  EXPECT_EQ(DecodeCharRefs("&&&amp;;"), "&&&;");
}

TEST(CharRefTest, KernelMatchesLegacyOnHostileInputs) {
  const std::string cases[] = {
      "&am&amp&;&#&#x&#xG;&unknown;&&&amp;;",
      "&#0;&#1114111;&#1114112;&#xD800;&#xFFFFFFFFFF;",
      std::string("\xff\xfe&\x00#x41;", 8),  // NUL inside a reference
  };
  for (const std::string& s : cases) {
    EXPECT_EQ(DecodeCharRefs(s), DecodeCharRefsLegacy(s)) << s;
  }
}

TEST(TextExtractTest, UnterminatedScriptCloseTagIsDropped) {
  // Fuzzer-found kernel/legacy divergence: a page ending in "</script"
  // (no '>') is still raw-text context — the tokenizer suppresses the
  // trailing fragment, so the kernel must too.
  const std::string_view page = "<p>text</p><script>var x = 1;</script";
  std::string text;
  ExtractVisibleTextInto(page, &text);
  EXPECT_EQ(text, ExtractVisibleTextLegacy(page));
  EXPECT_EQ(text.find("</script"), std::string::npos);
  const std::string_view style = "<div>a</div><style>p{}</style";
  text.clear();
  ExtractVisibleTextInto(style, &text);
  EXPECT_EQ(text, ExtractVisibleTextLegacy(style));
}

TEST(TextExtractTest, UnterminatedOrdinaryTagBecomesText) {
  // Outside raw-text context the tokenizer's recovery emits the
  // unterminated tag as text; kernel and legacy agree on that too.
  const std::string_view page = "<p>hello</p><div class=\"x";
  std::string text;
  ExtractVisibleTextInto(page, &text);
  EXPECT_EQ(text, ExtractVisibleTextLegacy(page));
  EXPECT_NE(text.find("<div"), std::string::npos);
}

TEST(TextExtractTest, EmptyRawTextThenUnterminatedClose) {
  const std::string_view page = "<script></script";
  std::string text;
  ExtractVisibleTextInto(page, &text);
  EXPECT_EQ(text, ExtractVisibleTextLegacy(page));
  EXPECT_EQ(text, "");
}

TEST(TextExtractTest, NestedAnchorRecovery) {
  const auto anchors = ExtractAnchors(
      "<a href=\"http://a.com/\">first <a href=\"http://b.com/\">second"
      "</a>");
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors[0].text, "first ");
  EXPECT_EQ(anchors[1].text, "second");
}

}  // namespace
}  // namespace html
}  // namespace wsd
