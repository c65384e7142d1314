// Property suite for the HTML stack: generate random *well-formed*
// documents with known structure, then assert the tokenizer and anchor
// extractor recover exactly that structure, and that tokenization is
// idempotent under re-serialization.

#include <gtest/gtest.h>

#include "html/char_ref.h"
#include "html/text_extract.h"
#include "html/tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace wsd {
namespace html {
namespace {

// A random well-formed fragment generator with ground truth counts.
struct GeneratedDoc {
  std::string html;
  uint32_t elements = 0;      // non-void elements emitted
  uint32_t text_runs = 0;     // non-empty text nodes emitted
  std::vector<std::string> anchor_hrefs;  // in document order
};

// `last_was_text` tracks whether the previously emitted sibling content
// was raw text: two adjacent text children merge into a single tokenizer
// text run, so ground truth must not double-count them.
void GenerateFragment(Rng& rng, int depth, GeneratedDoc* doc,
                      bool* last_was_text) {
  const int children = 1 + static_cast<int>(rng.Uniform(4));
  for (int i = 0; i < children; ++i) {
    switch (rng.Uniform(depth > 3 ? 2 : 4)) {
      case 0: {  // text run (word characters only: no entity surprises)
        doc->html += StrFormat("text%llu ",
                               (unsigned long long)rng.Uniform(1000));
        if (!*last_was_text) ++doc->text_runs;
        *last_was_text = true;
        break;
      }
      case 1: {  // anchor with href
        const std::string href = StrFormat(
            "http://h%llu.example.com/p", (unsigned long long)rng.Uniform(50));
        doc->html += "<a href=\"" + href + "\">link</a>";
        ++doc->elements;
        ++doc->text_runs;  // "link" sits between tags: always its own run
        doc->anchor_hrefs.push_back(href);
        *last_was_text = false;
        break;
      }
      case 2: {  // nested div
        doc->html += "<div>";
        ++doc->elements;
        *last_was_text = false;
        GenerateFragment(rng, depth + 1, doc, last_was_text);
        doc->html += "</div>";
        *last_was_text = false;
        break;
      }
      default: {  // nested span with attributes
        doc->html += StrFormat("<span id=\"s%llu\" class='c'>",
                               (unsigned long long)rng.Uniform(100000));
        ++doc->elements;
        *last_was_text = false;
        GenerateFragment(rng, depth + 1, doc, last_was_text);
        doc->html += "</span>";
        *last_was_text = false;
        break;
      }
    }
  }
}

GeneratedDoc Generate(uint64_t seed) {
  Rng rng(seed);
  GeneratedDoc doc;
  doc.html = "<html><body>";
  doc.elements += 2;
  bool last_was_text = false;
  GenerateFragment(rng, 0, &doc, &last_was_text);
  doc.html += "</body></html>";
  return doc;
}

// Drains Tokenizer::Next into a vector.
std::vector<Token> Tokens(std::string_view input) {
  Tokenizer tokenizer(input);
  std::vector<Token> tokens;
  Token t;
  while (tokenizer.Next(&t)) tokens.push_back(t);
  return tokens;
}

// Serializes a token stream back to HTML.
std::string Serialize(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) {
    switch (t.type) {
      case TokenType::kStartTag: {
        out += "<" + t.text;
        for (const TagAttribute& a : t.attributes) {
          out += " " + a.name + "=\"" + a.value + "\"";
        }
        if (t.self_closing) out += "/";
        out += ">";
        break;
      }
      case TokenType::kEndTag:
        out += "</" + t.text + ">";
        break;
      case TokenType::kText:
        out += t.text;
        break;
      case TokenType::kComment:
        out += "<!--" + t.text + "-->";
        break;
      case TokenType::kDoctype:
        out += "<!" + t.text + ">";
        break;
    }
  }
  return out;
}

class HtmlRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HtmlRoundTrip, TokenCountsMatchGroundTruth) {
  const GeneratedDoc doc = Generate(GetParam());
  uint32_t start_tags = 0, end_tags = 0, text_runs = 0;
  for (const Token& t : Tokens(doc.html)) {
    if (t.type == TokenType::kStartTag) ++start_tags;
    if (t.type == TokenType::kEndTag) ++end_tags;
    if (t.type == TokenType::kText && !Trim(t.text).empty()) ++text_runs;
  }
  EXPECT_EQ(start_tags, doc.elements);
  EXPECT_EQ(end_tags, doc.elements);  // generator closes everything
  EXPECT_EQ(text_runs, doc.text_runs);
  // The view interface the scan kernel uses sees the same elements.
  Tokenizer tokenizer(doc.html);
  TokenView view;
  uint32_t view_start_tags = 0;
  while (tokenizer.NextView(&view)) {
    if (view.type == TokenType::kStartTag) ++view_start_tags;
  }
  EXPECT_EQ(view_start_tags, doc.elements);
}

TEST_P(HtmlRoundTrip, TokenizeSerializeTokenizeIsStable) {
  const GeneratedDoc doc = Generate(GetParam());
  const auto once = Tokens(doc.html);
  const auto twice = Tokens(Serialize(once));
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].type, twice[i].type) << "token " << i;
    EXPECT_EQ(once[i].text, twice[i].text) << "token " << i;
    ASSERT_EQ(once[i].attributes.size(), twice[i].attributes.size());
    for (size_t a = 0; a < once[i].attributes.size(); ++a) {
      EXPECT_EQ(once[i].attributes[a].name, twice[i].attributes[a].name);
      EXPECT_EQ(once[i].attributes[a].value, twice[i].attributes[a].value);
    }
  }
}

TEST_P(HtmlRoundTrip, AnchorsRecoveredInOrder) {
  const GeneratedDoc doc = Generate(GetParam());
  const auto anchors = ExtractAnchors(doc.html);
  ASSERT_EQ(anchors.size(), doc.anchor_hrefs.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    EXPECT_EQ(anchors[i].href, doc.anchor_hrefs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlRoundTrip,
                         ::testing::Range<uint64_t>(1000, 1040));

TEST(CharRefPropertyTest, EscapeDecodeRoundTripOnRandomText) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string original;
    const int len = 1 + static_cast<int>(rng.Uniform(60));
    for (int i = 0; i < len; ++i) {
      // Printable ASCII including the dangerous characters.
      original.push_back(static_cast<char>(32 + rng.Uniform(95)));
    }
    EXPECT_EQ(DecodeCharRefs(EscapeHtml(original)), original)
        << "input: " << original;
  }
}

}  // namespace
}  // namespace html
}  // namespace wsd
