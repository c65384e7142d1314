#include "html/text_extract.h"

#include "html/char_ref.h"
#include "html/tokenizer.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace wsd {
namespace html {

namespace {

// `tag` is a RAW tag name from the view tokenizer; comparison is
// case-insensitive, which matches lower-casing then comparing exactly.
// Hot (called for every start and end tag), so dispatch on length
// instead of probing the whole block list: p, div, li, ul, ol, table,
// tr, td, th, br, h1-h4, section, article, body, title.
bool IsBlockBoundary(std::string_view tag) {
  switch (tag.size()) {
    case 1:
      return tag[0] == 'p' || tag[0] == 'P';
    case 2: {
      const char a = ToLowerChar(tag[0]);
      const char b = ToLowerChar(tag[1]);
      switch (a) {
        case 'l':
          return b == 'i';
        case 'u':
        case 'o':
          return b == 'l';
        case 't':
          return b == 'r' || b == 'd' || b == 'h';
        case 'b':
          return b == 'r';
        case 'h':
          return b >= '1' && b <= '4';
        default:
          return false;
      }
    }
    case 3:
      return EqualsIgnoreCase(tag, "div");
    case 4:
      return EqualsIgnoreCase(tag, "body");
    case 5:
      return EqualsIgnoreCase(tag, "table") ||
             EqualsIgnoreCase(tag, "title");
    case 7:
      return EqualsIgnoreCase(tag, "section") ||
             EqualsIgnoreCase(tag, "article");
    default:
      return false;
  }
}

// Pre-kernel block-boundary check: linear probe over the block list.
// Token names from Tokenizer::Next are already lowercased. Kept verbatim
// as the ablation baseline; do not optimize.
// WSD_FROZEN_BEGIN(block_boundary_legacy)
bool LegacyIsBlockBoundary(std::string_view tag) {
  for (std::string_view block :
       {"p", "div", "li", "ul", "ol", "table", "tr", "td", "th", "br",
        "h1", "h2", "h3", "h4", "section", "article", "body", "title"}) {
    if (tag == block) return true;
  }
  return false;
}
// WSD_FROZEN_END(block_boundary_legacy)

void AppendBoundary(std::string* out) {
  if (!out->empty() && out->back() != ' ') out->push_back(' ');
}

// Local copies of the tokenizer's lexing helpers for the fused scanner
// below (they are private to Tokenizer).
bool IsTagNameChar(char c) { return IsAlnum(c) || c == '-' || c == ':'; }

size_t FindTagEnd(std::string_view s, size_t start) {
  char quote = 0;
  for (size_t i = start; i < s.size(); ++i) {
    const char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '>') {
      return i;
    }
  }
  return std::string_view::npos;
}

size_t FindCaseInsensitive(std::string_view haystack, std::string_view needle,
                           size_t from) {
  if (needle.empty() || haystack.size() < needle.size()) {
    return std::string_view::npos;
  }
  const size_t limit = haystack.size() - needle.size();
  for (size_t i = from; i <= limit; ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (ToLowerChar(haystack[i + j]) != ToLowerChar(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

// The kernel's hottest loop: a fused single-pass scanner over the raw
// HTML instead of tokenizer + per-token dispatch. It replicates the
// Tokenizer's lexing rules exactly (same helpers, same recovery for
// stray '<' and unterminated tags, same raw-text handling) but only
// computes what text extraction needs: text runs are decoded straight
// into *out, tag lexing stops at the name, and <script>/<style> content
// is skipped without being materialized as a token. Equivalence with
// the token-based implementation is enforced by the scan-kernel tests
// (ExtractVisibleTextLegacy is the oracle).
//
// This is the kScalar dispatch tier, kept byte for byte as the PR 3
// kernel — the ablation baseline the SIMD tiers are measured against.
// The bitmap-index variant below handles every other tier.
void ExtractVisibleTextScalar(std::string_view page_html,
                              std::string* out) {
  const std::string_view s = page_html;
  size_t pos = 0;
  // True between a raw-text (<script>/<style>) skip and the next complete
  // tag. The tokenizer suppresses text tokens in that window, so the
  // unterminated-tag-at-EOF recovery below must not emit text either
  // (e.g. a page ending in "...</script" with no '>').
  bool in_raw_text = false;
  while (pos < s.size()) {
    if (s[pos] != '<') {
      // Text run up to the next tag.
      size_t lt = s.find('<', pos);
      if (lt == std::string_view::npos) lt = s.size();
      DecodeCharRefsInto(s.substr(pos, lt - pos), out);
      pos = lt;
      continue;
    }
    if (pos + 1 < s.size() && s[pos + 1] == '!') {
      // Comment or doctype: contributes no text and no boundary.
      if (s.compare(pos, 4, "<!--") == 0) {
        const size_t close = s.find("-->", pos + 4);
        pos = close == std::string_view::npos ? s.size() : close + 3;
      } else {
        const size_t close = s.find('>', pos);
        pos = close == std::string_view::npos ? s.size() : close + 1;
      }
      continue;
    }
    const bool is_end_tag = pos + 1 < s.size() && s[pos + 1] == '/';
    const size_t name_start = pos + (is_end_tag ? 2 : 1);
    if (name_start >= s.size() || !IsAlpha(s[name_start])) {
      // Stray '<' (e.g. "1 < 2"): text, like the tokenizer's recovery.
      out->push_back('<');
      ++pos;
      continue;
    }
    size_t name_end = name_start + 1;
    while (name_end < s.size() && IsTagNameChar(s[name_end])) ++name_end;
    const size_t gt = name_end < s.size() && s[name_end] == '>'
                          ? name_end
                          : FindTagEnd(s, name_end);
    if (gt == std::string_view::npos) {
      // Unterminated tag at EOF: the rest is text (unless still in
      // raw-text context, where the tokenizer drops it).
      if (!in_raw_text) DecodeCharRefsInto(s.substr(pos), out);
      return;
    }
    const std::string_view name =
        s.substr(name_start, name_end - name_start);
    const bool self_closing = !is_end_tag && gt > name_end &&
                              s[gt - 1] == '/';
    pos = gt + 1;
    in_raw_text = false;  // any complete tag ends raw-text context
    if (IsBlockBoundary(name)) AppendBoundary(out);
    if (!is_end_tag && !self_closing &&
        (name[0] == 's' || name[0] == 'S')) {
      // Raw-text elements: skip content up to the closing tag, which the
      // next iteration lexes normally (it adds no text or boundary).
      std::string_view close_needle;
      if (EqualsIgnoreCase(name, "script")) {
        close_needle = "</script";
      } else if (EqualsIgnoreCase(name, "style")) {
        close_needle = "</style";
      }
      if (!close_needle.empty()) {
        const size_t close = FindCaseInsensitive(s, close_needle, pos);
        pos = close == std::string_view::npos ? s.size() : close;
        in_raw_text = true;
      }
    }
  }
}

// Reusable structural-byte planes for the bitmap-index kernel: one bit
// per page byte for '<' and one for '&'. Thread-local so pool workers
// never contend; capacities climb to the largest page seen and are then
// reused, preserving the kernel's steady-state zero-allocation contract.
struct TextExtractPlanes {
  simd::BitPlane lt;
  simd::BitPlane amp;
  simd::BitPlane gt;
  simd::BitPlane quote;
};

TextExtractPlanes& Planes() {
  static thread_local TextExtractPlanes planes;
  return planes;
}

// Decodes s[i, end) into *out, jumping between '&'s via the amp plane.
// Decision-for-decision identical to
// DecodeCharRefsInto(s.substr(i, end - i), out) — TryDecodeRefAt caps
// the ';' search at `end` exactly like the substr boundary would.
void DecodeTextRunIndexed(std::string_view s, size_t i, size_t end,
                          const simd::BitPlane& amps, std::string* out) {
  while (i < end) {
    const size_t amp = amps.NextSet(i);  // npos compares >= end
    if (amp >= end) {
      out->append(s.substr(i, end - i));
      return;
    }
    out->append(s.substr(i, amp - i));
    const size_t next = TryDecodeRefAt(s, end, amp, out);
    if (next != amp) {
      i = next;
    } else {
      out->push_back('&');
      i = amp + 1;
    }
  }
}

// FindCaseInsensitive(s, needle, from) for needles that start with '<'
// (the raw-text close tags): a match can only begin at a '<', so walk
// the lt plane instead of every byte. '<' has no case variant, so this
// visits exactly the candidate set the scalar scan accepts.
size_t FindRawTextClose(std::string_view s, std::string_view needle,
                        size_t from, const simd::BitPlane& lts) {
  if (s.size() < needle.size()) return std::string_view::npos;
  const size_t limit = s.size() - needle.size();
  for (size_t p = lts.NextSet(from); p != simd::BitPlane::npos;
       p = lts.NextSet(p + 1)) {
    if (p > limit) return std::string_view::npos;
    bool match = true;
    for (size_t j = 1; j < needle.size(); ++j) {
      if (ToLowerChar(s[p + j]) != ToLowerChar(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return p;
  }
  return std::string_view::npos;
}

// Tag-end resolution from the planes: the first '>' at/after `from` is
// the answer whenever no quote precedes it (the overwhelmingly common
// case — two NextSet/AnyInRange word probes); otherwise fall back to the
// quote-aware state machine, which by construction agrees whenever the
// fast path fires.
size_t TagEndIndexed(std::string_view s, size_t from,
                     const TextExtractPlanes& planes) {
  const size_t gt = planes.gt.NextSet(from);
  if (gt == simd::BitPlane::npos) return std::string_view::npos;
  if (!planes.quote.AnyInRange(from, gt)) return gt;
  return simd::FindTagEnd(s, from);
}

// The SIMD-tier kernel: one vectorized pass builds the '<'/'&'/'>'/quote
// planes, then the same lexing state machine as ExtractVisibleTextScalar
// walks set bits instead of calling find() per segment — the per-tag
// memchr and quote-scan overhead (a '<' every ~16 bytes on listing
// pages) is what dominated the scalar profile. Control flow mirrors the
// scalar kernel line for line; every divergence would be caught by the
// per-tier equivalence tests and the forced-tier differential fuzzer.
void ExtractVisibleTextIndexed(std::string_view page_html,
                               std::string* out) {
  const std::string_view s = page_html;
  TextExtractPlanes& planes = Planes();
  simd::BuildHtmlPlanes(s, &planes.lt, &planes.amp, &planes.gt,
                        &planes.quote);
  size_t pos = 0;
  bool in_raw_text = false;
  while (pos < s.size()) {
    if (s[pos] != '<') {
      size_t lt = planes.lt.NextSet(pos);
      if (lt == simd::BitPlane::npos) lt = s.size();
      if (!planes.amp.AnyInRange(pos, lt)) {
        out->append(s.substr(pos, lt - pos));  // ref-free run: bulk copy
      } else {
        DecodeTextRunIndexed(s, pos, lt, planes.amp, out);
      }
      pos = lt;
      continue;
    }
    if (pos + 1 < s.size() && s[pos + 1] == '!') {
      // Comment or doctype: contributes no text and no boundary.
      if (s.compare(pos, 4, "<!--") == 0) {
        const size_t close = s.find("-->", pos + 4);
        pos = close == std::string_view::npos ? s.size() : close + 3;
      } else {
        const size_t close = s.find('>', pos);
        pos = close == std::string_view::npos ? s.size() : close + 1;
      }
      continue;
    }
    const bool is_end_tag = pos + 1 < s.size() && s[pos + 1] == '/';
    const size_t name_start = pos + (is_end_tag ? 2 : 1);
    if (name_start >= s.size() || !IsAlpha(s[name_start])) {
      // Stray '<' (e.g. "1 < 2"): text, like the tokenizer's recovery.
      out->push_back('<');
      ++pos;
      continue;
    }
    size_t name_end = name_start + 1;
    while (name_end < s.size() && IsTagNameChar(s[name_end])) ++name_end;
    const size_t gt = name_end < s.size() && s[name_end] == '>'
                          ? name_end
                          : TagEndIndexed(s, name_end, planes);
    if (gt == std::string_view::npos) {
      // Unterminated tag at EOF: the rest is text (unless still in
      // raw-text context, where the tokenizer drops it).
      if (!in_raw_text) DecodeTextRunIndexed(s, pos, s.size(), planes.amp, out);
      return;
    }
    const std::string_view name =
        s.substr(name_start, name_end - name_start);
    const bool self_closing = !is_end_tag && gt > name_end &&
                              s[gt - 1] == '/';
    pos = gt + 1;
    in_raw_text = false;  // any complete tag ends raw-text context
    if (IsBlockBoundary(name)) AppendBoundary(out);
    if (!is_end_tag && !self_closing &&
        (name[0] == 's' || name[0] == 'S')) {
      // Raw-text elements: skip content up to the closing tag, which the
      // next iteration lexes normally (it adds no text or boundary).
      std::string_view close_needle;
      if (EqualsIgnoreCase(name, "script")) {
        close_needle = "</script";
      } else if (EqualsIgnoreCase(name, "style")) {
        close_needle = "</style";
      }
      if (!close_needle.empty()) {
        const size_t close = FindRawTextClose(s, close_needle, pos,
                                              planes.lt);
        pos = close == std::string_view::npos ? s.size() : close;
        in_raw_text = true;
      }
    }
  }
}

}  // namespace

void ExtractVisibleTextInto(std::string_view page_html, std::string* out) {
  if (simd::ActiveTier() == simd::Tier::kScalar) {
    ExtractVisibleTextScalar(page_html, out);
  } else {
    ExtractVisibleTextIndexed(page_html, out);
  }
}

namespace {

// WSD_FROZEN_BEGIN(text_extract_legacy)
// The tokenizer as it existed before the scan-kernel rewrite, kept
// verbatim as the ablation baseline for ExtractVisibleTextLegacy: every
// token is materialized (lower-cased names via ToLower temporaries,
// eagerly parsed attributes, copied text). Do not optimize — the point
// is to preserve the pre-kernel cost model; output equivalence with the
// current lexer is enforced by the scan-kernel tests.
class LegacyTokenizer {
 public:
  explicit LegacyTokenizer(std::string_view input) : input_(input) {}

  bool Next(Token* token) {
    token->attributes.clear();
    token->self_closing = false;

    if (!raw_text_element_.empty()) {
      Token raw;
      if (LexRawText(raw_text_element_, &raw)) {
        *token = std::move(raw);
        return true;
      }
      // Raw content was empty; fall through to lex the close tag.
    }

    if (pos_ >= input_.size()) return false;

    if (input_[pos_] != '<') {
      const size_t next_lt = input_.find('<', pos_);
      const size_t end = next_lt == std::string_view::npos ? input_.size()
                                                           : next_lt;
      token->type = TokenType::kText;
      token->text.assign(input_.substr(pos_, end - pos_));
      pos_ = end;
      return true;
    }
    return LexTag(token);
  }

 private:
  bool LexRawText(std::string_view element, Token* token) {
    const std::string close = "</" + std::string(element);
    const size_t close_pos = FindCaseInsensitive(input_, close, pos_);
    const size_t end =
        close_pos == std::string_view::npos ? input_.size() : close_pos;
    raw_text_element_.clear();
    if (end == pos_) return false;  // nothing between open and close tags
    token->type = TokenType::kText;
    token->text.assign(input_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  bool LexTag(Token* token) {
    const size_t start = pos_;
    if (StartsWith(input_.substr(start), "<!--")) {
      const size_t close = input_.find("-->", start + 4);
      const size_t end =
          close == std::string_view::npos ? input_.size() : close;
      token->type = TokenType::kComment;
      token->text.assign(input_.substr(start + 4, end - start - 4));
      pos_ = close == std::string_view::npos ? input_.size() : close + 3;
      return true;
    }
    if (start + 1 < input_.size() && input_[start + 1] == '!') {
      const size_t close = input_.find('>', start);
      const size_t end = close == std::string_view::npos ? input_.size()
                                                         : close;
      token->type = TokenType::kDoctype;
      token->text.assign(input_.substr(start + 2, end - start - 2));
      pos_ = close == std::string_view::npos ? input_.size() : close + 1;
      return true;
    }

    const bool is_end_tag =
        start + 1 < input_.size() && input_[start + 1] == '/';
    const size_t name_start = start + (is_end_tag ? 2 : 1);
    if (name_start >= input_.size() || !IsAlpha(input_[name_start])) {
      token->type = TokenType::kText;
      token->text = "<";
      ++pos_;
      return true;
    }

    const size_t gt = FindTagEnd(input_, name_start);
    if (gt == std::string_view::npos) {
      token->type = TokenType::kText;
      token->text.assign(input_.substr(start));
      pos_ = input_.size();
      return true;
    }

    size_t name_end = name_start;
    while (name_end < gt && IsTagNameChar(input_[name_end])) ++name_end;
    token->text = ToLower(input_.substr(name_start, name_end - name_start));

    if (is_end_tag) {
      token->type = TokenType::kEndTag;
    } else {
      token->type = TokenType::kStartTag;
      std::string_view body = input_.substr(name_end, gt - name_end);
      if (!body.empty() && body.back() == '/') {
        token->self_closing = true;
        body.remove_suffix(1);
      }
      LexAttributes(body, token);
      if (!token->self_closing &&
          (token->text == "script" || token->text == "style")) {
        raw_text_element_ = token->text;
      }
    }
    pos_ = gt + 1;
    return true;
  }

  void LexAttributes(std::string_view body, Token* token) {
    size_t i = 0;
    while (i < body.size()) {
      while (i < body.size() && (IsSpace(body[i]) || body[i] == '/')) ++i;
      if (i >= body.size()) break;

      const size_t name_start = i;
      while (i < body.size() && !IsSpace(body[i]) && body[i] != '=' &&
             body[i] != '/') {
        ++i;
      }
      TagAttribute attr;
      attr.name = ToLower(body.substr(name_start, i - name_start));
      if (attr.name.empty()) {
        ++i;
        continue;
      }

      while (i < body.size() && IsSpace(body[i])) ++i;
      if (i < body.size() && body[i] == '=') {
        ++i;
        while (i < body.size() && IsSpace(body[i])) ++i;
        if (i < body.size() && (body[i] == '"' || body[i] == '\'')) {
          const char quote = body[i];
          ++i;
          const size_t value_start = i;
          while (i < body.size() && body[i] != quote) ++i;
          attr.value.assign(body.substr(value_start, i - value_start));
          if (i < body.size()) ++i;  // closing quote
        } else {
          const size_t value_start = i;
          while (i < body.size() && !IsSpace(body[i])) ++i;
          attr.value.assign(body.substr(value_start, i - value_start));
        }
      }
      token->attributes.push_back(std::move(attr));
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::string raw_text_element_;
};

}  // namespace

std::string ExtractVisibleTextLegacy(std::string_view page_html) {
  LegacyTokenizer tokenizer(page_html);
  Token token;
  std::string out;
  out.reserve(page_html.size() / 4);
  bool in_raw_text = false;
  while (tokenizer.Next(&token)) {
    switch (token.type) {
      case TokenType::kText:
        if (!in_raw_text) out += DecodeCharRefsLegacy(token.text);
        break;
      case TokenType::kStartTag:
        in_raw_text = !token.self_closing &&
                      (token.text == "script" || token.text == "style");
        if (LegacyIsBlockBoundary(token.text)) AppendBoundary(&out);
        break;
      case TokenType::kEndTag:
        in_raw_text = false;
        if (LegacyIsBlockBoundary(token.text)) AppendBoundary(&out);
        break;
      case TokenType::kComment:
      case TokenType::kDoctype:
        break;
    }
  }
  return out;
}
// WSD_FROZEN_END(text_extract_legacy)

std::vector<AnchorLink> ExtractAnchors(std::string_view page_html) {
  Tokenizer tokenizer(page_html);
  Token token;
  std::vector<AnchorLink> anchors;
  bool in_anchor = false;
  std::string current_text;
  while (tokenizer.Next(&token)) {
    switch (token.type) {
      case TokenType::kStartTag:
        if (token.text == "a") {
          // Nested <a> is invalid HTML; treat a new <a> as closing the
          // previous one, matching browser recovery.
          if (in_anchor && !anchors.empty()) {
            anchors.back().text = DecodeCharRefs(current_text);
          }
          AnchorLink link;
          for (const TagAttribute& attr : token.attributes) {
            if (attr.name == "href") {
              link.href = DecodeCharRefs(attr.value);
              break;
            }
          }
          anchors.push_back(std::move(link));
          current_text.clear();
          in_anchor = !token.self_closing;
        }
        break;
      case TokenType::kEndTag:
        if (token.text == "a" && in_anchor) {
          if (!anchors.empty()) {
            anchors.back().text = DecodeCharRefs(current_text);
          }
          in_anchor = false;
          current_text.clear();
        }
        break;
      case TokenType::kText:
        if (in_anchor) current_text.append(token.text);
        break;
      case TokenType::kComment:
      case TokenType::kDoctype:
        break;
    }
  }
  if (in_anchor && !anchors.empty()) {
    anchors.back().text = DecodeCharRefs(current_text);
  }
  return anchors;
}

}  // namespace html
}  // namespace wsd
