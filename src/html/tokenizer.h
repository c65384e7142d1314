#ifndef WSD_HTML_TOKENIZER_H_
#define WSD_HTML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/simd.h"
#include "util/string_util.h"

namespace wsd {
namespace html {

/// Kinds of token the streaming tokenizer emits.
enum class TokenType : int {
  kStartTag = 0,  // <div class="x"> ; self_closing for <br/>
  kEndTag,        // </div>
  kText,          // raw text between tags (char refs NOT yet decoded)
  kComment,       // <!-- ... -->
  kDoctype,       // <!DOCTYPE html>
};

/// One attribute on a start tag. Values are unquoted and raw (char refs
/// not decoded; callers decode when they care, e.g. href extraction).
struct TagAttribute {
  std::string name;   // lower-cased
  std::string value;  // empty for valueless attributes
};

/// One token. `text` holds tag name (lower-cased) for tags, text content
/// for kText/kComment, and the raw declaration for kDoctype.
struct Token {
  TokenType type = TokenType::kText;
  std::string text;
  std::vector<TagAttribute> attributes;
  bool self_closing = false;
};

/// Zero-allocation token: every field is a view into the tokenizer's
/// input, valid until the input buffer is mutated or destroyed. `text` is
/// the RAW (not lower-cased) tag name for tags — compare with
/// EqualsIgnoreCase — and the raw content for kText/kComment/kDoctype.
/// For start tags, `tag_body` is the raw attribute region between the tag
/// name and '>' (trailing "/" of self-closing tags already stripped);
/// parse it lazily with AttributeCursor or FindTagAttribute. This is the
/// scan kernel's streaming interface: Tokenizer::NextView never touches
/// the heap.
struct TokenView {
  TokenType type = TokenType::kText;
  std::string_view text;
  std::string_view tag_body;
  bool self_closing = false;
};

/// A forgiving, allocation-light streaming HTML tokenizer sufficient for
/// crawled listing pages: handles attributes in single/double/no quotes,
/// comments, doctype, and raw-text elements (<script>, <style>) whose
/// content is emitted as a single kText token and never parsed for tags.
/// Malformed input never fails; the tokenizer resynchronizes at the next
/// '<' like browsers do.
///
/// Two interfaces share one lexer: NextView yields views into the input
/// and never allocates (the scan kernel path); Next materializes the same
/// token stream into an owning Token with lower-cased names and parsed
/// attributes (the path ExtractAnchors reads for the frozen legacy scan
/// oracle and the extract_page example).
class Tokenizer {
 public:
  /// `input` must outlive the tokenizer.
  explicit Tokenizer(std::string_view input) : input_(input) {}

  /// Fetches the next token as views into the input. Returns false at end
  /// of input. Performs no heap allocation. Defined inline (with LexTag)
  /// so the scan kernel's per-token loop compiles into one flat loop —
  /// the call overhead is measurable at ~100 tokens per page.
  bool NextView(TokenView* view);

  /// Fetches the next token, materialized. Returns false at end of input.
  bool Next(Token* token);

 private:
  bool LexTag(TokenView* view);
  bool LexRawText(TokenView* view);

  static bool IsTagNameChar(char c) {
    return IsAlnum(c) || c == '-' || c == ':';
  }

  // Finds the end of a tag ('>') starting after '<', honoring quoted
  // attribute values that may contain '>'. Dispatches to the active SIMD
  // tier; at Tier::kScalar this is the original quote state machine.
  // Returns npos if unterminated.
  static size_t FindTagEnd(std::string_view s, size_t start) {
    return simd::FindTagEnd(s, start);
  }

  std::string_view input_;
  size_t pos_ = 0;
  // Non-empty while inside <script>/<style>: the element whose closing tag
  // ends raw-text mode. Always one of the static literals "script" /
  // "style", so tracking it never allocates.
  std::string_view raw_text_element_;
};

/// Streams the attributes of a start tag's `tag_body` (TokenView) as raw
/// views — names are NOT lower-cased and values NOT char-ref-decoded.
/// Replicates the materializing parser exactly: quoted (single/double) and
/// unquoted values, valueless attributes, '/' treated as separator.
class AttributeCursor {
 public:
  explicit AttributeCursor(std::string_view tag_body) : body_(tag_body) {}

  /// Advances to the next attribute. Returns false when exhausted.
  bool Next(std::string_view* name, std::string_view* value);

 private:
  std::string_view body_;
  size_t pos_ = 0;
};

/// Finds the first attribute named `name_lower` (ASCII lower-case) in a
/// start tag's `tag_body` and points *value at its raw value. Returns
/// false when absent. Zero allocation.
bool FindTagAttribute(std::string_view tag_body, std::string_view name_lower,
                      std::string_view* value);

inline bool Tokenizer::NextView(TokenView* view) {
  view->tag_body = std::string_view();
  view->self_closing = false;

  if (!raw_text_element_.empty()) {
    if (LexRawText(view)) return true;
    // Raw content was empty; fall through to lex the close tag.
  }

  if (pos_ >= input_.size()) return false;

  if (input_[pos_] != '<') {
    const size_t next_lt = input_.find('<', pos_);
    const size_t end = next_lt == std::string_view::npos ? input_.size()
                                                         : next_lt;
    view->type = TokenType::kText;
    view->text = input_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }
  return LexTag(view);
}

inline bool Tokenizer::LexTag(TokenView* view) {
  // pos_ is at '<'. Declarations first — every non-tag '<' form ('!'
  // markup, stray '<') is rare, so normal tags take a straight path.
  const size_t start = pos_;
  if (start + 1 < input_.size() && input_[start + 1] == '!') {
    if (input_.compare(start, 4, "<!--") == 0) {
      const size_t close = input_.find("-->", start + 4);
      const size_t end =
          close == std::string_view::npos ? input_.size() : close;
      view->type = TokenType::kComment;
      view->text = input_.substr(start + 4, end - start - 4);
      pos_ = close == std::string_view::npos ? input_.size() : close + 3;
      return true;
    }
    const size_t close = input_.find('>', start);
    const size_t end = close == std::string_view::npos ? input_.size()
                                                       : close;
    view->type = TokenType::kDoctype;
    view->text = input_.substr(start + 2, end - start - 2);
    pos_ = close == std::string_view::npos ? input_.size() : close + 1;
    return true;
  }

  const bool is_end_tag =
      start + 1 < input_.size() && input_[start + 1] == '/';
  const size_t name_start = start + (is_end_tag ? 2 : 1);
  if (name_start >= input_.size() || !IsAlpha(input_[name_start])) {
    // A stray '<' (e.g. "1 < 2"): emit it as text and resynchronize.
    view->type = TokenType::kText;
    view->text = input_.substr(start, 1);
    ++pos_;
    return true;
  }

  // Scan the name first: tag-name chars can't be '>' or quotes, and most
  // tags (`</div>`, `<td>`) end right after the name, skipping the
  // quote-aware FindTagEnd scan entirely.
  size_t name_end = name_start + 1;
  while (name_end < input_.size() && IsTagNameChar(input_[name_end])) {
    ++name_end;
  }
  const size_t gt = name_end < input_.size() && input_[name_end] == '>'
                        ? name_end
                        : FindTagEnd(input_, name_end);
  if (gt == std::string_view::npos) {
    // Unterminated tag at EOF: swallow the rest as text, like browsers.
    view->type = TokenType::kText;
    view->text = input_.substr(start);
    pos_ = input_.size();
    return true;
  }

  view->text = input_.substr(name_start, name_end - name_start);

  if (is_end_tag) {
    view->type = TokenType::kEndTag;
  } else {
    view->type = TokenType::kStartTag;
    std::string_view body = input_.substr(name_end, gt - name_end);
    if (!body.empty() && body.back() == '/') {
      view->self_closing = true;
      body.remove_suffix(1);
    }
    view->tag_body = body;
    // Cheap first-char gate before the raw-text element comparisons.
    if (!view->self_closing && !view->text.empty() &&
        (view->text[0] == 's' || view->text[0] == 'S')) {
      if (EqualsIgnoreCase(view->text, "script")) {
        raw_text_element_ = "script";
      } else if (EqualsIgnoreCase(view->text, "style")) {
        raw_text_element_ = "style";
      }
    }
  }
  pos_ = gt + 1;
  return true;
}

}  // namespace html
}  // namespace wsd

#endif  // WSD_HTML_TOKENIZER_H_
