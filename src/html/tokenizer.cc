#include "html/tokenizer.h"

#include "util/simd.h"
#include "util/string_util.h"

namespace wsd {
namespace html {

namespace {

void AssignLower(std::string_view s, std::string* out) {
  out->clear();
  for (char c : s) out->push_back(ToLowerChar(c));
}

}  // namespace

bool Tokenizer::LexRawText(TokenView* view) {
  // Content runs until "</element" (case-insensitive); browsers accept
  // anything after the name up to '>'. The close-tag needle is rebuilt
  // from the static element literal, so no allocation happens here.
  const size_t close_pos =
      raw_text_element_ == "script"
          ? simd::FindCaseInsensitive(input_, "</script", pos_)
          : simd::FindCaseInsensitive(input_, "</style", pos_);
  const size_t end =
      close_pos == std::string_view::npos ? input_.size() : close_pos;
  raw_text_element_ = std::string_view();
  if (end == pos_) return false;  // nothing between open and close tags
  view->type = TokenType::kText;
  view->text = input_.substr(pos_, end - pos_);
  pos_ = end;
  return true;
}

bool Tokenizer::Next(Token* token) {
  TokenView view;
  if (!NextView(&view)) return false;
  token->type = view.type;
  token->self_closing = view.self_closing;
  token->attributes.clear();
  switch (view.type) {
    case TokenType::kStartTag:
    case TokenType::kEndTag: {
      AssignLower(view.text, &token->text);
      AttributeCursor cursor(view.tag_body);
      std::string_view name, value;
      while (cursor.Next(&name, &value)) {
        TagAttribute attr;
        AssignLower(name, &attr.name);
        attr.value.assign(value);
        token->attributes.push_back(std::move(attr));
      }
      break;
    }
    case TokenType::kText:
    case TokenType::kComment:
    case TokenType::kDoctype:
      token->text.assign(view.text);
      break;
  }
  return true;
}

bool AttributeCursor::Next(std::string_view* name, std::string_view* value) {
  while (pos_ < body_.size()) {
    size_t i = pos_;
    while (i < body_.size() && (IsSpace(body_[i]) || body_[i] == '/')) ++i;
    if (i >= body_.size()) {
      pos_ = i;
      return false;
    }

    const size_t name_start = i;
    while (i < body_.size() && !IsSpace(body_[i]) && body_[i] != '=' &&
           body_[i] != '/') {
      ++i;
    }
    *name = body_.substr(name_start, i - name_start);
    if (name->empty()) {
      pos_ = i + 1;
      continue;
    }

    while (i < body_.size() && IsSpace(body_[i])) ++i;
    *value = std::string_view();
    if (i < body_.size() && body_[i] == '=') {
      ++i;
      while (i < body_.size() && IsSpace(body_[i])) ++i;
      if (i < body_.size() && (body_[i] == '"' || body_[i] == '\'')) {
        const char quote = body_[i];
        ++i;
        const size_t value_start = i;
        while (i < body_.size() && body_[i] != quote) ++i;
        *value = body_.substr(value_start, i - value_start);
        if (i < body_.size()) ++i;  // closing quote
      } else {
        const size_t value_start = i;
        while (i < body_.size() && !IsSpace(body_[i])) ++i;
        *value = body_.substr(value_start, i - value_start);
      }
    }
    pos_ = i;
    return true;
  }
  return false;
}

bool FindTagAttribute(std::string_view tag_body, std::string_view name_lower,
                      std::string_view* value) {
  AttributeCursor cursor(tag_body);
  std::string_view name, v;
  while (cursor.Next(&name, &v)) {
    if (EqualsIgnoreCase(name, name_lower)) {
      *value = v;
      return true;
    }
  }
  return false;
}

}  // namespace html
}  // namespace wsd
