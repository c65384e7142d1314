#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wsd {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitSkipEmpty(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(s, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToLowerChar(c);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerChar(a[i]) != ToLowerChar(b[i])) return false;
  }
  return true;
}

std::optional<uint64_t> ParseUint64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  uint64_t v = 0;
  for (char c : s) {
    if (!IsDigit(c)) return std::nullopt;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    v = v * 10 + digit;
  }
  return v;
}

std::optional<double> ParseDouble(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // strtod needs NUL-terminated input.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendFormat(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  const int needed = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (needed <= 0) return;
  if (static_cast<size_t>(needed) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(needed));
    return;
  }
  // Rare long output: format straight into the string's tail.
  const size_t old_size = out->size();
  out->resize(old_size + static_cast<size_t>(needed));
  va_start(args, fmt);
  std::vsnprintf(out->data() + old_size, static_cast<size_t>(needed) + 1,
                 fmt, args);
  va_end(args);
}

}  // namespace wsd
