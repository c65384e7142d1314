#ifndef WSD_UTIL_STRING_UTIL_H_
#define WSD_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wsd {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Splits `s` on `sep`, dropping empty fields.
std::vector<std::string_view> SplitSkipEmpty(std::string_view s, char sep);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII-only case conversion (sufficient: all identifiers in the study are
/// ASCII).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a non-negative decimal integer; rejects empty input, non-digits
/// and overflow.
std::optional<uint64_t> ParseUint64(std::string_view s);

/// Parses a double via strtod; rejects trailing junk.
std::optional<double> ParseDouble(std::string_view s);

/// True if `c` is an ASCII decimal digit. (std::isdigit has UB for
/// negative chars; these helpers are branch-cheap and safe.)
inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAlnum(char c) { return IsDigit(c) || IsAlpha(c); }
inline bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
inline char ToLowerChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// printf-style formatting appended to *out. Formats into a stack buffer
/// first, so appends that fit existing capacity perform no heap
/// allocation — the variant the zero-allocation page renderer uses.
void AppendFormat(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace wsd

#endif  // WSD_UTIL_STRING_UTIL_H_
