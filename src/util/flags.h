#ifndef WSD_UTIL_FLAGS_H_
#define WSD_UTIL_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace wsd {

/// Minimal command-line parser used by the tools: accepts
/// `--name=value`, `--name value` and bare `--name` (value "true");
/// everything else is positional. No registration step — callers query
/// by name, which fits single-binary drivers.
class FlagParser {
 public:
  FlagParser(int argc, char* const* argv);

  /// Value of --name, or nullopt when absent.
  std::optional<std::string> Get(const std::string& name) const;

  /// Value of --name or `fallback`.
  std::string GetOr(const std::string& name,
                    const std::string& fallback) const;

  /// Parsed numeric flags; nullopt when absent or unparseable.
  std::optional<uint64_t> GetUint(const std::string& name) const;
  std::optional<double> GetDouble(const std::string& name) const;

  /// Reads integer flag --name into *field. Absent: OK, and *field keeps
  /// its value. Present: the value must be a decimal integer in
  /// [min, max] that *field can hold; anything else is InvalidArgument
  /// naming the flag, so a malformed value never becomes a silent
  /// default or a wrapped one.
  template <typename T>
  [[nodiscard]] Status ReadUint(
      const std::string& name, T* field, uint64_t min = 0,
      uint64_t max = std::numeric_limits<T>::max()) const {
    static_assert(std::is_unsigned_v<T>);
    uint64_t value = *field;
    WSD_RETURN_IF_ERROR(ReadUint64(
        name, min, std::min<uint64_t>(max, std::numeric_limits<T>::max()),
        &value));
    *field = static_cast<T>(value);
    return Status::OK();
  }

  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  [[nodiscard]] Status ReadUint64(const std::string& name, uint64_t min,
                                  uint64_t max, uint64_t* value) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace wsd

#endif  // WSD_UTIL_FLAGS_H_
