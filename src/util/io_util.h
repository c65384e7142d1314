#ifndef WSD_UTIL_IO_UTIL_H_
#define WSD_UTIL_IO_UTIL_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace wsd {

/// Creates or truncates `path` and writes `data` to it. IOError naming
/// the path when it cannot be opened (a directory, a missing parent) or
/// written.
[[nodiscard]] Status WriteStringToFile(const std::string& path,
                                       std::string_view data);

/// Atomically replaces `path` with `data`: writes to a sibling temp file
/// and renames it over the target, so concurrent readers only ever see
/// the old bytes or the new bytes, never a torn write. The temp file is
/// removed on any failure.
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     std::string_view data);

/// Creates `path` (and missing parents) as a directory. OK when it
/// already exists as a directory; IOError when creation fails or the
/// path exists as a non-directory.
[[nodiscard]] Status EnsureDirectory(const std::string& path);

}  // namespace wsd

#endif  // WSD_UTIL_IO_UTIL_H_
