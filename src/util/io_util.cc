#include "util/io_util.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace wsd {

namespace fs = std::filesystem;

Status WriteStringToFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out.good()) return Status::IOError("write failure: " + path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  // The temp file must live on the same filesystem as the target for
  // rename() to be atomic; a sibling name guarantees that.
  const std::string tmp = path + ".tmp";
  if (Status written = WriteStringToFile(tmp, data); !written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IOError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + path + ": " +
                           ec.message());
  }
  if (!fs::is_directory(path, ec)) {
    return Status::IOError("not a directory: " + path);
  }
  return Status::OK();
}

}  // namespace wsd
