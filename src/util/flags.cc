#include "util/flags.h"

#include "util/string_util.h"

namespace wsd {

FlagParser::FlagParser(int argc, char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::string(arg));
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

std::optional<std::string> FlagParser::Get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string FlagParser::GetOr(const std::string& name,
                              const std::string& fallback) const {
  return Get(name).value_or(fallback);
}

std::optional<uint64_t> FlagParser::GetUint(const std::string& name) const {
  auto raw = Get(name);
  if (!raw.has_value()) return std::nullopt;
  return ParseUint64(*raw);
}

std::optional<double> FlagParser::GetDouble(const std::string& name) const {
  auto raw = Get(name);
  if (!raw.has_value()) return std::nullopt;
  return ParseDouble(*raw);
}

Status FlagParser::ReadUint64(const std::string& name, uint64_t min,
                              uint64_t max, uint64_t* value) const {
  const auto raw = Get(name);
  if (!raw.has_value()) return Status::OK();
  const auto parsed = ParseUint64(*raw);
  if (!parsed.has_value() || *parsed < min || *parsed > max) {
    return Status::InvalidArgument(StrFormat(
        "--%s: expected an integer in [%llu, %llu], got '%s'", name.c_str(),
        static_cast<unsigned long long>(min),
        static_cast<unsigned long long>(max), raw->c_str()));
  }
  *value = *parsed;
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.contains(name);
}

}  // namespace wsd
