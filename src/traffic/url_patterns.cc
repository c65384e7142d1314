#include "traffic/url_patterns.h"

#include "entity/url.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// Parses "B%09u"-style ASINs we generate. Real ASINs are opaque; only our
// synthetic ids round-trip, which is all the study needs.
std::optional<uint32_t> ParseAsin(std::string_view key) {
  if (key.size() != 10 || key[0] != 'B') return std::nullopt;
  auto idx = ParseUint64(key.substr(1));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

std::optional<uint32_t> ParseYelpSlug(std::string_view key) {
  if (!StartsWith(key, "biz-")) return std::nullopt;
  auto idx = ParseUint64(key.substr(4));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

std::optional<uint32_t> ParseImdbTitle(std::string_view key) {
  if (!StartsWith(key, "tt")) return std::nullopt;
  auto idx = ParseUint64(key.substr(2));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

// First path segment after `prefix` in `path`, stopping at '/'.
std::string_view SegmentAfter(std::string_view path, std::string_view prefix) {
  const size_t pos = path.find(prefix);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = path.substr(pos + prefix.size());
  const size_t slash = rest.find('/');
  return slash == std::string_view::npos ? rest : rest.substr(0, slash);
}

}  // namespace

std::string_view TrafficSiteName(TrafficSite site) {
  switch (site) {
    case TrafficSite::kAmazon:
      return "Amazon";
    case TrafficSite::kYelp:
      return "Yelp";
    case TrafficSite::kImdb:
      return "IMDb";
    case TrafficSite::kNumSites:
      break;
  }
  return "Unknown";
}

std::optional<TrafficSite> ParseTrafficSite(std::string_view name) {
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    if (EqualsIgnoreCase(name, TrafficSiteName(site))) return site;
  }
  return std::nullopt;
}

std::string EntityKeyString(TrafficSite site, uint32_t entity_index) {
  switch (site) {
    case TrafficSite::kAmazon:
      return StrFormat("B%09u", entity_index);
    case TrafficSite::kYelp:
      return StrFormat("biz-%06u", entity_index);
    case TrafficSite::kImdb:
      return StrFormat("tt%07u", entity_index);
    case TrafficSite::kNumSites:
      break;
  }
  return {};
}

std::string EntityUrl(TrafficSite site, uint32_t entity_index,
                      uint32_t variant) {
  const std::string key = EntityKeyString(site, entity_index);
  switch (site) {
    case TrafficSite::kAmazon:
      if (variant % 2 == 0) {
        return "http://www.amazon.com/gp/product/" + key;
      }
      return "http://www.amazon.com/some-product-title/dp/" + key;
    case TrafficSite::kYelp:
      return "http://www.yelp.com/biz/" + key;
    case TrafficSite::kImdb:
      return "http://www.imdb.com/title/" + key + "/";
    case TrafficSite::kNumSites:
      break;
  }
  return {};
}

std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url) {
  auto parsed = ParseUrl(url);
  if (!parsed.has_value()) return std::nullopt;
  const std::string host = NormalizeHost(parsed->host);
  const std::string& path = parsed->path;

  if (host == "amazon.com") {
    // amazon.com/gp/product/[ID] or amazon.com/*/dp/[ID].
    std::string_view key = SegmentAfter(path, "/gp/product/");
    if (key.empty()) key = SegmentAfter(path, "/dp/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseAsin(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kAmazon, *idx};
  }
  if (host == "yelp.com") {
    const std::string_view key = SegmentAfter(path, "/biz/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseYelpSlug(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kYelp, *idx};
  }
  if (host == "imdb.com") {
    const std::string_view key = SegmentAfter(path, "/title/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseImdbTitle(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kImdb, *idx};
  }
  return std::nullopt;
}

}  // namespace wsd
