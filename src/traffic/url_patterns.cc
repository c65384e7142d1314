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

// Appends `value` in decimal, zero-padded to at least `width` digits:
// printf's "%0<width>u" without its per-call cost.
void AppendZeroPadded(uint32_t value, int width, std::string* out) {
  char digits[10];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (int i = n; i < width; ++i) out->push_back('0');
  while (n > 0) out->push_back(digits[--n]);
}

// Appends the key: "B%09u", "biz-%06u" or "tt%07u".
void AppendEntityKey(TrafficSite site, uint32_t entity_index,
                     std::string* out) {
  switch (site) {
    case TrafficSite::kAmazon:
      out->push_back('B');
      AppendZeroPadded(entity_index, 9, out);
      return;
    case TrafficSite::kYelp:
      out->append("biz-");
      AppendZeroPadded(entity_index, 6, out);
      return;
    case TrafficSite::kImdb:
      out->append("tt");
      AppendZeroPadded(entity_index, 7, out);
      return;
    case TrafficSite::kNumSites:
      return;
  }
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

std::string EntityUrl(TrafficSite site, uint32_t entity_index,
                      uint32_t variant) {
  std::string url;
  AppendEntityUrl(site, entity_index, variant, &url);
  return url;
}

void AppendEntityUrl(TrafficSite site, uint32_t entity_index,
                     uint32_t variant, std::string* out) {
  switch (site) {
    case TrafficSite::kAmazon:
      out->append(variant % 2 == 0
                      ? "http://www.amazon.com/gp/product/"
                      : "http://www.amazon.com/some-product-title/dp/");
      AppendEntityKey(site, entity_index, out);
      return;
    case TrafficSite::kYelp:
      out->append("http://www.yelp.com/biz/");
      AppendEntityKey(site, entity_index, out);
      return;
    case TrafficSite::kImdb:
      out->append("http://www.imdb.com/title/");
      AppendEntityKey(site, entity_index, out);
      out->push_back('/');
      return;
    case TrafficSite::kNumSites:
      return;
  }
}

std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url) {
  UrlView parsed;
  if (!ParseUrlView(url, &parsed)) return std::nullopt;
  const std::string_view host = NormalizeHostView(parsed.host);
  const std::string_view path = parsed.path;

  if (EqualsIgnoreCase(host, "amazon.com")) {
    // amazon.com/gp/product/[ID] or amazon.com/*/dp/[ID].
    std::string_view key = SegmentAfter(path, "/gp/product/");
    if (key.empty()) key = SegmentAfter(path, "/dp/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseAsin(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kAmazon, *idx};
  }
  if (EqualsIgnoreCase(host, "yelp.com")) {
    const std::string_view key = SegmentAfter(path, "/biz/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseYelpSlug(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kYelp, *idx};
  }
  if (EqualsIgnoreCase(host, "imdb.com")) {
    const std::string_view key = SegmentAfter(path, "/title/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseImdbTitle(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kImdb, *idx};
  }
  return std::nullopt;
}

}  // namespace wsd
