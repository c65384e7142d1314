#ifndef WSD_TRAFFIC_URL_PATTERNS_H_
#define WSD_TRAFFIC_URL_PATTERNS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace wsd {

/// The three high-traffic, review-rich sites of the §4 case study.
enum class TrafficSite : int {
  kAmazon = 0,  // amazon.com/gp/product/[ID] and amazon.com/*/dp/[ID]
  kYelp = 1,    // yelp.com/biz/[ID]
  kImdb = 2,    // imdb.com/title/tt[ID]
  kNumSites = 3,
};

std::string_view TrafficSiteName(TrafficSite site);

/// Inverse of TrafficSiteName, case-insensitive ("amazon", "yelp",
/// "imdb": the `--site` / `?site=` vocabulary). nullopt when unknown.
std::optional<TrafficSite> ParseTrafficSite(std::string_view name);

/// A URL resolved to the structured entity it denotes.
struct EntityUrlKey {
  TrafficSite site = TrafficSite::kAmazon;
  uint32_t entity_index = 0;
};

/// Builds a visitable URL for the entity. Its key mirrors each site's
/// real scheme: Amazon a 10-character ASIN-like id ("B%09u"), Yelp a
/// business slug ("biz-%06u"), IMDb a 7-digit title number ("tt%07u").
/// Amazon entities alternate between the /gp/product/ and /*/dp/ forms
/// (both occur in real logs and both must parse; `variant` selects the
/// form).
std::string EntityUrl(TrafficSite site, uint32_t entity_index,
                      uint32_t variant = 0);

/// Appends EntityUrl(site, entity_index, variant) to *out. Allocates only
/// when *out must grow: the traffic generator renders every event's URL
/// into one reused buffer.
void AppendEntityUrl(TrafficSite site, uint32_t entity_index,
                     uint32_t variant, std::string* out);

/// Recognizes the three URL patterns and extracts the entity index
/// ("we extracted user clicks on URLs that correspond to a unique
/// structured entity", §4.1). The host compares case-insensitively after
/// NormalizeHost's "www." and trailing-dot rules; the path is matched as
/// is. Returns nullopt for anything else. Allocation-free.
std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url);

}  // namespace wsd

#endif  // WSD_TRAFFIC_URL_PATTERNS_H_
