#ifndef WSD_ENTITY_URL_H_
#define WSD_ENTITY_URL_H_

#include <optional>
#include <string>
#include <string_view>

namespace wsd {

/// A parsed URL. Only the parts the study needs: scheme, host, port, path,
/// query. Fragments are dropped at parse time (they never reach servers and
/// never identify entities).
struct Url {
  std::string scheme;  // lower-cased, e.g. "http"
  std::string host;    // lower-cased, e.g. "www.yelp.com"
  int port = -1;       // -1 when absent
  std::string path;    // begins with '/' (defaulted when absent)
  std::string query;   // without the leading '?'

  std::string ToString() const;
};

/// Parses an absolute http(s) URL. Returns nullopt for anything else
/// (relative refs, other schemes, empty host).
std::optional<Url> ParseUrl(std::string_view raw);

/// All parts of a parsed URL as views into the (trimmed) input: the
/// single allocation-free parser behind ParseUrl, CanonicalizeHomepageInto,
/// ParseHostInto and the traffic layer's ParseEntityUrl. `scheme` and
/// `host` are raw (not lower-cased); `path` and `query` may be empty
/// (ParseUrl defaults path to "/").
struct UrlView {
  std::string_view scheme;
  std::string_view host;
  std::string_view path;
  std::string_view query;
  int port = -1;
};

/// Fills *out with views into `raw`. Returns false exactly when ParseUrl
/// would return nullopt.
bool ParseUrlView(std::string_view raw, UrlView* out);

/// NormalizeHost over views: trims, drops one leading "www." label (any
/// case) and a trailing dot, but does not lower-case. Compare the result
/// with EqualsIgnoreCase, or lower-case it while copying.
std::string_view NormalizeHostView(std::string_view host);

/// Lower-cases and strips a single leading "www." label. This is the host
/// key used to group pages into "websites" throughout the study (the paper
/// aggregates pages by host).
std::string NormalizeHost(std::string_view host);

/// Canonical comparison form of a homepage URL: normalized host plus path
/// with any trailing slash removed and the scheme dropped. Two homepage
/// spellings that differ only in scheme, case, "www." or trailing slash
/// compare equal.
std::string CanonicalizeHomepage(std::string_view raw_url);

/// Zero-allocation variant of CanonicalizeHomepage: writes the canonical
/// key into *out (replacing its contents, reusing capacity). Returns
/// false — with *out cleared — exactly when CanonicalizeHomepage would
/// return an empty string. The homepage scan kernel calls this per anchor
/// with a reused scratch buffer.
bool CanonicalizeHomepageInto(std::string_view raw_url, std::string* out);

/// Zero-allocation host extraction: writes NormalizeHost(ParseUrl(raw)
/// ->host) into *out (replacing contents, reusing capacity). Returns
/// false — with *out cleared — exactly when ParseUrl would fail. The
/// cache-scan kernel uses this to group pages by host without per-page
/// URL materialization.
bool ParseHostInto(std::string_view raw_url, std::string* out);

}  // namespace wsd

#endif  // WSD_ENTITY_URL_H_
