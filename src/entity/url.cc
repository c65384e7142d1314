#include "entity/url.h"

#include "util/string_util.h"

namespace wsd {

std::string Url::ToString() const {
  std::string out = scheme + "://" + host;
  if (port >= 0) {
    out += ':';
    out += std::to_string(port);
  }
  out += path.empty() ? "/" : path;
  if (!query.empty()) {
    out += '?';
    out += query;
  }
  return out;
}

bool ParseUrlView(std::string_view raw, UrlView* out) {
  raw = Trim(raw);
  const size_t scheme_end = raw.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) return false;
  out->scheme = raw.substr(0, scheme_end);
  if (!EqualsIgnoreCase(out->scheme, "http") &&
      !EqualsIgnoreCase(out->scheme, "https")) {
    return false;
  }

  std::string_view rest = raw.substr(scheme_end + 3);
  // Drop the fragment first: it may contain '/' or '?'.
  const size_t frag = rest.find('#');
  if (frag != std::string_view::npos) rest = rest.substr(0, frag);

  // The authority ends at the first '/' or '?'. A plain loop: the
  // find_first_of set search costs a memchr call per byte.
  size_t path_start = 0;
  while (path_start < rest.size() && rest[path_start] != '/' &&
         rest[path_start] != '?') {
    ++path_start;
  }
  if (path_start == rest.size()) path_start = std::string_view::npos;
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return false;

  // Strip userinfo if present (rare; synthetic corpus never emits it).
  const size_t at = authority.rfind('@');
  if (at != std::string_view::npos) authority = authority.substr(at + 1);

  out->port = -1;
  const size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    auto port = ParseUint64(authority.substr(colon + 1));
    if (!port.has_value() || *port > 65535) return false;
    out->port = static_cast<int>(*port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return false;
  out->host = authority;

  out->path = std::string_view();
  out->query = std::string_view();
  if (path_start != std::string_view::npos) {
    std::string_view tail = rest.substr(path_start);
    const size_t q = tail.find('?');
    if (q == std::string_view::npos) {
      out->path = tail;
    } else {
      out->path = tail.substr(0, q);
      out->query = tail.substr(q + 1);
    }
  }
  return true;
}

std::string_view NormalizeHostView(std::string_view host) {
  std::string_view h = Trim(host);
  if (h.size() > 4 && EqualsIgnoreCase(h.substr(0, 4), "www.")) {
    h = h.substr(4);
  }
  if (!h.empty() && h.back() == '.') h.remove_suffix(1);
  return h;
}

namespace {

void AppendLower(std::string_view s, std::string* out) {
  for (char c : s) out->push_back(ToLowerChar(c));
}

}  // namespace

std::optional<Url> ParseUrl(std::string_view raw) {
  UrlView view;
  if (!ParseUrlView(raw, &view)) return std::nullopt;
  Url url;
  url.scheme = ToLower(view.scheme);
  url.host = ToLower(view.host);
  url.port = view.port;
  url.path = view.path.empty() ? "/" : std::string(view.path);
  url.query = std::string(view.query);
  return url;
}

std::string NormalizeHost(std::string_view host) {
  std::string out;
  AppendLower(NormalizeHostView(host), &out);
  return out;
}

std::string CanonicalizeHomepage(std::string_view raw_url) {
  std::string out;
  CanonicalizeHomepageInto(raw_url, &out);
  return out;
}

bool CanonicalizeHomepageInto(std::string_view raw_url, std::string* out) {
  out->clear();
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) return false;
  std::string_view path = view.path.empty() ? "/" : view.path;
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  if (path == "/") path = std::string_view();
  AppendLower(NormalizeHostView(view.host), out);
  out->append(path);
  return true;
}

bool ParseHostInto(std::string_view raw_url, std::string* out) {
  out->clear();
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) return false;
  AppendLower(NormalizeHostView(view.host), out);
  return true;
}

}  // namespace wsd
