/// \file endpoints.h
/// Request routing, content negotiation and JSON rendering for `wsdd`.
/// Pure logic over parsed HttpRequests — no sockets — so the whole
/// analysis surface is unit-testable without a running server. The
/// request vocabulary (domain, attr and site names) comes from
/// entity/domains, the attribute registry and traffic/url_patterns, the
/// same tables wsdctl's flags read. The *Body serializers own the JSON
/// layouts; their TSV branch returns the core/report renderer that
/// `wsdctl --out` and `wsdctl paper` write, so a TSV response is
/// byte-identical to the wsdctl file (pinned by
/// `WsdctlTest.TsvMatchesServedBody`).
///
/// Endpoints (GET only; anything else is 405 with an Allow header):
///   /healthz   liveness probe, text/plain "ok"
///   /metrics   MetricsRegistry passthrough (Prometheus text; ?format=json)
///   /spread    k-coverage curves       ?domain=&attr=[&k=][&seed=][&scale=]
///   /setcover  greedy vs size ordering ?domain=&attr=[&seed=][&scale=]
///   /graph     Table 2 metrics row     ?domain=&attr=[&seed=][&scale=]
///   /demand    §4 value study          ?site=[&seed=][&scale=]
/// Analysis endpoints return JSON by default; `?format=tsv` or an
/// `Accept: text/tab-separated-values` header selects the TSV rendering
/// (the same bytes as `wsdctl --out`).

#ifndef WSD_SERVE_ENDPOINTS_H_
#define WSD_SERVE_ENDPOINTS_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/study.h"
#include "serve/http.h"
#include "serve/scan_cache.h"
#include "util/mutex.h"

namespace wsd {

/// Response rendering selected by content negotiation.
enum class WireFormat {
  kJson,
  kTsv,
};

/// LRU memo of fully rendered analysis responses, keyed by (request
/// target, negotiated format). Safe with no invalidation: every analysis
/// is deterministic in its parameters and the server's base options, so
/// a rendered body can never go stale. This is what lets a warm wsdd
/// serve repeated queries at socket speed instead of re-running the
/// O(sites + edges) analysis per request. Thread-safe.
class ResponseCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  explicit ResponseCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// On hit, fills body/content_type of `resp` and returns true.
  bool Lookup(const std::string& key, HttpResponse* resp);
  /// Admits a rendered 200 response; evicts LRU entries over budget.
  void Insert(const std::string& key, const HttpResponse& resp);

  Stats GetStats() const;
  size_t max_bytes() const { return max_bytes_; }
  /// Startup-time configuration only; not synchronized against Insert.
  void set_max_bytes(size_t max_bytes) { max_bytes_ = max_bytes; }

 private:
  struct Entry {
    std::string body;
    std::string content_type;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  // unguarded: startup-time configuration written before the server
  // accepts connections (see set_max_bytes), read-only afterwards.
  size_t max_bytes_;
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  size_t total_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

/// Shared state behind every request: the base StudyOptions (entities,
/// threads, artifact_dir) and the scan cache. One ServeContext per
/// server; HandleRequest is safe to call from many threads.
struct ServeContext {
  // unguarded: base and cache are configured once before the server
  // starts and never mutated afterwards; ScanHandleCache locks
  // internally.
  StudyOptions base;
  ScanHandleCache* cache = nullptr;  // not owned; required

  /// Rendered-response memo for the analysis endpoints (/spread,
  /// /setcover, /graph, /demand). /metrics and /healthz are never
  /// cached. unguarded: ResponseCache carries its own mutex.
  ResponseCache responses{64u * 1024 * 1024};
};

/// Routes one request and fills `resp`. Never throws; every failure maps
/// to 400/404/405 with a JSON error body. Also bumps the
/// `wsd.serve.*` request counters and latency histograms.
void HandleRequest(ServeContext& ctx, const HttpRequest& req,
                   HttpResponse* resp);

/// Negotiated format for `req`: the `format` query parameter (json|tsv)
/// wins; otherwise an Accept header naming a TSV media type selects TSV;
/// default JSON.
WireFormat NegotiateFormat(const HttpRequest& req);

/// Pure response renderers (deterministic; %.6f floats). kTsv returns
/// the core/report TSV body for the same result.
std::string SpreadBody(Domain domain, Attribute attr,
                       const CoverageCurve& curve, WireFormat format);
std::string SetCoverBody(Domain domain, Attribute attr,
                         const SetCoverCurve& curve, WireFormat format);
std::string GraphBody(const GraphMetricsRow& row, WireFormat format);
std::string DemandBody(const Study::ValueStudyResult& result,
                       WireFormat format);

}  // namespace wsd

#endif  // WSD_SERVE_ENDPOINTS_H_
