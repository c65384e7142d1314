#include "serve/endpoints.h"

#include <optional>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/report.h"
#include "core/set_cover.h"
#include "extract/attribute_registry.h"
#include "traffic/demand.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wsd {

namespace {

// ---------------------------------------------------------------------
// Instrumentation. One counter + latency histogram per endpoint, hoisted
// into statics so the registry lock is not taken per request.

struct EndpointMetrics {
  Counter& requests;
  LatencyHistogram& latency;
};

EndpointMetrics MakeEndpointMetrics(const char* endpoint) {
  auto& reg = MetricsRegistry::Global();
  return EndpointMetrics{
      reg.GetCounter(StrFormat("wsd.serve.%s.requests", endpoint)),
      reg.GetHistogram(StrFormat("wsd.serve.%s.latency_seconds", endpoint)),
  };
}

EndpointMetrics& MetricsFor(std::string_view path) {
  static EndpointMetrics spread = MakeEndpointMetrics("spread");
  static EndpointMetrics setcover = MakeEndpointMetrics("setcover");
  static EndpointMetrics demand = MakeEndpointMetrics("demand");
  static EndpointMetrics graph = MakeEndpointMetrics("graph");
  static EndpointMetrics metrics = MakeEndpointMetrics("metrics");
  static EndpointMetrics healthz = MakeEndpointMetrics("healthz");
  static EndpointMetrics other = MakeEndpointMetrics("other");
  if (path == "/spread") return spread;
  if (path == "/setcover") return setcover;
  if (path == "/demand") return demand;
  if (path == "/graph") return graph;
  if (path == "/metrics") return metrics;
  if (path == "/healthz") return healthz;
  return other;
}

void Fail(HttpResponse* resp, int status, std::string_view message) {
  resp->status = status;
  resp->content_type = "application/json";
  resp->body = StrFormat("{\"error\":\"%.*s\"}\n",
                         static_cast<int>(message.size()), message.data());
}

// Applies the shared (seed, scale) overrides in the query to *options; a
// malformed value is a 400, not a silent default.
bool ParseSeedScale(const HttpRequest& req, StudyOptions* options,
                    HttpResponse* resp) {
  if (auto v = req.QueryParam("seed")) {
    const auto parsed = ParseUint64(*v);
    if (!parsed.has_value()) {
      Fail(resp, 400, "invalid seed parameter");
      return false;
    }
    options->seed = *parsed;
  }
  if (auto v = req.QueryParam("scale")) {
    const auto parsed = ParseDouble(*v);
    if (!parsed.has_value() || *parsed <= 0 || *parsed > 64) {
      Fail(resp, 400, "invalid scale parameter (want 0 < scale <= 64)");
      return false;
    }
    options->scale = *parsed;
  }
  return true;
}

// The front half shared by /spread, /setcover and /graph: the domain,
// attr, seed and scale parameters resolved to a cached scan.
struct ScanQuery {
  Domain domain = Domain::kBooks;
  Attribute attr = Attribute::kIsbn;
  std::shared_ptr<const ScanResult> scan;
  uint32_t entities = 0;  // the scaled catalog size the scan ran against
};

// Fills *query, or the 400/503 error response and returns false.
bool ResolveScan(ServeContext& ctx, const HttpRequest& req, ScanQuery* query,
                 HttpResponse* resp) {
  const auto domain = ParseDomain(req.QueryParam("domain").value_or(""));
  const AttributeSpec* spec =
      FindAttributeByName(req.QueryParam("attr").value_or(""));
  if (!domain.has_value()) {
    Fail(resp, 400,
         "missing or unknown domain parameter (" + DomainVocabulary("|") +
             ")");
    return false;
  }
  if (spec == nullptr) {
    Fail(resp, 400,
         "missing or unknown attr parameter (" + AttributeVocabulary("|") +
             ")");
    return false;
  }
  if (!AttributeApplicableTo(*spec, *domain)) {
    Fail(resp, 400,
         std::string(AttributeName(spec->attr)) + " does not apply to domain " +
             std::string(DomainName(*domain)));
    return false;
  }
  StudyOptions options = ctx.base;
  if (!ParseSeedScale(req, &options, resp)) return false;
  auto scan =
      ctx.cache->Get({*domain, spec->attr, options.seed, options.scale});
  if (!scan.ok()) {
    Fail(resp, 503, scan.status().message());
    return false;
  }
  query->domain = *domain;
  query->attr = spec->attr;
  query->scan = std::move(scan).value();
  query->entities = options.ScaledEntities();
  return true;
}

const char* ContentType(WireFormat format) {
  return format == WireFormat::kTsv ? "text/tab-separated-values"
                                    : "application/json";
}

// ---------------------------------------------------------------------
// JSON helpers. The values serialized here are ASCII identifiers and
// bin labels; escaping covers quotes/backslashes/control bytes anyway.

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendFormat(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// ---------------------------------------------------------------------
// Endpoint handlers.

void HandleSpread(ServeContext& ctx, const HttpRequest& req,
                  HttpResponse* resp) {
  uint32_t max_k = 10;
  if (auto v = req.QueryParam("k")) {
    const auto parsed = ParseUint64(*v);
    if (!parsed.has_value() || *parsed < 1 || *parsed > 32) {
      Fail(resp, 400, "invalid k parameter (want 1..32)");
      return;
    }
    max_k = static_cast<uint32_t>(*parsed);
  }
  ScanQuery query;
  if (!ResolveScan(ctx, req, &query, resp)) return;
  const HostEntityTable& table = query.scan->table;
  auto curve = ComputeKCoverage(
      table, query.entities, max_k,
      DefaultCoverageTValues(static_cast<uint32_t>(table.num_hosts())));
  if (!curve.ok()) {
    Fail(resp, 400, curve.status().message());
    return;
  }
  const WireFormat format = NegotiateFormat(req);
  resp->content_type = ContentType(format);
  resp->body = SpreadBody(query.domain, query.attr, *curve, format);
}

void HandleSetCover(ServeContext& ctx, const HttpRequest& req,
                    HttpResponse* resp) {
  ScanQuery query;
  if (!ResolveScan(ctx, req, &query, resp)) return;
  const HostEntityTable& table = query.scan->table;
  auto curve = GreedySetCover(
      table, query.entities,
      DefaultCoverageTValues(static_cast<uint32_t>(table.num_hosts())));
  if (!curve.ok()) {
    Fail(resp, 503, curve.status().message());
    return;
  }
  const WireFormat format = NegotiateFormat(req);
  resp->content_type = ContentType(format);
  resp->body = SetCoverBody(query.domain, query.attr, *curve, format);
}

void HandleGraph(ServeContext& ctx, const HttpRequest& req,
                 HttpResponse* resp) {
  ScanQuery query;
  if (!ResolveScan(ctx, req, &query, resp)) return;
  // Serial on purpose: requests are already parallel across connections,
  // and sharing one pool across requests would serialize them anyway.
  auto row = ComputeGraphMetrics(query.domain, query.attr, query.scan->table,
                                 query.entities, nullptr);
  if (!row.ok()) {
    Fail(resp, 503, row.status().message());
    return;
  }
  const WireFormat format = NegotiateFormat(req);
  resp->content_type = ContentType(format);
  resp->body = GraphBody(*row, format);
}

void HandleDemand(ServeContext& ctx, const HttpRequest& req,
                  HttpResponse* resp) {
  const auto site = ParseTrafficSite(req.QueryParam("site").value_or("yelp"));
  if (!site.has_value()) {
    Fail(resp, 400, "unknown site parameter (amazon|yelp|imdb)");
    return;
  }
  StudyOptions options = ctx.base;
  if (!ParseSeedScale(req, &options, resp)) return;

  // Value studies read traffic logs, not host tables, so nothing here
  // goes through the scan cache; a repeat of the same target is answered
  // by the response cache before this handler runs. One thread: the
  // throwaway Study, and its pool, live on the connection worker that
  // serves the request. A wider pool would multiply the threads of every
  // concurrent request, and the bytes do not depend on the thread count.
  options.threads = 1;
  Study study(options);
  const auto result = study.RunValueStudy(*site);
  if (!result.ok()) {
    Fail(resp, 503, result.status().message());
    return;
  }
  const WireFormat format = NegotiateFormat(req);
  resp->content_type = ContentType(format);
  resp->body = DemandBody(*result, format);
}

void HandleMetrics(const HttpRequest& req, HttpResponse* resp) {
  if (req.QueryParam("format").value_or("prom") == "json") {
    resp->content_type = "application/json";
    resp->body = MetricsRegistry::Global().ToJson();
    resp->body += "\n";
  } else {
    resp->content_type = "text/plain; version=0.0.4";
    resp->body = MetricsRegistry::Global().ToPrometheus();
  }
}

struct ResponseCacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& evictions;
  Gauge& bytes;
  Gauge& entries;

  static ResponseCacheMetrics& Get() {
    auto& reg = MetricsRegistry::Global();
    static ResponseCacheMetrics metrics{
        reg.GetCounter("wsd.serve.response_cache.hits"),
        reg.GetCounter("wsd.serve.response_cache.misses"),
        reg.GetCounter("wsd.serve.response_cache.evictions"),
        reg.GetGauge("wsd.serve.response_cache.bytes"),
        reg.GetGauge("wsd.serve.response_cache.entries"),
    };
    return metrics;
  }
};

bool CacheableEndpoint(std::string_view path) {
  return path == "/spread" || path == "/setcover" || path == "/graph" ||
         path == "/demand";
}

// The negotiated format is part of the cache identity: two requests with
// the same target but different Accept headers render differently.
std::string ResponseCacheKey(const HttpRequest& req, WireFormat format) {
  std::string key = req.target;
  key.push_back('\x01');
  key += format == WireFormat::kTsv ? "tsv" : "json";
  return key;
}

}  // namespace

bool ResponseCache::Lookup(const std::string& key, HttpResponse* resp) {
  auto& metrics = ResponseCacheMetrics::Get();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    metrics.misses.Increment();
    return false;
  }
  it->second.last_used = ++tick_;
  resp->status = 200;
  resp->content_type = it->second.content_type;
  resp->body = it->second.body;
  ++hits_;
  metrics.hits.Increment();
  return true;
}

void ResponseCache::Insert(const std::string& key, const HttpResponse& resp) {
  auto& metrics = ResponseCacheMetrics::Get();
  Entry entry;
  entry.body = resp.body;
  entry.content_type = resp.content_type;
  entry.bytes = key.size() + entry.body.size() + entry.content_type.size();
  MutexLock lock(mu_);
  entry.last_used = ++tick_;
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  if (!inserted) return;  // another thread rendered the same response
  total_bytes_ += it->second.bytes;
  while (total_bytes_ > max_bytes_ && entries_.size() > 1) {
    auto victim = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.last_used < victim->second.last_used) victim = cand;
    }
    total_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
    metrics.evictions.Increment();
  }
  metrics.bytes.Set(static_cast<double>(total_bytes_));
  metrics.entries.Set(static_cast<double>(entries_.size()));
}

ResponseCache::Stats ResponseCache::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.bytes = total_bytes_;
  return stats;
}

WireFormat NegotiateFormat(const HttpRequest& req) {
  if (auto v = req.QueryParam("format")) {
    if (EqualsIgnoreCase(*v, "tsv")) return WireFormat::kTsv;
    return WireFormat::kJson;
  }
  if (auto accept = req.Header("accept")) {
    if (accept->find("text/tab-separated-values") != std::string_view::npos ||
        accept->find("text/tsv") != std::string_view::npos) {
      return WireFormat::kTsv;
    }
  }
  return WireFormat::kJson;
}

std::string SpreadBody(Domain domain, Attribute attr,
                       const CoverageCurve& curve, WireFormat format) {
  if (format == WireFormat::kTsv) return CoverageTsv(curve);
  std::string out = "{\"domain\":";
  AppendJsonString(&out, DomainName(domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(attr));
  AppendFormat(&out, ",\"num_entities\":%u,\"num_sites\":%u,\"t\":[",
               curve.num_entities, curve.num_sites);
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%s%u", i ? "," : "", curve.t_values[i]);
  }
  out += "],\"k_coverage\":[";
  for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
    out += k ? ",[" : "[";
    const auto& series = curve.k_coverage[k];
    for (size_t i = 0; i < series.size(); ++i) {
      AppendFormat(&out, "%s%.6f", i ? "," : "", series[i]);
    }
    out += "]";
  }
  out += "]}\n";
  return out;
}

std::string SetCoverBody(Domain domain, Attribute attr,
                         const SetCoverCurve& curve, WireFormat format) {
  if (format == WireFormat::kTsv) return SetCoverTsv(curve);
  std::string out = "{\"domain\":";
  AppendJsonString(&out, DomainName(domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(attr));
  AppendFormat(&out, ",\"num_entities\":%u,\"t\":[", curve.num_entities);
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%s%u", i ? "," : "", curve.t_values[i]);
  }
  out += "],\"greedy\":[";
  for (size_t i = 0; i < curve.greedy_coverage.size(); ++i) {
    AppendFormat(&out, "%s%.6f", i ? "," : "", curve.greedy_coverage[i]);
  }
  out += "],\"by_size\":[";
  for (size_t i = 0; i < curve.size_coverage.size(); ++i) {
    AppendFormat(&out, "%s%.6f", i ? "," : "", curve.size_coverage[i]);
  }
  out += "]}\n";
  return out;
}

std::string GraphBody(const GraphMetricsRow& row, WireFormat format) {
  if (format == WireFormat::kTsv) return GraphMetricsTsv({&row, 1});
  std::string out = "{\"domain\":";
  AppendJsonString(&out, DomainName(row.domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(row.attr));
  AppendFormat(&out,
               ",\"avg_sites_per_entity\":%.2f,\"diameter\":%u,"
               "\"components\":%u,\"largest_pct\":%.4f,"
               "\"covered_entities\":%u,\"sites\":%u,\"edges\":%llu}\n",
               row.avg_sites_per_entity, row.diameter, row.num_components,
               row.largest_component_entity_pct, row.num_covered_entities,
               row.num_sites,
               static_cast<unsigned long long>(row.num_edges));
  return out;
}

std::string DemandBody(const Study::ValueStudyResult& result,
                       WireFormat format) {
  if (format == WireFormat::kTsv) return ValueBinsTsv(result.bins);
  std::string out = "{\"site\":";
  AppendJsonString(&out, TrafficSiteName(result.site));
  AppendFormat(&out, ",\"head20_search\":%.6f,\"head20_browse\":%.6f,\"bins\":[",
               result.head20_search, result.head20_browse);
  bool first = true;
  for (const auto& bin : result.bins) {
    if (!first) out += ",";
    first = false;
    out += "{\"bin\":";
    AppendJsonString(&out, bin.label);
    AppendFormat(&out,
                 ",\"entities\":%llu,\"search_z\":%.6f,\"browse_z\":%.6f,"
                 "\"rel_va_search\":%.6f,\"rel_va_browse\":%.6f}",
                 static_cast<unsigned long long>(bin.num_entities),
                 bin.mean_search_z, bin.mean_browse_z, bin.rel_va_search,
                 bin.rel_va_browse);
  }
  out += "]}\n";
  return out;
}

void HandleRequest(ServeContext& ctx, const HttpRequest& req,
                   HttpResponse* resp) {
  static Counter& total_requests =
      MetricsRegistry::Global().GetCounter("wsd.serve.requests");
  static Counter& total_errors =
      MetricsRegistry::Global().GetCounter("wsd.serve.errors");
  total_requests.Increment();
  EndpointMetrics& endpoint = MetricsFor(req.path);
  endpoint.requests.Increment();
  const Timer timer;

  *resp = HttpResponse{};
  if (req.method != "GET") {
    resp->status = 405;
    resp->extra_headers.emplace_back("Allow", "GET");
    resp->content_type = "application/json";
    resp->body = "{\"error\":\"method not allowed\"}\n";
  } else if (req.path == "/healthz") {
    resp->content_type = "text/plain";
    resp->body = "ok\n";
  } else if (req.path == "/metrics") {
    HandleMetrics(req, resp);
  } else if (CacheableEndpoint(req.path)) {
    // Analysis responses are deterministic in (target, format, base
    // options), so a rendered body never goes stale and the memo needs
    // no invalidation.
    const std::string key = ResponseCacheKey(req, NegotiateFormat(req));
    if (!ctx.responses.Lookup(key, resp)) {
      if (req.path == "/spread") {
        HandleSpread(ctx, req, resp);
      } else if (req.path == "/setcover") {
        HandleSetCover(ctx, req, resp);
      } else if (req.path == "/graph") {
        HandleGraph(ctx, req, resp);
      } else {
        HandleDemand(ctx, req, resp);
      }
      if (resp->status == 200) ctx.responses.Insert(key, *resp);
    }
  } else {
    Fail(resp, 404, "no such endpoint");
  }
  if (resp->status >= 400) total_errors.Increment();
  endpoint.latency.Record(timer.ElapsedSeconds());
}

}  // namespace wsd
