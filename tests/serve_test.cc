// Tests for the serve layer: the fail-closed HTTP parser, routing and
// content negotiation, the ScanHandle cache, and a loopback integration
// test proving served responses are byte-identical to direct Study
// calls.

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "extract/attribute_registry.h"
#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/http_client.h"
#include "serve/scan_cache.h"
#include "serve/server.h"
#include "util/metrics.h"

namespace wsd {
namespace {

HttpLimits TestLimits() {
  HttpLimits limits;
  limits.max_header_bytes = 512;
  limits.max_body_bytes = 128;
  limits.max_headers = 8;
  return limits;
}

// ---------------------------------------------------------------------
// Request parsing.

TEST(HttpParse, SimpleGet) {
  const auto r = ParseHttpRequest(
      "GET /spread?domain=books&attr=isbn&format=tsv HTTP/1.1\r\n"
      "Host: localhost\r\nAccept: application/json\r\n\r\n",
      TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.path, "/spread");
  EXPECT_EQ(r.request.QueryParam("domain").value_or(""), "books");
  EXPECT_EQ(r.request.QueryParam("attr").value_or(""), "isbn");
  EXPECT_EQ(r.request.QueryParam("format").value_or(""), "tsv");
  EXPECT_EQ(r.request.Header("host").value_or(""), "localhost");
  EXPECT_EQ(r.request.Header("ACCEPT").value_or(""), "application/json");
  EXPECT_TRUE(r.request.keep_alive);
  EXPECT_EQ(r.consumed,
            std::string("GET /spread?domain=books&attr=isbn&format=tsv "
                        "HTTP/1.1\r\nHost: localhost\r\nAccept: "
                        "application/json\r\n\r\n")
                .size());
}

TEST(HttpParse, BareLfLineEndingsAccepted) {
  const auto r =
      ParseHttpRequest("GET /healthz HTTP/1.1\nHost: x\n\n", TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.path, "/healthz");
}

TEST(HttpParse, MalformedRequestLine) {
  for (const char* raw :
       {"GET /healthz\r\n\r\n",             // missing version
        "GET  /healthz HTTP/1.1\r\n\r\n",   // empty target token
        "GET /healthz HTTP/2.0\r\n\r\n",    // unsupported version
        "\r\nGET / HTTP/1.1\r\n\r\n",       // empty request line
        "GE\x01T / HTTP/1.1\r\n\r\n"}) {    // control byte
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
}

TEST(HttpParse, MalformedHeaders) {
  for (const char* raw :
       {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "GET / HTTP/1.1\r\nX: a\r\n folded\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n"}) {
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
}

TEST(HttpParse, ContentLengthMustBePlainDigits) {
  // RFC 9110 §8.6: Content-Length is 1*DIGIT. A sign, internal
  // whitespace, or an out-of-range value are all malformed (400) rather
  // than an honest oversized declaration (413) — and UINT64_MAX itself
  // is rejected so a parsed length can never alias an overflow sentinel.
  for (const char* raw :
       {"GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 5 5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 1\t2\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n"}) {
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
  // Plain digits still parse (surrounding optional whitespace is header
  // value trimming, not part of the number).
  const auto ok = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", TestLimits());
  ASSERT_EQ(ok.state, HttpParseState::kOk);
  EXPECT_EQ(ok.request.body, "hello");
  const auto zero = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", TestLimits());
  ASSERT_EQ(zero.state, HttpParseState::kOk);
  EXPECT_TRUE(zero.request.body.empty());
}

TEST(HttpParse, OversizedHeaderBlockFailsClosedEarly) {
  // No terminator yet, but already past the limit: must 413 now rather
  // than buffer forever.
  std::string raw = "GET / HTTP/1.1\r\nX-Big: ";
  raw.append(TestLimits().max_header_bytes, 'a');
  const auto r = ParseHttpRequest(raw, TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kError);
  EXPECT_EQ(r.error_code, 413);
}

TEST(HttpParse, TooManyHeaders) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 9; ++i) raw += "X-H: v\r\n";
  raw += "\r\n";
  const auto r = ParseHttpRequest(raw, TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kError);
  EXPECT_EQ(r.error_code, 413);
}

TEST(HttpParse, TruncatedRequestsNeedMore) {
  // Truncated header block.
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nHost: x\r\n", TestLimits())
                .state,
            HttpParseState::kNeedMore);
  // Complete headers, truncated body.
  EXPECT_EQ(ParseHttpRequest(
                "GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                TestLimits())
                .state,
            HttpParseState::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("", TestLimits()).state,
            HttpParseState::kNeedMore);
}

TEST(HttpParse, BodyWithinAndOverBudget) {
  const auto ok = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA", TestLimits());
  ASSERT_EQ(ok.state, HttpParseState::kOk);
  EXPECT_EQ(ok.request.body, "abc");
  EXPECT_EQ(ok.consumed,
            std::string("GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
                .size());

  const auto big = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 129\r\n\r\n", TestLimits());
  ASSERT_EQ(big.state, HttpParseState::kError);
  EXPECT_EQ(big.error_code, 413);
}

TEST(HttpParse, PipelinedRequestsConsumeExactly) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string buf = first + second;
  const auto r1 = ParseHttpRequest(buf, TestLimits());
  ASSERT_EQ(r1.state, HttpParseState::kOk);
  EXPECT_EQ(r1.request.path, "/a");
  ASSERT_EQ(r1.consumed, first.size());
  buf.erase(0, r1.consumed);
  const auto r2 = ParseHttpRequest(buf, TestLimits());
  ASSERT_EQ(r2.state, HttpParseState::kOk);
  EXPECT_EQ(r2.request.path, "/b");
  EXPECT_EQ(r2.consumed, second.size());
}

TEST(HttpParse, KeepAliveSemantics) {
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.1\r\n\r\n", TestLimits())
                  .request.keep_alive);
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                       TestLimits())
          .request.keep_alive);
  EXPECT_FALSE(ParseHttpRequest("GET / HTTP/1.0\r\n\r\n", TestLimits())
                   .request.keep_alive);
  EXPECT_TRUE(
      ParseHttpRequest("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                       TestLimits())
          .request.keep_alive);
}

TEST(HttpParse, PercentAndPlusDecoding) {
  const auto r = ParseHttpRequest(
      "GET /p%20ath?q=a+b%2Fc&stray=100%&empty HTTP/1.1\r\n\r\n",
      TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.path, "/p ath");  // %20 decoded; '+' untouched in paths
  EXPECT_EQ(PercentDecode("a+b%2Fc", /*plus_as_space=*/false), "a+b/c");
  EXPECT_EQ(r.request.QueryParam("q").value_or(""), "a b/c");
  EXPECT_EQ(r.request.QueryParam("stray").value_or(""), "100%");
  EXPECT_TRUE(r.request.QueryParam("empty").has_value());
  EXPECT_EQ(r.request.QueryParam("empty").value_or("x"), "");
}

TEST(HttpResponseSerialize, RoundTrips) {
  HttpResponse resp;
  resp.status = 405;
  resp.content_type = "application/json";
  resp.body = "{}\n";
  resp.close = true;
  resp.extra_headers.emplace_back("Allow", "GET");
  const std::string wire = SerializeHttpResponse(resp);
  EXPECT_NE(wire.find("HTTP/1.1 405 Method Not Allowed\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Allow: GET\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(wire.size() >= 3 && wire.substr(wire.size() - 3) == "{}\n");
}

// ---------------------------------------------------------------------
// Routing and negotiation (HandleRequest, no sockets).

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 300;
  options.threads = 1;
  options.seed = 7;
  return options;
}

HttpRequest Req(const std::string& line_and_headers) {
  const auto parsed =
      ParseHttpRequest(line_and_headers + "\r\n\r\n", HttpLimits());
  EXPECT_EQ(parsed.state, HttpParseState::kOk) << line_and_headers;
  return parsed.request;
}

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : cache_(SmallOptions(), 64 * 1024 * 1024) {
    ctx_.base = SmallOptions();
    ctx_.cache = &cache_;
  }

  HttpResponse Handle(const std::string& line) {
    HttpResponse resp;
    HandleRequest(ctx_, Req(line), &resp);
    return resp;
  }

  ScanHandleCache cache_;
  ServeContext ctx_;
};

TEST_F(RoutingTest, HealthzAndUnknownAndMethod) {
  EXPECT_EQ(Handle("GET /healthz HTTP/1.1").status, 200);
  EXPECT_EQ(Handle("GET /nope HTTP/1.1").status, 404);
  const HttpResponse post = Handle("POST /spread HTTP/1.1");
  EXPECT_EQ(post.status, 405);
  ASSERT_EQ(post.extra_headers.size(), 1u);
  EXPECT_EQ(post.extra_headers[0].first, "Allow");
  EXPECT_EQ(post.extra_headers[0].second, "GET");
}

TEST_F(RoutingTest, BadParametersAre400) {
  EXPECT_EQ(Handle("GET /spread HTTP/1.1").status, 400);
  const HttpResponse mars =
      Handle("GET /spread?domain=mars&attr=phone HTTP/1.1");
  EXPECT_EQ(mars.status, 400);
  // The unknown-domain message lists exactly the nine flag names.
  const size_t open = mars.body.find('(');
  const size_t close = mars.body.find(')');
  ASSERT_NE(open, std::string::npos) << mars.body;
  ASSERT_NE(close, std::string::npos) << mars.body;
  EXPECT_EQ(mars.body.substr(open + 1, close - open - 1),
            "books|restaurants|automotive|banks|libraries|schools|hotels|"
            "retail|home");
  // Names are case-insensitive on the wire too.
  EXPECT_EQ(
      Handle("GET /spread?domain=BoOkS&attr=ISBN&scale=0.05 HTTP/1.1").status,
      200);
  EXPECT_EQ(
      Handle("GET /spread?domain=books&attr=isbn&k=0 HTTP/1.1").status, 400);
  EXPECT_EQ(
      Handle("GET /spread?domain=books&attr=isbn&scale=-1 HTTP/1.1").status,
      400);
  EXPECT_EQ(Handle("GET /demand?site=msn HTTP/1.1").status, 400);
}

// /spread answers 400 for every (domain, attr) pair the registry marks
// inapplicable and 200 for every other pair: no request reaches a scan
// that cannot run.
TEST_F(RoutingTest, EveryDomainAttrPairIs200Or400) {
  const std::pair<const char*, Domain> kDomains[] = {
      {"books", Domain::kBooks},
      {"restaurants", Domain::kRestaurants},
      {"automotive", Domain::kAutomotive},
      {"banks", Domain::kBanks},
      {"libraries", Domain::kLibraries},
      {"schools", Domain::kSchools},
      {"hotels", Domain::kHotels},
      {"retail", Domain::kRetail},
      {"home", Domain::kHomeGarden},
  };
  for (const auto& [name, domain] : kDomains) {
    for (const AttributeSpec& spec : AllAttributeSpecs()) {
      const std::string target = std::string("/spread?domain=") + name +
                                 "&attr=" + std::string(spec.name) +
                                 "&scale=0.05";
      EXPECT_EQ(Handle("GET " + target + " HTTP/1.1").status,
                AttributeApplicableTo(spec, domain) ? 200 : 400)
          << target;
    }
  }
}

TEST_F(RoutingTest, ContentNegotiation) {
  const HttpResponse json =
      Handle("GET /spread?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.front(), '{');

  const HttpResponse tsv =
      Handle("GET /spread?domain=books&attr=isbn&format=tsv HTTP/1.1");
  ASSERT_EQ(tsv.status, 200);
  EXPECT_EQ(tsv.content_type, "text/tab-separated-values");
  EXPECT_EQ(tsv.body.substr(0, 2), "t\t");

  const HttpResponse accept = Handle(
      "GET /spread?domain=books&attr=isbn HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(accept.status, 200);
  EXPECT_EQ(accept.content_type, "text/tab-separated-values");

  // The query parameter wins over Accept.
  const HttpResponse both = Handle(
      "GET /spread?domain=books&attr=isbn&format=json HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(both.status, 200);
  EXPECT_EQ(both.content_type, "application/json");
}

TEST_F(RoutingTest, MetricsPassthrough) {
  const HttpResponse prom = Handle("GET /metrics HTTP/1.1");
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("wsd_serve_requests"), std::string::npos);
  const HttpResponse json = Handle("GET /metrics?format=json HTTP/1.1");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.front(), '{');
}

TEST_F(RoutingTest, ResponseMemoServesIdenticalBytes) {
  const ResponseCache::Stats before = ctx_.responses.GetStats();
  const HttpResponse miss =
      Handle("GET /graph?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(miss.status, 200);
  const HttpResponse hit =
      Handle("GET /graph?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body, miss.body);
  EXPECT_EQ(hit.content_type, miss.content_type);

  ResponseCache::Stats stats = ctx_.responses.GetStats();
  EXPECT_EQ(stats.hits, before.hits + 1);
  EXPECT_EQ(stats.misses, before.misses + 1);
  EXPECT_GT(stats.bytes, before.bytes);

  // The negotiated format is part of the memo key: an Accept header
  // asking for TSV must not be served the memoized JSON body.
  const HttpResponse tsv = Handle(
      "GET /graph?domain=books&attr=isbn HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(tsv.status, 200);
  EXPECT_EQ(tsv.content_type, "text/tab-separated-values");
  EXPECT_NE(tsv.body, miss.body);
  stats = ctx_.responses.GetStats();
  EXPECT_EQ(stats.misses, before.misses + 2);

  // Errors are never memoized.
  const ResponseCache::Stats pre_error = ctx_.responses.GetStats();
  EXPECT_EQ(Handle("GET /graph?domain=mars&attr=isbn HTTP/1.1").status, 400);
  EXPECT_EQ(ctx_.responses.GetStats().entries, pre_error.entries);
}

// /demand runs the value study per request; the response cache is what
// answers a repeat, so the second identical request is a cache hit.
TEST_F(RoutingTest, DemandServesValueStudyAndRepeatsFromResponseCache) {
  StudyOptions options = SmallOptions();
  options.scale = 0.05;
  Study study(options);
  const auto direct = study.RunValueStudy(TrafficSite::kYelp);
  ASSERT_TRUE(direct.ok()) << direct.status();

  Counter& hits =
      MetricsRegistry::Global().GetCounter("wsd.serve.response_cache.hits");
  const uint64_t hits_before = hits.value();
  const std::string target = "GET /demand?site=yelp&scale=0.05 HTTP/1.1";
  const HttpResponse first = Handle(target);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(first.content_type, "application/json");
  EXPECT_EQ(first.body, DemandBody(*direct, WireFormat::kJson));
  EXPECT_EQ(hits.value(), hits_before);

  const HttpResponse second = Handle(target);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(hits.value(), hits_before + 1);
}

TEST(ResponseCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  ResponseCache cache(1);  // any second entry evicts the older one
  HttpResponse a;
  a.body = "aaaa";
  a.content_type = "text/plain";
  cache.Insert("ka", a);
  HttpResponse b;
  b.body = "bbbb";
  b.content_type = "text/plain";
  cache.Insert("kb", b);

  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  HttpResponse out;
  EXPECT_FALSE(cache.Lookup("ka", &out));  // evicted
  ASSERT_TRUE(cache.Lookup("kb", &out));
  EXPECT_EQ(out.body, "bbbb");
  EXPECT_EQ(out.content_type, "text/plain");
  EXPECT_EQ(out.status, 200);
}

// ---------------------------------------------------------------------
// ScanHandle cache.

TEST(ScanCache, HitMissEvictionCounters) {
  StudyOptions options = SmallOptions();
  // A budget of one byte: the most recent entry is always retained, any
  // older one evicted.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key books{Domain::kBooks, Attribute::kIsbn,
                                   options.seed, options.scale};
  const ScanHandleCache::Key rest{Domain::kRestaurants, Attribute::kPhone,
                                  options.seed, options.scale};

  auto first = cache.Get(books);
  ASSERT_TRUE(first.ok());
  auto again = cache.Get(books);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());  // same shared result

  ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  auto other = cache.Get(rest);
  ASSERT_TRUE(other.ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);  // books evicted by the byte budget
  EXPECT_EQ(stats.entries, 1u);

  // Books is gone: fetching it again is a miss (and evicts restaurants).
  ASSERT_TRUE(cache.Get(books).ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ScanCache, OversizedEntryIsAdmittedAndFlagged) {
  StudyOptions options = SmallOptions();
  // Every real entry dwarfs a one-byte budget: admission must still
  // succeed (the server already holds the result to answer), be counted
  // as oversized, and ride the MRU-never-evicted rule — exactly one
  // entry resident at a time.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key books{Domain::kBooks, Attribute::kIsbn,
                                   options.seed, options.scale};
  const ScanHandleCache::Key rest{Domain::kRestaurants, Attribute::kPhone,
                                  options.seed, options.scale};

  const uint64_t counter0 = MetricsRegistry::Global()
                                .GetCounter("wsd.serve.scan_cache.oversized_admits")
                                .value();
  auto first = cache.Get(books);
  ASSERT_TRUE(first.ok());
  ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.oversized_admits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, cache.max_bytes());
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("wsd.serve.scan_cache.oversized_admits")
                .value(),
            counter0 + 1);

  // The oversized entry still serves hits while it is MRU...
  ASSERT_TRUE(cache.Get(books).ok());
  EXPECT_EQ(cache.GetStats().hits, 1u);

  // ...and is evicted the moment another key takes MRU.
  ASSERT_TRUE(cache.Get(rest).ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.oversized_admits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ScanCache, ConcurrentMissesDeduplicate) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  const ScanHandleCache::Key key{Domain::kBooks, Attribute::kIsbn,
                                 options.seed, options.scale};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto result = cache.Get(key);
      if (!result.ok() || *result == nullptr) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 8u);
  EXPECT_EQ(stats.misses, 1u) << "concurrent misses must deduplicate";
}

TEST(ScanCache, ConcurrentMissesShareOversizedResultUnderOneByteBudget) {
  StudyOptions options = SmallOptions();
  // One byte of budget: every admission is oversized and only the MRU
  // entry survives. Deduplicated waiters must still share the single
  // oversized result instead of each rescanning after a wake.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key key{Domain::kBooks, Attribute::kIsbn,
                                 options.seed, options.scale};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ScanResult>> results(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto result = cache.Get(key);
      if (!result.ok() || *result == nullptr) {
        failures.fetch_add(1);
        return;
      }
      results[i] = *result;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get()) << "thread " << i;
  }
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u) << "one scan, shared by every waiter";
  EXPECT_EQ(stats.hits, kThreads - 1u);
  EXPECT_EQ(stats.oversized_admits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ScanHandleCacheTest, WaiterRescansAfterInflightEntryEvicted) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  const ScanHandleCache::Key key{Domain::kBooks, Attribute::kIsbn,
                                 options.seed, options.scale};
  // Evict the entry in the same critical section that admits it: a
  // thread waiting out the in-flight scan then wakes to find the cache
  // empty and nothing in flight, and must take over the scan itself
  // rather than return empty-handed (the invariant documented on
  // ScanHandleCache::WaitWhileInflight).
  cache.SetPostAdmitHookForTest([&cache] { cache.EvictAllForTest(); });

  std::atomic<int> failures{0};
  std::thread scanner([&] {
    auto result = cache.Get(key);
    if (!result.ok() || *result == nullptr) failures.fetch_add(1);
  });
  // Release the waiter inside the window where the scan is in flight so
  // it genuinely blocks in WaitWhileInflight. (If the scan wins the race
  // anyway, the waiter degenerates into a plain second scanner and the
  // assertions below still hold — the interleaving is just less
  // interesting.)
  while (cache.InflightCountForTest() == 0 && cache.GetStats().misses == 0) {
    std::this_thread::yield();
  }
  std::thread waiter([&] {
    auto result = cache.Get(key);
    if (!result.ok() || *result == nullptr) failures.fetch_add(1);
  });
  scanner.join();
  waiter.join();
  ASSERT_EQ(failures.load(), 0);

  const ScanHandleCache::Stats stats = cache.GetStats();
  // The hook evicts at every admission, so the waiter can never score a
  // hit: it must observe the eviction and rescan.
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

// ---------------------------------------------------------------------
// Loopback integration: ephemeral port, concurrent clients, responses
// byte-identical to direct Study calls.

TEST(ServerLoopback, ConcurrentRequestsMatchDirectStudyByteForByte) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 256 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.connection_threads = 8;
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  // Expected bodies straight from the Study, rendered through the same
  // serializers the server uses.
  Study study(options);
  auto scan = study.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(scan.ok());
  auto curve = ComputeKCoverage(
      scan->table(), options.ScaledEntities(), 10,
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan->table().num_hosts())));
  ASSERT_TRUE(curve.ok());
  const std::string want_spread_json =
      SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, WireFormat::kJson);
  const std::string want_spread_tsv =
      SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, WireFormat::kTsv);
  auto cover = GreedySetCover(
      scan->table(), options.ScaledEntities(),
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan->table().num_hosts())));
  ASSERT_TRUE(cover.ok());
  const std::string want_setcover_json = SetCoverBody(
      Domain::kBooks, Attribute::kIsbn, *cover, WireFormat::kJson);
  auto row = ComputeGraphMetrics(Domain::kBooks, Attribute::kIsbn,
                                 scan->table(), options.ScaledEntities(),
                                 nullptr);
  ASSERT_TRUE(row.ok());
  const std::string want_graph_json = GraphBody(*row, WireFormat::kJson);

  struct Probe {
    std::string target;
    std::vector<std::string> headers;
    const std::string* want;
  };
  const std::vector<Probe> probes = {
      {"/spread?domain=books&attr=isbn", {}, &want_spread_json},
      {"/spread?domain=books&attr=isbn&format=tsv", {}, &want_spread_tsv},
      {"/spread?domain=books&attr=isbn",
       {"Accept: text/tab-separated-values"},
       &want_spread_tsv},
      {"/setcover?domain=books&attr=isbn", {}, &want_setcover_json},
      {"/graph?domain=books&attr=isbn", {}, &want_graph_json},
  };

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        const Probe& probe = probes[(c + round) % probes.size()];
        auto response = client.Get(probe.target, probe.headers);
        if (!response.ok() || response->status != 200) {
          errors.fetch_add(1);
          continue;
        }
        if (response->body != *probe.want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "served responses must be byte-identical to direct Study calls";

  // Error paths over the wire.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto missing = client.Get("/spread");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  auto not_found = client.Get("/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  server.Shutdown();
  // After shutdown the listener is gone: new connections are refused.
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

TEST(ServerLoopback, GracefulShutdownIsIdempotent) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 1 << 20);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  server.Shutdown();
  server.Shutdown();  // second call is a no-op (destructor calls it too)
}

}  // namespace
}  // namespace wsd
