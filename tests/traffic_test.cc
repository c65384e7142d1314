#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "traffic/traffic_log.h"
#include "traffic/url_patterns.h"
#include "util/hash.h"
#include "util/histogram.h"

#include <cstdlib>
#include <new>

// --- Allocation counting hook (for the per-event allocation test) ---
//
// Replaces global operator new/delete with malloc/free plus a
// thread-local counter that only ticks while armed. Other threads and
// tests run with the flag down, so the override is inert outside the
// allocation test.
namespace {
thread_local bool g_count_allocs = false;
thread_local uint64_t g_alloc_count = 0;

struct AllocCountGuard {
  AllocCountGuard() {
    g_alloc_count = 0;
    g_count_allocs = true;
  }
  ~AllocCountGuard() { g_count_allocs = false; }
};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs) ++g_alloc_count;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace wsd {
namespace {

// ---------- URL patterns ----------

class UrlPatternRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UrlPatternRoundTrip, EntityUrlParsesBack) {
  const TrafficSite site = static_cast<TrafficSite>(GetParam());
  for (uint32_t idx : {0u, 7u, 123456u}) {
    for (uint32_t variant : {0u, 1u}) {
      const std::string url = EntityUrl(site, idx, variant);
      auto key = ParseEntityUrl(url);
      ASSERT_TRUE(key.has_value()) << url;
      EXPECT_EQ(key->site, site);
      EXPECT_EQ(key->entity_index, idx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, UrlPatternRoundTrip,
    ::testing::Values(static_cast<int>(TrafficSite::kAmazon),
                      static_cast<int>(TrafficSite::kYelp),
                      static_cast<int>(TrafficSite::kImdb)));

TEST(UrlPatternTest, MatchesPaperPatterns) {
  // amazon.com/gp/product/[ID] and amazon.com/*/dp/[ID]
  auto a = ParseEntityUrl("http://www.amazon.com/gp/product/B000000042");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->site, TrafficSite::kAmazon);
  EXPECT_EQ(a->entity_index, 42u);
  auto b = ParseEntityUrl(
      "https://www.amazon.com/Some-Title-Here/dp/B000000007?ref=sr");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->entity_index, 7u);
  // yelp.com/biz/[ID]
  auto c = ParseEntityUrl("http://yelp.com/biz/biz-000123");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->site, TrafficSite::kYelp);
  EXPECT_EQ(c->entity_index, 123u);
  // imdb.com/title/tt[ID]
  auto d = ParseEntityUrl("http://www.imdb.com/title/tt0000099/");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, TrafficSite::kImdb);
  EXPECT_EQ(d->entity_index, 99u);
}

TEST(UrlPatternTest, RejectsNonEntityUrls) {
  EXPECT_FALSE(ParseEntityUrl("http://www.amazon.com/gp/help/x").has_value());
  EXPECT_FALSE(ParseEntityUrl("http://www.yelp.com/search?q=pizza")
                   .has_value());
  EXPECT_FALSE(ParseEntityUrl("http://www.imdb.com/name/nm0000001/")
                   .has_value());
  EXPECT_FALSE(ParseEntityUrl("http://other.com/biz/biz-000001").has_value());
  EXPECT_FALSE(ParseEntityUrl("not a url").has_value());
  // Malformed ids.
  EXPECT_FALSE(ParseEntityUrl("http://yelp.com/biz/mario-grill").has_value());
  EXPECT_FALSE(
      ParseEntityUrl("http://www.imdb.com/title/ttXYZ/").has_value());
}

// Pins ParseEntityUrl's accept/reject behaviour across the URL shapes the
// §4.1 pattern step meets: host case and "www.", trailing-dot hosts,
// ports, userinfo, fragments, queries, schemes and whitespace.
struct EntityUrlCase {
  const char* url;
  std::optional<TrafficSite> site;  // nullopt: must not parse
  uint32_t entity = 0;
};

TEST(EntityUrlPinningTest, ParseTable) {
  const EntityUrlCase kCases[] = {
      // Host case, with and without "www.".
      {"http://WWW.AMAZON.COM/gp/product/B000000042", TrafficSite::kAmazon,
       42},
      {"http://Amazon.Com/gp/product/B000000042", TrafficSite::kAmazon, 42},
      {"http://YELP.com/biz/biz-000123", TrafficSite::kYelp, 123},
      {"http://wWw.Yelp.COM/biz/biz-000123", TrafficSite::kYelp, 123},
      {"http://IMDB.COM/title/tt0000099/", TrafficSite::kImdb, 99},
      // Trailing-dot host.
      {"http://www.imdb.com./title/tt0000099/", TrafficSite::kImdb, 99},
      {"http://amazon.com./gp/product/B000000001", TrafficSite::kAmazon, 1},
      // Port, userinfo, fragment, query.
      {"http://www.amazon.com:8080/gp/product/B000000001",
       TrafficSite::kAmazon, 1},
      {"http://user:pw@www.yelp.com/biz/biz-000005", TrafficSite::kYelp, 5},
      {"http://www.imdb.com/title/tt0000099/#reviews", TrafficSite::kImdb,
       99},
      {"http://www.imdb.com/title/tt0000099#x/y?z", TrafficSite::kImdb, 99},
      {"http://www.yelp.com/biz/biz-000007?osq=pizza", TrafficSite::kYelp, 7},
      {"http://www.amazon.com/some-title/dp/B000000007/ref=x?tag=1",
       TrafficSite::kAmazon, 7},
      {"http://www.amazon.com/x/gp/product/B000000042", TrafficSite::kAmazon,
       42},
      // Scheme and surrounding whitespace.
      {"https://www.yelp.com/biz/biz-000007", TrafficSite::kYelp, 7},
      {"HTTPS://www.yelp.com/biz/biz-000007", TrafficSite::kYelp, 7},
      {"  \thttp://www.yelp.com/biz/biz-000007 \n", TrafficSite::kYelp, 7},
      {"http:// www.yelp.com /biz/biz-000008", TrafficSite::kYelp, 8},
      // Foreign hosts.
      {"http://www.example.com/biz/biz-000007", std::nullopt},
      {"http://yelp.com.evil.com/biz/biz-000001", std::nullopt},
      {"http://notamazon.com/gp/product/B000000001", std::nullopt},
      {"http://www.www.yelp.com/biz/biz-000001", std::nullopt},
      {"http://www./biz/biz-000001", std::nullopt},
      // Empty or non-numeric keys, wrong widths, overflow.
      {"http://www.yelp.com/biz/", std::nullopt},
      {"http://www.yelp.com/biz/biz-", std::nullopt},
      {"http://www.imdb.com/title/tt/", std::nullopt},
      {"http://www.amazon.com/gp/product/", std::nullopt},
      {"http://www.amazon.com/gp/product/B00000004X", std::nullopt},
      {"http://www.amazon.com/gp/product/B00000042", std::nullopt},
      {"http://www.amazon.com/gp/product/b000000042", std::nullopt},
      {"http://www.yelp.com/biz/biz-12a", std::nullopt},
      {"http://www.imdb.com/title/tt4294967296/", std::nullopt},
      {"http://www.imdb.com/title/tt4294967295/", TrafficSite::kImdb,
       4294967295u},
      // Path matching is case-sensitive; the key must follow the prefix.
      {"http://www.yelp.com/BIZ/biz-000001", std::nullopt},
      {"http://www.yelp.com/biz?biz-000001", std::nullopt},
      // Not an absolute http(s) URL.
      {"http://www.amazon.com:99999/gp/product/B000000001", std::nullopt},
      {"ftp://www.amazon.com/gp/product/B000000001", std::nullopt},
      {"www.amazon.com/gp/product/B000000001", std::nullopt},
      {"http://www.amazon.com", std::nullopt},
      {"http:///biz/biz-000001", std::nullopt},
      {"", std::nullopt},
  };
  for (const EntityUrlCase& c : kCases) {
    SCOPED_TRACE(c.url);
    const auto key = ParseEntityUrl(c.url);
    ASSERT_EQ(key.has_value(), c.site.has_value());
    if (!key.has_value()) continue;
    EXPECT_EQ(key->site, *c.site);
    EXPECT_EQ(key->entity_index, c.entity);
  }
}

// Pins EntityUrl's bytes and its round trip for every site and variant,
// at entity 0 and at the widest index the key format holds.
TEST(EntityUrlPinningTest, RoundTripAtZeroAndWidthLimit) {
  struct Pinned {
    TrafficSite site;
    uint32_t variant;
    uint32_t width_limit;
    const char* url_at_zero;
  };
  const Pinned kPinned[] = {
      {TrafficSite::kAmazon, 0, 999999999u,
       "http://www.amazon.com/gp/product/B000000000"},
      {TrafficSite::kAmazon, 1, 999999999u,
       "http://www.amazon.com/some-product-title/dp/B000000000"},
      {TrafficSite::kYelp, 0, 999999u, "http://www.yelp.com/biz/biz-000000"},
      {TrafficSite::kYelp, 1, 999999u, "http://www.yelp.com/biz/biz-000000"},
      {TrafficSite::kImdb, 0, 9999999u,
       "http://www.imdb.com/title/tt0000000/"},
      {TrafficSite::kImdb, 1, 9999999u,
       "http://www.imdb.com/title/tt0000000/"},
  };
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(std::string(TrafficSiteName(p.site)) + " variant " +
                 std::to_string(p.variant));
    EXPECT_EQ(EntityUrl(p.site, 0, p.variant), p.url_at_zero);
    for (uint32_t idx : {0u, p.width_limit}) {
      const std::string url = EntityUrl(p.site, idx, p.variant);
      const auto key = ParseEntityUrl(url);
      ASSERT_TRUE(key.has_value()) << url;
      EXPECT_EQ(key->site, p.site);
      EXPECT_EQ(key->entity_index, idx);
    }
  }
  EXPECT_EQ(EntityUrl(TrafficSite::kAmazon, 999999999u, 1),
            "http://www.amazon.com/some-product-title/dp/B999999999");
  EXPECT_EQ(EntityUrl(TrafficSite::kYelp, 999999u),
            "http://www.yelp.com/biz/biz-999999");
  EXPECT_EQ(EntityUrl(TrafficSite::kImdb, 9999999u),
            "http://www.imdb.com/title/tt9999999/");
  // One past Amazon's width the ASIN grows to 11 characters and no longer
  // parses; Yelp and IMDb keys just widen.
  EXPECT_EQ(EntityUrl(TrafficSite::kAmazon, 1000000000u),
            "http://www.amazon.com/gp/product/B1000000000");
  EXPECT_FALSE(
      ParseEntityUrl(EntityUrl(TrafficSite::kAmazon, 1000000000u)).has_value());
  EXPECT_EQ(ParseEntityUrl(EntityUrl(TrafficSite::kYelp, 1000000u))
                ->entity_index,
            1000000u);
}

// ---------- population model ----------

TEST(ReviewModelTest, PopulationShapes) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kYelp);
  params.num_entities = 5000;
  const SitePopulation pop = BuildPopulation(params, 3);
  ASSERT_EQ(pop.popularity.size(), 5000u);
  ASSERT_EQ(pop.reviews.size(), 5000u);

  // Popularity is rank-decreasing with the configured mean.
  EXPECT_GT(pop.popularity[0], pop.popularity[4999]);
  RunningStats stats;
  for (double p : pop.popularity) stats.Add(p);
  EXPECT_NEAR(stats.mean(), params.mean_visits, params.mean_visits * 0.02);

  // Browse intensity preserves total volume.
  RunningStats browse;
  for (double p : pop.browse_intensity) browse.Add(p);
  EXPECT_NEAR(browse.mean(), params.mean_visits,
              params.mean_visits * 0.02);

  // Reviews correlate with popularity: head decile has more than tail.
  double head = 0, tail = 0;
  for (uint32_t i = 0; i < 500; ++i) head += pop.reviews[i];
  for (uint32_t i = 4500; i < 5000; ++i) tail += pop.reviews[i];
  EXPECT_GT(head, tail * 2);
}

TEST(ReviewModelTest, DefaultsAreCalibratedPerSite) {
  const auto yelp = DefaultTrafficParams(TrafficSite::kYelp);
  const auto amazon = DefaultTrafficParams(TrafficSite::kAmazon);
  const auto imdb = DefaultTrafficParams(TrafficSite::kImdb);
  // IMDb sharpest demand, Yelp flattest (Fig 6).
  EXPECT_GT(imdb.demand_zipf_s, amazon.demand_zipf_s);
  EXPECT_GT(amazon.demand_zipf_s, yelp.demand_zipf_s);
  // IMDb's hump needs a knee; the others are pure power laws.
  EXPECT_LT(imdb.review_knee_visits, 1e6);
  EXPECT_NE(imdb.review_tail_gamma, imdb.review_head_gamma);
}

// ---------- log generation + demand estimation ----------

TEST(TrafficLogTest, EventsParseAndCountsMatchIntensity) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kYelp);
  params.num_entities = 2000;
  const SitePopulation pop = BuildPopulation(params, 5);
  TrafficLogOptions options;
  const TrafficLogGenerator generator(pop, options, 17);

  uint64_t events = 0, parseable = 0;
  generator.Generate(TrafficChannel::kSearch, [&](const VisitEvent& e) {
    ++events;
    EXPECT_LT(e.month, 12);
    EXPECT_NE(e.cookie, 0u);
    parseable += ParseEntityUrl(e.url).has_value();
  });
  EXPECT_GT(events, 0u);
  // ~2% noise URLs by default.
  EXPECT_NEAR(static_cast<double>(parseable) / static_cast<double>(events),
              0.98, 0.01);
  EXPECT_NEAR(static_cast<double>(events),
              generator.ExpectedEvents(TrafficChannel::kSearch),
              0.1 * generator.ExpectedEvents(TrafficChannel::kSearch));
}

// Pins the generated event stream (every cookie, month and URL byte, in
// order) for one small population per site and both channels, so the
// generator's rendering can change but its output cannot.
TEST(TrafficLogTest, EventStreamIsPinned) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t events = 0;
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    TrafficSiteParams params = DefaultTrafficParams(site);
    params.num_entities = 300;
    const SitePopulation pop = BuildPopulation(params, 11);
    TrafficLogOptions options;
    options.noise_url_fraction = 0.1;
    const TrafficLogGenerator generator(pop, options, 29);
    for (TrafficChannel channel :
         {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
      generator.Generate(channel, [&](const VisitEvent& e) {
        ++events;
        ASSERT_EQ(e.channel, channel);
        digest = HashCombine(digest, e.cookie);
        digest = HashCombine(digest, e.month);
        digest = Fnv1a64(e.url, digest);
      });
    }
  }
  EXPECT_EQ(events, 100761u);
  EXPECT_EQ(digest, 1975007625805451732ULL);
}

// Generating and counting one channel allocates nothing per event: the
// only allocations are the generator's URL buffer and the counter's run
// buffer growing to their high-water marks, a few dozen at most, against
// tens of thousands of events.
TEST(StreamingDemandCounterTest, CountingAChannelDoesNotAllocatePerEvent) {
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    SCOPED_TRACE(std::string(TrafficSiteName(site)));
    TrafficSiteParams params = DefaultTrafficParams(site);
    params.num_entities = 2000;
    const SitePopulation pop = BuildPopulation(params, 5);
    TrafficLogOptions options;
    options.noise_url_fraction = 0.1;
    const TrafficLogGenerator generator(pop, options, 17);
    for (TrafficChannel channel :
         {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
      StreamingDemandCounter counter(site, channel, params.num_entities);
      const std::function<void(const VisitEvent&)> sink =
          [&](const VisitEvent& e) { counter.Consume(e); };
      uint64_t allocs = 0;
      {
        const AllocCountGuard guard;
        generator.Generate(channel, sink);
        allocs = g_alloc_count;
      }
      auto table = counter.Finish();
      ASSERT_TRUE(table.ok()) << table.status();
      ASSERT_GT(table->events_consumed, 20000u);
      EXPECT_GT(table->events_skipped, 0u);
      EXPECT_LE(allocs, 40u) << "over " << table->events_consumed
                             << " events";
    }
  }
}

TEST(DemandEstimatorTest, DeduplicatesCookiesPerPaperRules) {
  DemandEstimator estimator(TrafficSite::kYelp, 10);
  auto event = [](uint64_t cookie, uint8_t month, TrafficChannel channel,
                  uint32_t entity) {
    VisitEvent e;
    e.cookie = cookie;
    e.month = month;
    e.channel = channel;
    e.url = EntityUrl(TrafficSite::kYelp, entity);
    return e;
  };
  // Search: same cookie+month deduped; same cookie different month counts
  // twice (footnote 2: unique cookies *per month*).
  estimator.Consume(event(1, 0, TrafficChannel::kSearch, 3));
  estimator.Consume(event(1, 0, TrafficChannel::kSearch, 3));
  estimator.Consume(event(1, 1, TrafficChannel::kSearch, 3));
  estimator.Consume(event(2, 0, TrafficChannel::kSearch, 3));
  // Browse: same cookie deduped across the whole year.
  estimator.Consume(event(1, 0, TrafficChannel::kBrowse, 3));
  estimator.Consume(event(1, 5, TrafficChannel::kBrowse, 3));
  estimator.Consume(event(3, 2, TrafficChannel::kBrowse, 3));
  // Noise URL skipped.
  VisitEvent noise;
  noise.cookie = 9;
  noise.channel = TrafficChannel::kSearch;
  noise.url = "http://www.yelp.com/events";
  estimator.Consume(noise);

  const DemandTable table = estimator.Finalize();
  EXPECT_DOUBLE_EQ(table.search_demand[3], 3.0);
  EXPECT_DOUBLE_EQ(table.browse_demand[3], 2.0);
  EXPECT_EQ(table.events_consumed, 8u);
  EXPECT_EQ(table.events_skipped, 1u);
  EXPECT_DOUBLE_EQ(table.search_demand[0], 0.0);
}

TEST(DemandEstimatorTest, EstimatesTrackLatentPopularity) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kImdb);
  params.num_entities = 1000;
  const SitePopulation pop = BuildPopulation(params, 7);
  const TrafficLogGenerator generator(pop, TrafficLogOptions{}, 23);
  DemandEstimator estimator(TrafficSite::kImdb, params.num_entities);
  generator.Generate(TrafficChannel::kSearch,
                     [&](const VisitEvent& e) { estimator.Consume(e); });
  const DemandTable table = estimator.Finalize();
  // Head entity demand must dominate deep-tail demand.
  double head = 0, tail = 0;
  for (uint32_t i = 0; i < 50; ++i) head += table.search_demand[i];
  for (uint32_t i = 950; i < 1000; ++i) tail += table.search_demand[i];
  EXPECT_GT(head, 10 * (tail + 1));
}

}  // namespace
}  // namespace wsd
