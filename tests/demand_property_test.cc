// Property suite for the demand estimator: on randomly generated,
// randomly shuffled event streams, the estimator must agree with a
// brute-force implementation of the paper's unique-cookie rules, and be
// order-independent. The production StreamingDemandCounter must then
// agree with the estimator exactly on generated logs, and fail closed on
// streams that break its entity-run contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "traffic/traffic_log.h"
#include "util/rng.h"

namespace wsd {
namespace {

struct RandomLog {
  std::vector<VisitEvent> events;
  uint32_t num_entities;
};

RandomLog MakeRandomLog(uint64_t seed) {
  Rng rng(seed);
  RandomLog log;
  log.num_entities = 20 + static_cast<uint32_t>(rng.Uniform(50));
  const int n = 200 + static_cast<int>(rng.Uniform(600));
  for (int i = 0; i < n; ++i) {
    VisitEvent event;
    event.cookie = 1 + rng.Uniform(40);  // small pool: many collisions
    event.month = static_cast<uint8_t>(rng.Uniform(12));
    event.channel = rng.Bernoulli(0.5) ? TrafficChannel::kSearch
                                       : TrafficChannel::kBrowse;
    const uint32_t entity =
        static_cast<uint32_t>(rng.Uniform(log.num_entities));
    // 10% noise URLs that must be skipped.
    event.url = rng.Bernoulli(0.1)
                    ? "http://www.yelp.com/search?find_desc=pizza"
                    : EntityUrl(TrafficSite::kYelp, entity,
                                static_cast<uint32_t>(rng.Uniform(2)));
    log.events.push_back(std::move(event));
  }
  return log;
}

// Brute force per footnote 2 of the paper: search counts unique
// (entity, month, cookie); browse counts unique (entity, cookie).
void BruteForce(const RandomLog& log, std::vector<double>* search,
                std::vector<double>* browse) {
  std::set<std::tuple<uint32_t, uint8_t, uint64_t>> search_keys;
  std::set<std::tuple<uint32_t, uint64_t>> browse_keys;
  search->assign(log.num_entities, 0.0);
  browse->assign(log.num_entities, 0.0);
  for (const VisitEvent& event : log.events) {
    auto key = ParseEntityUrl(event.url);
    if (!key.has_value() || key->site != TrafficSite::kYelp) continue;
    if (event.channel == TrafficChannel::kSearch) {
      if (search_keys
              .insert({key->entity_index, event.month, event.cookie})
              .second) {
        (*search)[key->entity_index] += 1.0;
      }
    } else {
      if (browse_keys.insert({key->entity_index, event.cookie}).second) {
        (*browse)[key->entity_index] += 1.0;
      }
    }
  }
}

class DemandEstimatorProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DemandEstimatorProperty, MatchesBruteForce) {
  const RandomLog log = MakeRandomLog(GetParam());
  DemandEstimator estimator(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) estimator.Consume(event);
  const DemandTable table = estimator.Finalize();

  std::vector<double> search, browse;
  BruteForce(log, &search, &browse);
  ASSERT_EQ(table.search_demand.size(), search.size());
  for (uint32_t e = 0; e < log.num_entities; ++e) {
    EXPECT_DOUBLE_EQ(table.search_demand[e], search[e]) << "entity " << e;
    EXPECT_DOUBLE_EQ(table.browse_demand[e], browse[e]) << "entity " << e;
  }
}

TEST_P(DemandEstimatorProperty, OrderIndependent) {
  RandomLog log = MakeRandomLog(GetParam());
  DemandEstimator forward(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) forward.Consume(event);
  const DemandTable a = forward.Finalize();

  Rng rng(GetParam() ^ 0xf00d);
  rng.Shuffle(log.events);
  DemandEstimator shuffled(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) shuffled.Consume(event);
  const DemandTable b = shuffled.Finalize();

  EXPECT_EQ(a.search_demand, b.search_demand);
  EXPECT_EQ(a.browse_demand, b.browse_demand);
  EXPECT_EQ(a.events_skipped, b.events_skipped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandEstimatorProperty,
                         ::testing::Range<uint64_t>(500, 525));

// ---------- StreamingDemandCounter vs. the reference ----------

struct StreamCase {
  TrafficSite site;
  uint64_t seed;
  uint32_t num_entities;
  TrafficLogOptions log;
};

std::vector<StreamCase> StreamCases() {
  TrafficLogOptions repeats;
  repeats.repeat_visit_rate = 3.0;
  TrafficLogOptions noisy;
  noisy.noise_url_fraction = 0.1;
  std::vector<StreamCase> cases;
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    for (uint64_t seed : {1u, 42u, 777u}) {
      for (const TrafficLogOptions& log :
           {TrafficLogOptions{}, repeats, noisy}) {
        for (uint32_t entities : {256u, 1000u}) {
          cases.push_back({site, seed, entities, log});
        }
      }
    }
  }
  return cases;
}

class StreamingCounterDifferential
    : public ::testing::TestWithParam<StreamCase> {};

// The streaming counter, one per channel and merged, equals the
// sort-based reference fed both channels: demand vectors and event
// counts, exactly. Each single-channel table also equals the reference fed
// only that channel.
TEST_P(StreamingCounterDifferential, MatchesDemandEstimatorExactly) {
  const StreamCase& c = GetParam();
  TrafficSiteParams params = DefaultTrafficParams(c.site);
  params.num_entities = c.num_entities;
  const SitePopulation population = BuildPopulation(params, c.seed);
  const TrafficLogGenerator generator(population, c.log, c.seed ^ 0x5eed);

  DemandEstimator both(c.site, c.num_entities);
  std::vector<DemandTable> channel_tables;
  for (TrafficChannel channel :
       {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
    DemandEstimator reference(c.site, c.num_entities);
    StreamingDemandCounter counter(c.site, channel, c.num_entities);
    generator.Generate(channel, [&](const VisitEvent& e) {
      both.Consume(e);
      reference.Consume(e);
      counter.Consume(e);
    });
    auto streamed = counter.Finish();
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    const DemandTable expected = reference.Finalize();
    EXPECT_EQ(streamed->search_demand, expected.search_demand);
    EXPECT_EQ(streamed->browse_demand, expected.browse_demand);
    EXPECT_EQ(streamed->events_consumed, expected.events_consumed);
    EXPECT_EQ(streamed->events_skipped, expected.events_skipped);
    channel_tables.push_back(std::move(streamed).value());
  }
  const DemandTable merged = MergeChannelTables(std::move(channel_tables[0]),
                                                std::move(channel_tables[1]));
  const DemandTable expected = both.Finalize();
  EXPECT_EQ(merged.site, c.site);
  EXPECT_EQ(merged.search_demand, expected.search_demand);
  EXPECT_EQ(merged.browse_demand, expected.browse_demand);
  EXPECT_EQ(merged.events_consumed, expected.events_consumed);
  EXPECT_EQ(merged.events_skipped, expected.events_skipped);
  EXPECT_GT(merged.events_skipped, 0u);
}

// The order the streaming counter relies on: within a channel, each
// entity's events form one run, in entity order; only noise falls between.
TEST_P(StreamingCounterDifferential, GeneratorEmitsEntityRunsContiguously) {
  const StreamCase& c = GetParam();
  TrafficSiteParams params = DefaultTrafficParams(c.site);
  params.num_entities = c.num_entities;
  const SitePopulation population = BuildPopulation(params, c.seed);
  const TrafficLogGenerator generator(population, c.log, c.seed ^ 0x5eed);
  for (TrafficChannel channel :
       {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
    std::set<uint32_t> closed;
    std::optional<uint32_t> current;
    uint64_t runs = 0;
    generator.Generate(channel, [&](const VisitEvent& e) {
      const auto key = ParseEntityUrl(e.url);
      if (!key.has_value()) return;  // noise
      ASSERT_EQ(key->site, c.site);
      if (current == key->entity_index) return;
      if (current.has_value()) {
        EXPECT_LT(*current, key->entity_index);
        closed.insert(*current);
      }
      EXPECT_EQ(closed.count(key->entity_index), 0u)
          << "entity " << key->entity_index << " reappears";
      current = key->entity_index;
      ++runs;
    });
    EXPECT_GT(runs, 0u);
  }
}

std::string StreamCaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  const StreamCase& c = info.param;
  std::string name = std::string(TrafficSiteName(c.site)) + "_seed" +
                     std::to_string(c.seed) + "_n" +
                     std::to_string(c.num_entities);
  if (c.log.repeat_visit_rate > 1.0) name += "_repeats";
  if (c.log.noise_url_fraction > 0.05) name += "_noisy";
  return name;
}

INSTANTIATE_TEST_SUITE_P(SitesSeedsPopulations, StreamingCounterDifferential,
                         ::testing::ValuesIn(StreamCases()), StreamCaseName);

VisitEvent YelpEvent(uint32_t entity, uint64_t cookie,
                     TrafficChannel channel = TrafficChannel::kSearch) {
  VisitEvent event;
  event.cookie = cookie;
  event.month = 3;
  event.channel = channel;
  event.url = EntityUrl(TrafficSite::kYelp, entity);
  return event;
}

// An entity that comes back after another entity's run fails closed and
// the error names it.
TEST(StreamingDemandCounterTest, InterleavedRunsFailClosed) {
  StreamingDemandCounter counter(TrafficSite::kYelp, TrafficChannel::kSearch,
                                 10);
  counter.Consume(YelpEvent(4, 1));
  counter.Consume(YelpEvent(7, 2));
  counter.Consume(YelpEvent(4, 3));
  const auto table = counter.Finish();
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kFailedPrecondition)
      << table.status();
  EXPECT_NE(table.status().message().find("entity 4"), std::string::npos)
      << table.status();
}

// Noise between two events of one entity does not split its run, and
// repeat cookies inside the run count once.
TEST(StreamingDemandCounterTest, NoiseInsideARunIsSkipped) {
  StreamingDemandCounter counter(TrafficSite::kYelp, TrafficChannel::kSearch,
                                 10);
  counter.Consume(YelpEvent(4, 1));
  VisitEvent noise = YelpEvent(4, 1);
  noise.url = "http://www.yelp.com/events";
  counter.Consume(noise);
  counter.Consume(YelpEvent(4, 1));
  counter.Consume(YelpEvent(4, 2));
  const auto table = counter.Finish();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_DOUBLE_EQ(table->search_demand[4], 2.0);
  EXPECT_EQ(table->events_consumed, 4u);
  EXPECT_EQ(table->events_skipped, 1u);
}

// A single-channel counter refuses the other channel's events.
TEST(StreamingDemandCounterTest, OtherChannelFailsClosed) {
  StreamingDemandCounter counter(TrafficSite::kYelp, TrafficChannel::kSearch,
                                 10);
  counter.Consume(YelpEvent(4, 1));
  counter.Consume(YelpEvent(5, 1, TrafficChannel::kBrowse));
  const auto table = counter.Finish();
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kFailedPrecondition)
      << table.status();
}

}  // namespace
}  // namespace wsd
