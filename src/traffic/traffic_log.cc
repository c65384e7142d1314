#include "traffic/traffic_log.h"

#include <cstdio>

#include "util/hash.h"

namespace wsd {

namespace {

// Appends a noise URL that the demand estimator must skip: same hosts,
// non-entity paths. Draws from `rng` exactly as the generator always has.
void AppendNoiseUrl(TrafficSite site, Rng& rng, std::string* out) {
  char digits[24];
  switch (site) {
    case TrafficSite::kAmazon:
      if (rng.Bernoulli(0.5)) {
        out->append("http://www.amazon.com/gp/help/customer/display.html");
      } else {
        std::snprintf(digits, sizeof(digits), "%llu",
                      (unsigned long long)rng.Uniform(100000));
        out->append("http://www.amazon.com/s?k=query");
        out->append(digits);
      }
      return;
    case TrafficSite::kYelp:
      out->append(rng.Bernoulli(0.5)
                      ? "http://www.yelp.com/search?find_desc=pizza"
                      : "http://www.yelp.com/events");
      return;
    case TrafficSite::kImdb:
      if (rng.Bernoulli(0.5)) {
        out->append("http://www.imdb.com/chart/top");
      } else {
        std::snprintf(digits, sizeof(digits), "%07llu",
                      (unsigned long long)rng.Uniform(9999999));
        out->append("http://www.imdb.com/name/nm");
        out->append(digits);
        out->push_back('/');
      }
      return;
    case TrafficSite::kNumSites:
      break;
  }
  out->append("http://example.com/");
}

}  // namespace

double TrafficLogGenerator::ExpectedEvents(TrafficChannel channel) const {
  const auto& intensity = channel == TrafficChannel::kSearch
                              ? population_.popularity
                              : population_.browse_intensity;
  double total = 0.0;
  for (double x : intensity) total += x;
  return total * (1.0 + options_.repeat_visit_rate) *
         (1.0 + options_.noise_url_fraction);
}

void TrafficLogGenerator::Generate(
    TrafficChannel channel,
    const std::function<void(const VisitEvent&)>& sink) const {
  const auto& intensity = channel == TrafficChannel::kSearch
                              ? population_.popularity
                              : population_.browse_intensity;
  const TrafficSite site = population_.params.site;
  Rng rng(HashCombine(seed_, static_cast<uint64_t>(channel) + 1));

  VisitEvent event;
  event.channel = channel;
  const uint32_t n = static_cast<uint32_t>(intensity.size());
  for (uint32_t entity = 0; entity < n; ++entity) {
    // Unique visitors, each returning 1 + Poisson(repeat) times. Search
    // repeats land in the visitor's month (within-month dedup matters);
    // browse repeats spread over the year (yearly dedup).
    const uint64_t visitors = rng.Poisson(intensity[entity]);
    for (uint64_t v = 0; v < visitors; ++v) {
      const uint64_t cookie = rng.Next() | 1;  // 0 reserved
      const uint8_t first_month = static_cast<uint8_t>(rng.Uniform(12));
      const uint64_t repeats = rng.Poisson(options_.repeat_visit_rate);
      for (uint64_t r = 0; r <= repeats; ++r) {
        event.cookie = cookie;
        event.month = channel == TrafficChannel::kSearch
                          ? first_month
                          : static_cast<uint8_t>(rng.Uniform(12));
        event.url.clear();
        AppendEntityUrl(site, entity, static_cast<uint32_t>(rng.Uniform(2)),
                        &event.url);
        sink(event);
        if (rng.Bernoulli(options_.noise_url_fraction)) {
          // The noise click keeps the visit's cookie and month; only the
          // URL changes, rendered into the same buffer.
          event.url.clear();
          AppendNoiseUrl(site, rng, &event.url);
          sink(event);
        }
      }
    }
  }
}

}  // namespace wsd
