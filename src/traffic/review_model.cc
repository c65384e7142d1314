#include "traffic/review_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace wsd {

TrafficSiteParams DefaultTrafficParams(TrafficSite site) {
  TrafficSiteParams p;
  p.site = site;
  switch (site) {
    case TrafficSite::kAmazon:
      // "a random sample of over a million such pages", scaled down.
      p.num_entities = 120000;
      p.demand_zipf_s = 0.82;
      p.mean_visits = 30.0;
      p.review_tail_gamma = 1.8;
      p.review_head_gamma = 1.8;
      p.review_scale = 0.015;
      p.browse_exponent = 0.95;
      break;
    case TrafficSite::kYelp:
      // "a sample of over 500K entity pages", scaled down.
      p.num_entities = 60000;
      p.demand_zipf_s = 0.70;
      p.mean_visits = 24.0;
      p.review_tail_gamma = 1.7;
      p.review_head_gamma = 1.7;
      p.review_scale = 0.020;
      p.browse_exponent = 0.80;
      break;
    case TrafficSite::kImdb:
      // "over 100K URLs", scaled down.
      p.num_entities = 30000;
      p.demand_zipf_s = 1.15;
      p.mean_visits = 60.0;
      // Tail: reviews grow slower than demand (VA rises mid-range);
      // head: blockbusters accumulate reviews superlinearly (VA falls).
      p.review_tail_gamma = 0.8;
      p.review_head_gamma = 2.2;
      p.review_knee_visits = 60.0 * 50;  // ~50x the average title
      p.review_scale = 0.5;
      p.browse_exponent = 1.15;
      break;
    case TrafficSite::kNumSites:
      break;
  }
  return p;
}

SitePopulation BuildPopulation(const TrafficSiteParams& params,
                               uint64_t seed) {
  WSD_CHECK(params.num_entities > 0);
  SitePopulation pop;
  pop.params = params;
  const uint32_t n = params.num_entities;
  Rng rng(seed);

  // Popularity: Zipf over ranks, scaled so the mean is mean_visits.
  // Entity index doubles as popularity rank (analyses never depend on
  // index order).
  pop.popularity.resize(n);
  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    pop.popularity[i] =
        std::pow(static_cast<double>(i + 1), -params.demand_zipf_s);
    total += pop.popularity[i];
  }
  const double scale =
      params.mean_visits * static_cast<double>(n) / total;
  for (double& p : pop.popularity) p *= scale;

  // Browse intensity: popularity warped, renormalized to the same total
  // traffic volume.
  pop.browse_intensity.resize(n);
  double browse_total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    pop.browse_intensity[i] =
        std::pow(pop.popularity[i], params.browse_exponent);
    browse_total += pop.browse_intensity[i];
  }
  const double browse_scale =
      params.mean_visits * static_cast<double>(n) / browse_total;
  for (double& p : pop.browse_intensity) p *= browse_scale;

  // Reviews: piecewise power law of popularity with lognormal noise.
  pop.reviews.resize(n);
  const double knee = params.review_knee_visits;
  const double continuity =
      std::pow(knee, params.review_tail_gamma - params.review_head_gamma);
  for (uint32_t i = 0; i < n; ++i) {
    const double k = pop.popularity[i];
    double base;
    if (k <= knee) {
      base = params.review_scale * std::pow(k, params.review_tail_gamma);
    } else {
      base = params.review_scale * continuity *
             std::pow(k, params.review_head_gamma);
    }
    // Mean-one lognormal noise.
    const double sigma = params.review_noise_sigma;
    base *= rng.LogNormal(-0.5 * sigma * sigma, sigma);
    const double capped =
        std::min(base, static_cast<double>(params.max_reviews));
    pop.reviews[i] = static_cast<uint32_t>(capped);  // floor
  }
  return pop;
}

}  // namespace wsd
