#include "corpus/site_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "extract/attribute_registry.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace wsd {

SpreadParams DefaultSpreadParams(Domain domain, Attribute attr) {
  // The per-channel calibration tables live in the attribute registry.
  return GetAttributeSpec(attr).default_spread(domain);
}

StatusOr<SiteEntityModel> SiteEntityModel::Build(const DomainCatalog& catalog,
                                                 const SpreadParams& params,
                                                 uint64_t seed) {
  if (params.num_sites < 16) {
    return Status::InvalidArgument("num_sites must be >= 16");
  }
  if (params.mean_degree < 1.0) {
    return Status::InvalidArgument("mean_degree must be >= 1");
  }
  if (params.head_bias < 0.0 || params.head_bias > 1.0 ||
      params.isolated_fraction < 0.0 || params.isolated_fraction > 0.5) {
    return Status::InvalidArgument("mixture/isolated fractions out of range");
  }

  SiteEntityModel model;
  model.params_ = params;
  model.num_entities_ = catalog.size();

  Rng rng(seed);
  const uint32_t num_regular = params.num_sites;
  const uint32_t n = catalog.size();

  // Attractiveness mixture components over generation ranks.
  std::vector<double> head_w(num_regular), flat_w(num_regular);
  for (uint32_t r = 0; r < num_regular; ++r) {
    head_w[r] = std::pow(static_cast<double>(r + 1), -params.head_alpha);
    flat_w[r] = std::pow(static_cast<double>(r + 1), -params.flat_alpha);
  }
  const AliasTable head_sites(head_w);
  const AliasTable flat_sites(flat_w);

  // Low-degree entities draw their head-component sites from ranks
  // beyond the global aggregators (regional directories): they are the
  // ~7% the top-10 sites miss (Fig 1a) yet they survive top-10 removal
  // (Fig 9) and are still inside the top few hundred sites.
  constexpr uint32_t kHeadExcludeTop = 12;
  AliasTable mid_sites;
  {
    std::vector<double> mid_w = head_w;
    for (uint32_t r = 0; r < std::min(kHeadExcludeTop, num_regular - 2);
         ++r) {
      mid_w[r] = 0.0;
    }
    mid_sites.Reset(mid_w);
  }

  // Local entities attach only beyond the cutoff rank.
  uint32_t local_cutoff = params.local_rank_cutoff == 0
                              ? num_regular / 12
                              : params.local_rank_cutoff;
  local_cutoff = std::min(local_cutoff, num_regular - 2);
  AliasTable tail_sites;
  if (params.local_fraction > 0.0) {
    std::vector<double> tail_w = flat_w;
    for (uint32_t r = 0; r < local_cutoff; ++r) tail_w[r] = 0.0;
    tail_sites.Reset(tail_w);
  }

  // Degree distribution: discretized LogNormal with the target mean.
  const double sigma = params.degree_sigma;
  const double mu = std::log(params.mean_degree) - 0.5 * sigma * sigma;
  const uint64_t max_degree =
      std::max<uint64_t>(2, static_cast<uint64_t>(num_regular) / 4);

  const uint32_t num_isolated = static_cast<uint32_t>(
      std::lround(params.isolated_fraction * static_cast<double>(n)));

  std::vector<std::pair<SiteId, SiteMention>> edges;
  edges.reserve(static_cast<size_t>(
      static_cast<double>(n) * params.mean_degree * 1.05));

  std::unordered_set<uint32_t> picked;
  for (uint32_t e = 0; e + num_isolated < n; ++e) {
    double draw = rng.LogNormal(mu, sigma);
    uint64_t degree = static_cast<uint64_t>(std::llround(draw));
    degree = std::clamp<uint64_t>(degree, 1, max_degree);
    const bool is_local =
        params.local_fraction > 0.0 && rng.Bernoulli(params.local_fraction);
    // Entities with little web presence skip the global aggregators (see
    // head_degree_ref in the header).
    const bool avoids_top = params.head_degree_ref > 0.0 &&
                            static_cast<double>(degree) <
                                params.head_degree_ref;

    picked.clear();
    while (picked.size() < degree) {
      SiteId s;
      if (is_local) {
        s = static_cast<SiteId>(tail_sites.Sample(rng));
      } else if (rng.Bernoulli(params.head_bias)) {
        s = static_cast<SiteId>(avoids_top ? mid_sites.Sample(rng)
                                           : head_sites.Sample(rng));
      } else {
        s = static_cast<SiteId>(flat_sites.Sample(rng));
      }
      if (!picked.insert(s).second) continue;
      // Head aggregators host more pages per entity.
      const double extra = params.mention_extra *
                           (s < local_cutoff ? params.head_page_boost : 1.0);
      SiteMention m;
      m.entity = e;
      m.mention_pages = static_cast<uint16_t>(
          std::min<uint64_t>(1 + rng.Poisson(extra), 255));
      edges.emplace_back(s, m);
    }
  }

  // Spurious mentions (false matches per §3.5): flagged so tests can
  // measure their effect; the extraction pipeline cannot distinguish
  // them, exactly as in the paper. A site's chance of hosting an
  // accidental match scales with its page count, so the target site is
  // drawn proportional to size (a random existing edge's site).
  const uint64_t num_false = static_cast<uint64_t>(
      params.false_match_fraction * static_cast<double>(edges.size()));
  const size_t true_edges = edges.size();
  for (uint64_t i = 0; i < num_false && true_edges > 0; ++i) {
    SiteMention m;
    m.entity = static_cast<EntityId>(rng.Uniform(n));
    m.mention_pages = 1;
    m.false_match = true;
    edges.emplace_back(edges[rng.Uniform(true_edges)].first, m);
  }

  // Isolated pockets: 1-2 entities sharing 1-3 private sites.
  std::vector<uint32_t> pocket_sizes;  // sites per pocket, for host naming
  uint32_t next_site = num_regular;
  {
    uint32_t e = n - num_isolated;
    while (e < n) {
      const uint32_t pocket_sites =
          1 + (rng.Bernoulli(0.3) ? 1 : 0) + (rng.Bernoulli(0.1) ? 1 : 0);
      const uint32_t pocket_entities =
          std::min<uint32_t>(n - e, rng.Bernoulli(0.25) ? 2 : 1);
      for (uint32_t pe = 0; pe < pocket_entities; ++pe) {
        for (uint32_t ps = 0; ps < pocket_sites; ++ps) {
          SiteMention m;
          m.entity = e + pe;
          m.mention_pages = 1;
          edges.emplace_back(next_site + ps, m);
        }
      }
      next_site += pocket_sites;
      pocket_sizes.push_back(pocket_sites);
      e += pocket_entities;
    }
  }
  const uint32_t total_sites = next_site;

  // CSR by site (counting sort).
  model.site_offsets_.assign(total_sites + 1, 0);
  for (const auto& [s, m] : edges) ++model.site_offsets_[s + 1];
  for (uint32_t s = 0; s < total_sites; ++s) {
    model.site_offsets_[s + 1] += model.site_offsets_[s];
  }
  model.mentions_.resize(edges.size());
  {
    std::vector<uint64_t> cursor(model.site_offsets_.begin(),
                                 model.site_offsets_.end() - 1);
    for (const auto& [s, m] : edges) model.mentions_[cursor[s]++] = m;
  }

  // Host names: stable, unique, flavor-matched to rank.
  static constexpr std::array<std::string_view, 6> kHeadStems = {
      "cityguide", "localdir", "bizfinder", "reviewhub", "yellowmaps",
      "placelist"};
  static constexpr std::array<std::string_view, 6> kTailStems = {
      "blog", "community", "chamber", "neighborhood", "gazette", "listings"};
  model.hosts_.reserve(total_sites);
  for (uint32_t s = 0; s < num_regular; ++s) {
    const auto& stems = s < 64 ? kHeadStems : kTailStems;
    model.hosts_.push_back(StrFormat("%s-%05u.com",
                                     std::string(stems[s % 6]).c_str(), s));
  }
  for (uint32_t s = num_regular; s < total_sites; ++s) {
    model.hosts_.push_back(StrFormat("pocket-%05u.org", s - num_regular));
  }
  return model;
}

}  // namespace wsd

namespace wsd {

HostEntityTable ModelToHostTable(const SiteEntityModel& model) {
  std::vector<HostRecord> hosts(model.num_sites());
  for (SiteId s = 0; s < model.num_sites(); ++s) {
    hosts[s].host = model.host(s);
    auto& entities = hosts[s].entities;
    for (const SiteMention* m = model.site_begin(s); m != model.site_end(s);
         ++m) {
      entities.push_back({m->entity, m->mention_pages});
    }
    std::sort(entities.begin(), entities.end(),
              [](const EntityPages& a, const EntityPages& b) {
                return a.entity < b.entity;
              });
    // Merge duplicate edges (false matches may repeat an entity).
    size_t out = 0;
    for (size_t i = 0; i < entities.size(); ++i) {
      if (out > 0 && entities[out - 1].entity == entities[i].entity) {
        entities[out - 1].pages += entities[i].pages;
      } else {
        entities[out++] = entities[i];
      }
    }
    entities.resize(out);
  }
  HostEntityTable table(std::move(hosts));
  table.PruneEmptyHosts();
  return table;
}

}  // namespace wsd
