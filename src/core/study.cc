#include "core/study.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "extract/attribute_registry.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {

StatusOr<StudyOptions> StudyOptions::FromFlags(const FlagParser& flags) {
  StudyOptions options;
  WSD_RETURN_IF_ERROR(flags.ReadUint("entities", &options.num_entities));
  WSD_RETURN_IF_ERROR(flags.ReadUint("seed", &options.seed));
  WSD_RETURN_IF_ERROR(flags.ReadUint("threads", &options.threads));
  if (const auto raw = flags.Get("scale")) {
    const auto parsed = ParseDouble(*raw);
    if (!parsed.has_value() || !std::isfinite(*parsed) || *parsed <= 0) {
      return Status::InvalidArgument(StrFormat(
          "--scale: expected a positive number, got '%s'", raw->c_str()));
    }
    options.scale = *parsed;
  }
  if (auto dir = flags.Get("artifacts")) options.artifact_dir = *dir;
  return options;
}

uint32_t StudyOptions::ScaledEntities() const {
  const double scaled = static_cast<double>(num_entities) * scale;
  return std::max<uint32_t>(64, static_cast<uint32_t>(scaled));
}

Study::Study(const StudyOptions& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  if (!options_.artifact_dir.empty()) {
    store_.emplace(options_.artifact_dir);
  }
}

StatusOr<SyntheticWeb> Study::BuildWeb(Domain domain, Attribute attr) const {
  if (!AttributeApplicableTo(GetAttributeSpec(attr), domain)) {
    return Status::InvalidArgument(
        std::string(AttributeName(attr)) + " does not apply to domain " +
        std::string(DomainName(domain)));
  }
  const ScopedTimer build_timer(
      MetricsRegistry::Global().GetHistogram("wsd.corpus.build_seconds"));
  SyntheticWeb::Config config;
  config.domain = domain;
  config.attr = attr;
  config.num_entities = options_.ScaledEntities();
  config.seed = options_.seed;
  SpreadParams params = DefaultSpreadParams(domain, attr);
  params.num_sites = std::max<uint32_t>(
      64, static_cast<uint32_t>(static_cast<double>(params.num_sites) *
                                options_.scale));
  config.spread = params;
  return SyntheticWeb::Create(config);
}

ArtifactKey Study::KeyFor(Domain domain, Attribute attr) const {
  ArtifactKey key;
  key.domain = domain;
  key.attr = attr;
  key.num_entities = options_.num_entities;
  key.seed = options_.seed;
  key.scale = options_.scale;
  return key;
}

StatusOr<Study::ScanHandle> Study::Scan(Domain domain, Attribute attr) {
  auto handles = ScanBatch({{domain, attr}});
  if (!handles.ok()) return handles.status();
  return std::move(handles->front());
}

StatusOr<std::vector<Study::ScanHandle>> Study::ScanBatch(
    const std::vector<std::pair<Domain, Attribute>>& pairs) {
  const auto memo_key = [](Domain domain, Attribute attr) {
    return std::make_pair(static_cast<int>(domain), static_cast<int>(attr));
  };
  // Memo and store hits first; what is left must be built and scanned.
  std::vector<std::pair<Domain, Attribute>> misses;
  for (const auto& [domain, attr] : pairs) {
    const auto key = memo_key(domain, attr);
    if (scan_memo_.count(key) != 0 ||
        std::find(misses.begin(), misses.end(),
                  std::make_pair(domain, attr)) != misses.end()) {
      continue;
    }
    if (store_.has_value()) {
      auto loaded = store_->Load(KeyFor(domain, attr));
      if (loaded.ok()) {
        scan_memo_[key] =
            std::make_shared<const ScanResult>(std::move(loaded).value());
        continue;
      }
      // Miss or verify failure: the store has counted and logged it;
      // answer with a live scan.
    }
    misses.emplace_back(domain, attr);
  }

  StatusOr<SyntheticWeb> web = Status::Internal("no corpus built");
  if (!misses.empty()) web = BuildWeb(misses[0].first, misses[0].second);
  for (size_t i = 0; i < misses.size(); ++i) {
    if (!web.ok()) return web.status();
    StatusOr<SyntheticWeb> next = Status::Internal("no corpus built");
    auto scanned = ScanWeb(*web, ShardSpec{}, [&] {
      if (i + 1 < misses.size()) {
        next = BuildWeb(misses[i + 1].first, misses[i + 1].second);
      }
    });
    // Free corpus i before persisting its result, so the snapshot encoder
    // reuses the corpus's heap instead of growing it (`wsdctl scan
    // --artifacts --scale=0.5` peaked up to 27% higher otherwise).
    web = std::move(next);
    if (!scanned.ok()) return scanned.status();
    auto shared =
        std::make_shared<const ScanResult>(std::move(scanned).value());
    const auto& [domain, attr] = misses[i];
    if (store_.has_value()) {
      const Status stored = store_->Store(KeyFor(domain, attr), *shared);
      if (!stored.ok()) {
        WSD_LOG(kWarning) << "could not persist scan artifact: "
                          << stored.ToString();
      }
    }
    scan_memo_[memo_key(domain, attr)] = std::move(shared);
  }
#if defined(__GLIBC__)
  // Each overlapped build ran while the previous corpus was still live,
  // so the freed corpora and build temporaries sit above the live heap,
  // below glibc's raised trim threshold. Hand those pages back: without
  // this, `wsdctl paper` peaks ~2 MB (6%) higher than with serial builds.
  if (misses.size() > 1) malloc_trim(0);
#endif

  std::vector<ScanHandle> handles;
  handles.reserve(pairs.size());
  for (const auto& [domain, attr] : pairs) {
    handles.push_back(
        ScanHandle(domain, attr, scan_memo_.at(memo_key(domain, attr))));
  }
  return handles;
}

StatusOr<ScanResult> Study::RunShardScan(Domain domain, Attribute attr,
                                         const ShardSpec& shard) {
  auto web = BuildWeb(domain, attr);
  if (!web.ok()) return web.status();
  return ScanWeb(*web, shard);
}

StatusOr<ScanResult> Study::ScanWeb(
    const SyntheticWeb& web, const ShardSpec& shard,
    const std::function<void()>& while_scanning) {
  const ReviewDetector* detector = nullptr;
  if (GetAttributeSpec(web.config().attr).review_channel) {
    if (!detector_.has_value()) {
      auto built = ReviewDetector::CreateDefault(options_.seed ^ 0xdecafULL);
      if (!built.ok()) return built.status();
      detector_.emplace(std::move(built).value());
    }
    detector = &*detector_;
  }
  const ScanPipeline pipeline(web, *pool_, detector);
  return pipeline.Run(shard, while_scanning);
}

StatusOr<ScanResult> Study::RunScan(Domain domain, Attribute attr) {
  auto scan = Scan(domain, attr);
  if (!scan.ok()) return scan.status();
  return ScanResult(scan->result());
}

StatusOr<Study::SpreadResult> Study::RunSpread(const ScanHandle& scan,
                                               uint32_t max_k) {
  auto curve = ComputeKCoverage(
      scan.table(), options_.ScaledEntities(), max_k,
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan.table().num_hosts())));
  if (!curve.ok()) return curve.status();
  SpreadResult result;
  result.curve = std::move(curve).value();
  result.stats = scan.stats();
  return result;
}

StatusOr<Study::ReviewSpreadResult> Study::RunReviewSpread(
    const ScanHandle& scan, uint32_t max_k) {
  const auto t_values = DefaultCoverageTValues(
      static_cast<uint32_t>(scan.table().num_hosts()));
  auto site_curve = ComputeKCoverage(scan.table(), options_.ScaledEntities(),
                                     max_k, t_values);
  if (!site_curve.ok()) return site_curve.status();
  auto page_curve = ComputePageCoverage(scan.table(), t_values);
  if (!page_curve.ok()) return page_curve.status();
  ReviewSpreadResult result;
  result.site_curve = std::move(site_curve).value();
  result.page_curve = std::move(page_curve).value();
  result.stats = scan.stats();
  return result;
}

StatusOr<SetCoverCurve> Study::RunSetCover(const ScanHandle& scan) {
  return GreedySetCover(
      scan.table(), options_.ScaledEntities(),
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan.table().num_hosts())));
}

StatusOr<GraphMetricsRow> Study::RunGraphMetrics(const ScanHandle& scan) {
  return ComputeGraphMetrics(scan.domain(), scan.attr(), scan.table(),
                             options_.ScaledEntities(), pool_.get());
}

StatusOr<std::vector<RobustnessPoint>> Study::RunRobustness(
    const ScanHandle& scan, uint32_t max_removed) {
  return ComputeRobustness(scan.table(), options_.ScaledEntities(),
                           max_removed, pool_.get());
}

StatusOr<Study::ValueStudyResult> Study::RunValueStudy(TrafficSite site) {
  auto results = RunValueStudies({site});
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

StatusOr<std::vector<Study::ValueStudyResult>> Study::RunValueStudies(
    const std::vector<TrafficSite>& sites) {
  const ScopedTimer phase_timer(
      MetricsRegistry::Global().GetHistogram("wsd.core.value_study_seconds"));
  std::vector<SitePopulation> populations;
  populations.reserve(sites.size());
  for (TrafficSite site : sites) {
    TrafficSiteParams params = DefaultTrafficParams(site);
    params.num_entities = std::max<uint32_t>(
        256, static_cast<uint32_t>(static_cast<double>(params.num_entities) *
                                   options_.scale));
    populations.push_back(
        BuildPopulation(params, options_.seed ^ 0x7eaf1cULL));
  }

  // One task per (site, channel): task 2i counts site i's search log,
  // task 2i + 1 its browse log.
  constexpr TrafficChannel kChannels[] = {TrafficChannel::kSearch,
                                          TrafficChannel::kBrowse};
  std::vector<StatusOr<DemandTable>> tables(
      2 * sites.size(), Status::Internal("value study task did not run"));
  for (size_t task = 0; task < tables.size(); ++task) {
    pool_->Submit([&, task] {
      const SitePopulation& population = populations[task / 2];
      const TrafficChannel channel = kChannels[task % 2];
      const TrafficLogGenerator generator(population, TrafficLogOptions{},
                                          options_.seed ^ 0x10656e1ULL);
      StreamingDemandCounter counter(population.params.site, channel,
                                     population.params.num_entities);
      generator.Generate(channel,
                         [&](const VisitEvent& e) { counter.Consume(e); });
      tables[task] = counter.Finish();
    });
  }
  pool_->Wait();

  std::vector<ValueStudyResult> results(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    for (size_t task : {2 * i, 2 * i + 1}) {
      if (!tables[task].ok()) return tables[task].status();
    }
    ValueStudyResult& result = results[i];
    result.site = sites[i];
    result.demand = MergeChannelTables(std::move(tables[2 * i]).value(),
                                       std::move(tables[2 * i + 1]).value());
    result.reviews = std::move(populations[i].reviews);
    auto bins = AnalyzeValueAdd(result.demand, result.reviews);
    if (!bins.ok()) return bins.status();
    result.bins = std::move(bins).value();
    result.search_curve = CumulativeDemandCurve(result.demand.search_demand);
    result.browse_curve = CumulativeDemandCurve(result.demand.browse_demand);
    result.head20_search = HeadDemandShare(result.demand.search_demand, 0.2);
    result.head20_browse = HeadDemandShare(result.demand.browse_demand, 0.2);
  }
  return results;
}

}  // namespace wsd
