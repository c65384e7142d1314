// End-to-end tests of the Study driver at small scale, plus the
// calibration checks that pin the reproduction's shape anchors (loose
// tolerances; the benches verify the tight versions at full scale).

#include "core/study.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/report.h"
#include "extract/attribute_registry.h"
#include "util/metrics.h"

namespace wsd {
namespace {

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 2500;
  options.scale = 1.0;
  options.seed = 11;
  options.threads = 2;
  return options;
}

// Shrink the web to test size while keeping defaults' shape parameters.
class StudySmall : public ::testing::Test {
 protected:
  StudySmall() : study_(SmallOptions()) {}

  StatusOr<ScanResult> ScanSmall(Domain domain, Attribute attr) {
    return study_.RunScan(domain, attr);
  }

  Study study_;
};

TEST(StudyOptionsTest, ScaledEntitiesFloorsAt64) {
  StudyOptions options;
  options.num_entities = 100;
  options.scale = 0.001;
  EXPECT_EQ(options.ScaledEntities(), 64u);
  options.scale = 2.0;
  EXPECT_EQ(options.ScaledEntities(), 200u);
}

TEST_F(StudySmall, SpreadCurveHasPaperShapeProperties) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto spread = study_.RunSpread(*scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  const CoverageCurve& curve = spread->curve;
  ASSERT_EQ(curve.k_coverage.size(), 10u);

  // Coverage rises with t, falls with k; the full web reaches 100% at
  // k=1 (every entity is somewhere).
  for (uint32_t k = 0; k < 10; ++k) {
    for (size_t i = 1; i < curve.t_values.size(); ++i) {
      ASSERT_GE(curve.k_coverage[k][i] + 1e-12, curve.k_coverage[k][i - 1]);
    }
  }
  for (uint32_t k = 1; k < 10; ++k) {
    for (size_t i = 0; i < curve.t_values.size(); ++i) {
      ASSERT_LE(curve.k_coverage[k][i], curve.k_coverage[k - 1][i] + 1e-12);
    }
  }
  EXPECT_NEAR(curve.k_coverage[0].back(), 1.0, 1e-9);
  // Head sites carry most entities at k=1 but corroboration (k=5) stays
  // far behind at the same t — the paper's central gap.
  const double k1_head = curve.k_coverage[0][5];  // some head prefix
  const double k5_head = curve.k_coverage[4][5];
  EXPECT_GT(k1_head, k5_head + 0.2);
}

TEST_F(StudySmall, ScanIsDeterministicAcrossRuns) {
  auto a = ScanSmall(Domain::kBanks, Attribute::kPhone);
  auto b = ScanSmall(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->table.num_hosts(), b->table.num_hosts());
  EXPECT_EQ(a->stats.entity_mentions, b->stats.entity_mentions);
  for (size_t i = 0; i < a->table.num_hosts(); ++i) {
    ASSERT_EQ(a->table.host(i).host, b->table.host(i).host);
    ASSERT_EQ(a->table.host(i).entities.size(),
              b->table.host(i).entities.size());
  }
}

TEST_F(StudySmall, ReviewSpreadProducesBothCurves) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kReviews);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto result = study_.RunReviewSpread(*scan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.review_pages, 0u);
  EXPECT_GT(result->page_curve.total_pages, 0u);
  // Page-level coverage lags site-level coverage at the same head t
  // (Fig 4(b) vs 4(a)).
  const size_t mid = result->site_curve.t_values.size() / 2;
  EXPECT_LT(result->page_curve.page_fraction[mid],
            result->site_curve.k_coverage[0][mid]);
  // Page fractions are monotone and end at 1.
  const auto& pf = result->page_curve.page_fraction;
  for (size_t i = 1; i < pf.size(); ++i) EXPECT_GE(pf[i] + 1e-12, pf[i - 1]);
  EXPECT_NEAR(pf.back(), 1.0, 1e-9);
}

TEST_F(StudySmall, SetCoverBeatsOrEqualsSizeOrdering) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto curve = study_.RunSetCover(*scan);
  ASSERT_TRUE(curve.ok());
  for (size_t i = 0; i < curve->t_values.size(); ++i) {
    EXPECT_GE(curve->greedy_coverage[i] + 1e-12, curve->size_coverage[i]);
  }
}

TEST_F(StudySmall, GraphMetricsMatchTable2Shape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto row = study_.RunGraphMetrics(*scan);
  ASSERT_TRUE(row.ok()) << row.status();
  // Avg sites/entity tracks the Table 2 target (32) loosely.
  EXPECT_NEAR(row->avg_sites_per_entity, 32.0, 8.0);
  // Small diameter, giant component.
  EXPECT_GE(row->diameter, 2u);
  EXPECT_LE(row->diameter, 12u);
  EXPECT_GT(row->largest_component_entity_pct, 97.0);
  EXPECT_GE(row->num_components, 1u);
}

TEST_F(StudySmall, RobustnessSweepShape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto sweep = study_.RunRobustness(*scan, 10);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 11u);
  // Monotone non-increasing, never catastrophic (paper Fig 9).
  for (size_t k = 1; k < sweep->size(); ++k) {
    EXPECT_LE((*sweep)[k].largest_component_entity_fraction,
              (*sweep)[k - 1].largest_component_entity_fraction + 1e-12);
  }
  EXPECT_GT(sweep->back().largest_component_entity_fraction, 0.90);
}

TEST_F(StudySmall, MicrodataSpreadHasAdoptionFilteredShape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kMicrodata);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_GT(scan->stats().entity_mentions, 0u);
  auto spread = study_.RunSpread(*scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  const CoverageCurve& curve = spread->curve;
  for (uint32_t k = 0; k < curve.k_coverage.size(); ++k) {
    for (size_t i = 1; i < curve.t_values.size(); ++i) {
      ASSERT_GE(curve.k_coverage[k][i] + 1e-12, curve.k_coverage[k][i - 1]);
    }
  }
  // Adoption skews to head sites, so microdata coverage at full t stays
  // below the near-universal phone channel: tail holdouts leave entities
  // that only tail sites mention uncovered.
  auto phone = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(phone.ok());
  auto phone_spread = study_.RunSpread(*phone);
  ASSERT_TRUE(phone_spread.ok());
  EXPECT_LT(curve.k_coverage[0].back() + 1e-12,
            phone_spread->curve.k_coverage[0].back() + 1e-9);
  EXPECT_LE(curve.k_coverage[0].back(), 1.0 + 1e-12);
}

TEST_F(StudySmall, MicrodataDoesNotApplyToBooks) {
  auto scan = study_.Scan(Domain::kBooks, Attribute::kMicrodata);
  EXPECT_TRUE(scan.status().IsInvalidArgument()) << scan.status();
}

// Every (domain, attribute) pair either scans or is refused as
// InvalidArgument, never an abort, and the refusals are exactly the pairs
// the registry marks inapplicable (e.g. ISBNs outside books, phones in
// books).
TEST(StudyApplicabilityTest, EveryDomainAttrPairScansOrIsInvalidArgument) {
  StudyOptions options = SmallOptions();
  options.num_entities = 300;
  options.scale = 0.05;
  Study study(options);
  for (const Domain d : AllDomains()) {
    for (const AttributeSpec& spec : AllAttributeSpecs()) {
      SCOPED_TRACE(std::string(DomainName(d)) + " x " +
                   std::string(spec.name));
      auto scan = study.Scan(d, spec.attr);
      if (!AttributeApplicableTo(spec, d)) {
        EXPECT_TRUE(scan.status().IsInvalidArgument()) << scan.status();
        continue;
      }
      ASSERT_TRUE(scan.ok()) << scan.status();
      EXPECT_TRUE(study.RunSpread(*scan).ok());
    }
  }
}

TEST_F(StudySmall, ValueStudyAnchors) {
  StudyOptions options = SmallOptions();
  options.scale = 0.1;  // shrink the traffic populations
  Study study(options);

  auto yelp = study.RunValueStudy(TrafficSite::kYelp);
  auto imdb = study.RunValueStudy(TrafficSite::kImdb);
  ASSERT_TRUE(yelp.ok()) << yelp.status();
  ASSERT_TRUE(imdb.ok()) << imdb.status();

  // Fig 6: IMDb demand is far more concentrated than Yelp's.
  EXPECT_GT(imdb->head20_search, 0.85);
  EXPECT_LT(yelp->head20_search, 0.75);
  EXPECT_GT(imdb->head20_search, yelp->head20_search + 0.15);

  // Fig 7: demand grows with review count (compare first and a later
  // occupied bin).
  const auto& bins = yelp->bins;
  double first_z = 0, later_z = 0;
  bool have_later = false;
  for (const auto& bin : bins) {
    if (bin.num_entities < 20) continue;
    if (!have_later) {
      first_z = bin.mean_search_z;
      later_z = bin.mean_search_z;
      have_later = true;
    } else {
      later_z = bin.mean_search_z;
    }
  }
  ASSERT_TRUE(have_later);
  EXPECT_GT(later_z, first_z);

  // Fig 8: Yelp relative VA decreases from the zero-review bin.
  double last_va = 1e9;
  int checked = 0;
  for (const auto& bin : yelp->bins) {
    if (bin.num_entities < 20) continue;
    EXPECT_LE(bin.rel_va_search, last_va + 0.1)
        << "bin " << bin.label << " breaks the decreasing shape";
    last_va = bin.rel_va_search;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST_F(StudySmall, ValueStudyDeterministic) {
  StudyOptions options = SmallOptions();
  options.scale = 0.05;
  Study s1(options), s2(options);
  auto a = s1.RunValueStudy(TrafficSite::kAmazon);
  auto b = s2.RunValueStudy(TrafficSite::kAmazon);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->demand.events_consumed, b->demand.events_consumed);
  EXPECT_EQ(a->demand.search_demand, b->demand.search_demand);
  EXPECT_EQ(a->reviews, b->reviews);
}

// The batch gives every site exactly the result of its one-site call, at
// any thread count: each (site, channel) stream is independent.
TEST(StudyValueBatchTest, BatchMatchesSingleSiteCallsAtAnyThreadCount) {
  const std::vector<TrafficSite> sites = {
      TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb};
  StudyOptions options = SmallOptions();
  options.scale = 0.02;
  options.threads = 1;
  Study serial(options);
  std::vector<Study::ValueStudyResult> singles;
  for (TrafficSite site : sites) {
    auto single = serial.RunValueStudy(site);
    ASSERT_TRUE(single.ok()) << single.status();
    singles.push_back(std::move(single).value());
  }
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    Study study(options);
    auto batch = study.RunValueStudies(sites);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      const Study::ValueStudyResult& a = (*batch)[i];
      const Study::ValueStudyResult& b = singles[i];
      EXPECT_EQ(a.site, sites[i]);
      EXPECT_EQ(a.demand.search_demand, b.demand.search_demand);
      EXPECT_EQ(a.demand.browse_demand, b.demand.browse_demand);
      EXPECT_EQ(a.demand.events_consumed, b.demand.events_consumed);
      EXPECT_EQ(a.demand.events_skipped, b.demand.events_skipped);
      EXPECT_EQ(a.reviews, b.reviews);
      EXPECT_EQ(a.head20_search, b.head20_search);
      EXPECT_EQ(a.head20_browse, b.head20_browse);
      EXPECT_EQ(ValueBinsTsv(a.bins), ValueBinsTsv(b.bins));
      EXPECT_EQ(DemandCurveTsv(a.search_curve, a.browse_curve),
                DemandCurveTsv(b.search_curve, b.browse_curve));
    }
  }
}

// Each value-study call records exactly one wsd.core.value_study_seconds
// observation, whatever the site, and a batch of sites records one too.
TEST(StudyMetricsTest, ValueStudyRecordsOneTimerObservationPerCall) {
  StudyOptions options = SmallOptions();
  options.scale = 0.02;
  Study study(options);
  const LatencyHistogram& timer = MetricsRegistry::Global().GetHistogram(
      "wsd.core.value_study_seconds");
  const uint64_t before = timer.count();
  ASSERT_TRUE(study.RunValueStudy(TrafficSite::kYelp).ok());
  EXPECT_EQ(timer.count(), before + 1);
  ASSERT_TRUE(study.RunValueStudy(TrafficSite::kImdb).ok());
  EXPECT_EQ(timer.count(), before + 2);
  ASSERT_TRUE(
      study.RunValueStudies({TrafficSite::kAmazon, TrafficSite::kImdb}).ok());
  EXPECT_EQ(timer.count(), before + 3);
}

// wsd.corpus.build_seconds records one observation per synthetic-web
// build: one per live scan, none when the memo or the artifact store
// answers.
TEST(StudyMetricsTest, CorpusBuildTimerRecordsOnePerLiveScan) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wsd_study_build_timer")
          .string();
  std::filesystem::remove_all(dir);
  StudyOptions options = SmallOptions();
  options.num_entities = 400;
  options.artifact_dir = dir;
  const LatencyHistogram& timer =
      MetricsRegistry::Global().GetHistogram("wsd.corpus.build_seconds");
  const uint64_t before = timer.count();

  Study cold(options);
  ASSERT_TRUE(cold.Scan(Domain::kBanks, Attribute::kPhone).ok());
  EXPECT_EQ(timer.count(), before + 1) << "live scan";
  ASSERT_TRUE(cold.Scan(Domain::kBanks, Attribute::kPhone).ok());
  EXPECT_EQ(timer.count(), before + 1) << "memo hit";
  ASSERT_TRUE(cold.Scan(Domain::kBanks, Attribute::kHomepage).ok());
  EXPECT_EQ(timer.count(), before + 2) << "second live scan";

  Study warm(options);
  ASSERT_TRUE(warm.Scan(Domain::kBanks, Attribute::kPhone).ok());
  EXPECT_EQ(timer.count(), before + 2) << "store hit";
  std::filesystem::remove_all(dir);
}

// Host rows and counts of two scans, wall time aside.
void ExpectSameScan(const ScanResult& a, const ScanResult& b) {
  ASSERT_EQ(a.table.num_hosts(), b.table.num_hosts());
  for (size_t i = 0; i < a.table.num_hosts(); ++i) {
    const HostRecord& x = a.table.host(i);
    const HostRecord& y = b.table.host(i);
    EXPECT_EQ(x.host, y.host);
    EXPECT_EQ(x.pages_scanned, y.pages_scanned) << x.host;
    EXPECT_EQ(x.bytes_scanned, y.bytes_scanned) << x.host;
    ASSERT_EQ(x.entities.size(), y.entities.size()) << x.host;
    for (size_t j = 0; j < x.entities.size(); ++j) {
      EXPECT_EQ(x.entities[j].entity, y.entities[j].entity) << x.host;
      EXPECT_EQ(x.entities[j].pages, y.entities[j].pages) << x.host;
    }
  }
  EXPECT_EQ(a.stats.hosts_scanned, b.stats.hosts_scanned);
  EXPECT_EQ(a.stats.pages_scanned, b.stats.pages_scanned);
  EXPECT_EQ(a.stats.bytes_scanned, b.stats.bytes_scanned);
  EXPECT_EQ(a.stats.entity_mentions, b.stats.entity_mentions);
  EXPECT_EQ(a.stats.review_pages, b.stats.review_pages);
}

// A batch builds corpus i+1 while corpus i is scanned; each pair must
// still get exactly its pair-by-pair Scan() result, in `pairs` order,
// repeats included.
TEST(StudyScanBatchTest, BatchMatchesPairByPairScans) {
  const std::vector<std::pair<Domain, Attribute>> pairs = {
      {Domain::kBanks, Attribute::kPhone},
      {Domain::kBooks, Attribute::kIsbn},
      {Domain::kRestaurants, Attribute::kReviews},
      {Domain::kBanks, Attribute::kPhone},
      {Domain::kRestaurants, Attribute::kHomepage}};
  StudyOptions options = SmallOptions();
  options.num_entities = 400;
  options.threads = 4;
  Study batch_study(options);
  auto batch = batch_study.ScanBatch(pairs);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), pairs.size());

  options.threads = 1;
  Study serial(options);
  for (size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    auto single = serial.Scan(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ((*batch)[i].domain(), pairs[i].first);
    EXPECT_EQ((*batch)[i].attr(), pairs[i].second);
    ExpectSameScan((*batch)[i].result(), single->result());
  }
}

// Store hits skip the build: a warm batch records no
// wsd.corpus.build_seconds observation, a cold one one per distinct pair.
TEST(StudyScanBatchTest, WarmStoreBuildsNothing) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wsd_study_batch_store")
          .string();
  std::filesystem::remove_all(dir);
  StudyOptions options = SmallOptions();
  options.num_entities = 400;
  options.artifact_dir = dir;
  const std::vector<std::pair<Domain, Attribute>> pairs = {
      {Domain::kBanks, Attribute::kPhone},
      {Domain::kBanks, Attribute::kHomepage},
      {Domain::kBooks, Attribute::kIsbn}};
  const LatencyHistogram& builds =
      MetricsRegistry::Global().GetHistogram("wsd.corpus.build_seconds");

  const uint64_t before_cold = builds.count();
  Study cold(options);
  auto cold_scans = cold.ScanBatch(pairs);
  ASSERT_TRUE(cold_scans.ok()) << cold_scans.status();
  EXPECT_EQ(builds.count(), before_cold + pairs.size());

  const uint64_t before_warm = builds.count();
  Study warm(options);
  auto warm_scans = warm.ScanBatch(pairs);
  ASSERT_TRUE(warm_scans.ok()) << warm_scans.status();
  EXPECT_EQ(builds.count(), before_warm);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectSameScan((*warm_scans)[i].result(), (*cold_scans)[i].result());
  }
  std::filesystem::remove_all(dir);
}

// An inapplicable pair in the middle of a batch fails the batch with its
// own error once the scan it overlapped has drained; the pairs before it
// stay memoized and the pool keeps working.
TEST(StudyScanBatchTest, InapplicablePairFailsAfterThePoolDrains) {
  StudyOptions options = SmallOptions();
  options.num_entities = 400;
  options.threads = 4;
  Study study(options);
  const LatencyHistogram& builds =
      MetricsRegistry::Global().GetHistogram("wsd.corpus.build_seconds");
  auto batch = study.ScanBatch({{Domain::kBanks, Attribute::kPhone},
                                {Domain::kBooks, Attribute::kPhone},
                                {Domain::kBanks, Attribute::kHomepage}});
  EXPECT_TRUE(batch.status().IsInvalidArgument()) << batch.status();
  EXPECT_NE(batch.status().message().find("Books"), std::string::npos)
      << batch.status();

  const uint64_t before = builds.count();
  ASSERT_TRUE(study.Scan(Domain::kBanks, Attribute::kPhone).ok());
  EXPECT_EQ(builds.count(), before) << "scanned pair was not memoized";
  ASSERT_TRUE(study.Scan(Domain::kBanks, Attribute::kHomepage).ok());
  EXPECT_EQ(builds.count(), before + 1);
}

// Scale stability: the coverage shape barely moves between 1x and 2x
// entity counts (justifies running the study far below Yahoo's scale).
TEST(StudyScaleTest, CoverageShapeIsScaleStable) {
  StudyOptions small = SmallOptions();
  small.num_entities = 2000;
  StudyOptions big = SmallOptions();
  big.num_entities = 4000;

  auto curve_at = [](StudyOptions options, uint32_t t_index) {
    Study study(options);
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kPhone);
    EXPECT_TRUE(scan.ok());
    auto spread = study.RunSpread(*scan);
    EXPECT_TRUE(spread.ok());
    return spread->curve.k_coverage[0][t_index];
  };
  // Compare 1-coverage at the same t (index 5 ~ top-20 sites).
  const double a = curve_at(small, 5);
  const double b = curve_at(big, 5);
  EXPECT_NEAR(a, b, 0.05);
}

}  // namespace
}  // namespace wsd
