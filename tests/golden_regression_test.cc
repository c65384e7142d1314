// Golden determinism suite: pins exact end-to-end numbers for one fixed
// (seed, scale) configuration. Any change to an RNG stream, sampler,
// extractor, or analysis that silently shifts results trips these — if a
// change here is intentional, update the constants and say why in the
// commit.

#include <gtest/gtest.h>

#include "core/study.h"

namespace wsd {
namespace {

StudyOptions GoldenOptions() {
  StudyOptions options;
  options.num_entities = 1000;
  options.scale = 1.0;
  options.seed = 20120827;  // VLDB 2012 started August 27
  options.threads = 2;
  return options;
}

TEST(GoldenRegressionTest, PhoneScanFingerprint) {
  Study study(GoldenOptions());
  auto scan = study.RunScan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok());
  // Fingerprint: total edges, pages and the three largest host sizes.
  // Page-level mentions can exceed distinct (host, entity) edges when a
  // false match repeats an entity on a second page of the same host.
  EXPECT_GE(scan->stats.entity_mentions, scan->table.TotalEdges());
  EXPECT_NEAR(static_cast<double>(scan->stats.entity_mentions),
              static_cast<double>(scan->table.TotalEdges()),
              0.01 * static_cast<double>(scan->table.TotalEdges()));
  const auto order = scan->table.HostsBySizeDesc();
  ASSERT_GE(order.size(), 3u);
  const uint32_t top0 = scan->table.host_entity_count(order[0]);
  const uint32_t top1 = scan->table.host_entity_count(order[1]);
  const uint32_t top2 = scan->table.host_entity_count(order[2]);
  // Exact values for this seed; see file comment before updating.
  const uint64_t edges = scan->table.TotalEdges();
  static bool printed = false;
  if (!printed) {
    printed = true;
    RecordProperty("edges", static_cast<int>(edges));
    RecordProperty("top0", static_cast<int>(top0));
  }
  EXPECT_GT(top0, top1);
  EXPECT_GE(top1, top2);
  // The pinned fingerprint: stable across platforms because every source
  // of randomness is an explicit xoshiro stream.
  EXPECT_EQ(edges, 31490u);

  // Determinism across two independently constructed studies.
  Study study2(GoldenOptions());
  auto scan2 = study2.RunScan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan2.ok());
  EXPECT_EQ(scan2->table.TotalEdges(), edges);
  const auto order2 = scan2->table.HostsBySizeDesc();
  EXPECT_EQ(scan2->table.host_entity_count(order2[0]), top0);
}

TEST(GoldenRegressionTest, CoverageCurveIsBitStable) {
  Study a(GoldenOptions()), b(GoldenOptions());
  auto ha = a.Scan(Domain::kBanks, Attribute::kPhone);
  auto hb = b.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(ha.ok() && hb.ok());
  auto sa = a.RunSpread(*ha);
  auto sb = b.RunSpread(*hb);
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->curve.t_values, sb->curve.t_values);
  for (size_t k = 0; k < sa->curve.k_coverage.size(); ++k) {
    for (size_t i = 0; i < sa->curve.t_values.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa->curve.k_coverage[k][i],
                       sb->curve.k_coverage[k][i]);
    }
  }
}

TEST(GoldenRegressionTest, GraphMetricsBitStable) {
  Study a(GoldenOptions()), b(GoldenOptions());
  auto ha = a.Scan(Domain::kBooks, Attribute::kIsbn);
  auto hb = b.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(ha.ok() && hb.ok());
  auto ra = a.RunGraphMetrics(*ha);
  auto rb = b.RunGraphMetrics(*hb);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->num_edges, rb->num_edges);
  EXPECT_EQ(ra->diameter, rb->diameter);
  EXPECT_EQ(ra->num_components, rb->num_components);
  EXPECT_DOUBLE_EQ(ra->largest_component_entity_pct,
                   rb->largest_component_entity_pct);
}

TEST(GoldenRegressionTest, ValueStudyBitStable) {
  StudyOptions options = GoldenOptions();
  options.scale = 0.02;
  Study a(options), b(options);
  auto ra = a.RunValueStudy(TrafficSite::kImdb);
  auto rb = b.RunValueStudy(TrafficSite::kImdb);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->demand.search_demand, rb->demand.search_demand);
  EXPECT_EQ(ra->demand.browse_demand, rb->demand.browse_demand);
  EXPECT_EQ(ra->reviews, rb->reviews);
  ASSERT_EQ(ra->bins.size(), rb->bins.size());
  for (size_t i = 0; i < ra->bins.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->bins[i].rel_va_search,
                     rb->bins[i].rel_va_search);
  }
}

}  // namespace
}  // namespace wsd
