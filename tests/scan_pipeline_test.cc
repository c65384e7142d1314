// Integration tests: the full §3.1 pipeline (render -> parse -> extract ->
// match -> aggregate by host) must recover the ground-truth site-entity
// model exactly for identifier attributes, and approximately (classifier
// noise) for reviews.

#include "extract/scan_pipeline.h"

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <set>

// --- Allocation counting hook (for the steady-state regression test) ---
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

SyntheticWeb MakeWeb(Attribute attr, uint32_t entities, uint32_t sites,
                     uint64_t seed = 7) {
  SyntheticWeb::Config config;
  config.domain = attr == Attribute::kIsbn ? Domain::kBooks
                                           : Domain::kRestaurants;
  config.attr = attr;
  config.num_entities = entities;
  config.seed = seed;
  SpreadParams params = DefaultSpreadParams(config.domain, attr);
  params.num_sites = sites;
  config.spread = params;
  auto web = SyntheticWeb::Create(config);
  EXPECT_TRUE(web.ok());
  return std::move(web).value();
}

// Ground truth: per host name, the set of entity ids in the model.
std::map<std::string, std::set<EntityId>> GroundTruth(
    const SyntheticWeb& web) {
  std::map<std::string, std::set<EntityId>> truth;
  for (SiteId s = 0; s < web.num_hosts(); ++s) {
    auto& entities = truth[web.host(s)];
    for (const SiteMention* m = web.model().site_begin(s);
         m != web.model().site_end(s); ++m) {
      entities.insert(m->entity);
    }
    if (entities.empty()) truth.erase(web.host(s));
  }
  return truth;
}

std::map<std::string, std::set<EntityId>> Scanned(
    const HostEntityTable& table) {
  std::map<std::string, std::set<EntityId>> scanned;
  for (size_t i = 0; i < table.num_hosts(); ++i) {
    auto& entities = scanned[table.host(i).host];
    for (const EntityPages& ep : table.host(i).entities) {
      entities.insert(ep.entity);
    }
  }
  return scanned;
}

class ScanExactRecoveryTest : public ::testing::TestWithParam<Attribute> {};

TEST_P(ScanExactRecoveryTest, RecoversModelExactly) {
  const SyntheticWeb web = MakeWeb(GetParam(), 500, 300);
  ThreadPool pool(2);
  const ScanPipeline pipeline(web, pool);
  auto result = pipeline.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Scanned(result->table), GroundTruth(web));
  EXPECT_GT(result->stats.pages_scanned, 0u);
  EXPECT_GT(result->stats.bytes_scanned, result->stats.pages_scanned);
}

INSTANTIATE_TEST_SUITE_P(IdentifierAttributes, ScanExactRecoveryTest,
                         ::testing::Values(Attribute::kPhone,
                                           Attribute::kHomepage,
                                           Attribute::kIsbn));

TEST(ScanPipelineTest, ReviewScanRequiresDetector) {
  const SyntheticWeb web = MakeWeb(Attribute::kReviews, 100, 100);
  ThreadPool pool(1);
  const ScanPipeline pipeline(web, pool, nullptr);
  EXPECT_TRUE(pipeline.Run().status().IsInvalidArgument());
}

TEST(ScanPipelineTest, ReviewScanApproximatesTruth) {
  const SyntheticWeb web = MakeWeb(Attribute::kReviews, 300, 200);
  ThreadPool pool(2);
  auto detector = ReviewDetector::CreateDefault(99);
  ASSERT_TRUE(detector.ok());
  const ScanPipeline pipeline(web, pool, &*detector);
  auto result = pipeline.Run();
  ASSERT_TRUE(result.ok());

  // Ground truth: review pages per (host, entity).
  uint64_t truth_review_pages = 0;
  for (SiteId s = 0; s < web.num_hosts(); ++s) {
    web.GeneratePages(s, [&](const Page&, const PageTruth& t) {
      truth_review_pages += t.is_review_page;
    });
  }
  ASSERT_GT(truth_review_pages, 0u);
  const double recall =
      static_cast<double>(result->stats.review_pages) /
      static_cast<double>(truth_review_pages);
  // The Naive Bayes detector is good but not perfect.
  EXPECT_GT(recall, 0.85);
  EXPECT_LT(recall, 1.15);
}

// Snapshot of the wsd.scan.* counters that mirror ScanStats.
struct ScanCounterSnapshot {
  uint64_t hosts, pages, bytes, mentions, review_pages;
};

ScanCounterSnapshot TakeScanSnapshot() {
  MetricsRegistry& r = MetricsRegistry::Global();
  return {r.GetCounter("wsd.scan.hosts").value(),
          r.GetCounter("wsd.scan.pages").value(),
          r.GetCounter("wsd.scan.bytes").value(),
          r.GetCounter("wsd.scan.mentions").value(),
          r.GetCounter("wsd.scan.review_pages").value()};
}

TEST(ScanPipelineTest, ScanStatsEqualsRegistryDelta) {
  // ScanStats is documented as a thin view over the global registry: the
  // counter deltas across one Run() must equal the returned stats exactly,
  // regardless of thread count.
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 300, 200);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const ScanCounterSnapshot before = TakeScanSnapshot();
    auto result = ScanPipeline(web, pool).Run();
    ASSERT_TRUE(result.ok());
    const ScanCounterSnapshot after = TakeScanSnapshot();
    const ScanStats& stats = result->stats;
    EXPECT_EQ(after.hosts - before.hosts, stats.hosts_scanned)
        << "threads=" << threads;
    EXPECT_EQ(after.pages - before.pages, stats.pages_scanned);
    EXPECT_EQ(after.bytes - before.bytes, stats.bytes_scanned);
    EXPECT_EQ(after.mentions - before.mentions, stats.entity_mentions);
    EXPECT_EQ(after.review_pages - before.review_pages, stats.review_pages);
    // A run always lands in the run-duration histogram and the throughput
    // gauges reflect this scan.
    EXPECT_GT(MetricsRegistry::Global()
                  .GetHistogram("wsd.scan.run_seconds")
                  .count(),
              0u);
    if (stats.wall_seconds > 0) {
      EXPECT_GT(MetricsRegistry::Global()
                    .GetGauge("wsd.scan.pages_per_sec")
                    .value(),
                0.0);
    }
  }
}

TEST(HostTableTest, SizeOrderingIsDescendingAndDeterministic) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 400, 250);
  ThreadPool pool(2);
  auto result = ScanPipeline(web, pool).Run();
  ASSERT_TRUE(result.ok());
  const auto order = result->table.HostsBySizeDesc();
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(result->table.host_entity_count(order[i - 1]),
              result->table.host_entity_count(order[i]));
  }
  EXPECT_EQ(order, result->table.HostsBySizeDesc());
}

TEST(HostTableTest, TsvRoundTrip) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 200, 150);
  ThreadPool pool(2);
  auto result = ScanPipeline(web, pool).Run();
  ASSERT_TRUE(result.ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_host_table.tsv")
          .string();
  ASSERT_TRUE(result->table.WriteTsv(path).ok());
  auto loaded = HostEntityTable::ReadTsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_hosts(), result->table.num_hosts());
  for (size_t i = 0; i < loaded->num_hosts(); ++i) {
    EXPECT_EQ(loaded->host(i).host, result->table.host(i).host);
    ASSERT_EQ(loaded->host(i).entities.size(),
              result->table.host(i).entities.size());
    for (size_t j = 0; j < loaded->host(i).entities.size(); ++j) {
      EXPECT_EQ(loaded->host(i).entities[j].entity,
                result->table.host(i).entities[j].entity);
      EXPECT_EQ(loaded->host(i).entities[j].pages,
                result->table.host(i).entities[j].pages);
    }
  }
  std::remove(path.c_str());
}

TEST(HostTableTest, ReadTsvRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_host_bad.tsv")
          .string();
  {
    std::ofstream out(path);
    out << "host.com\t12:3,notanumber:4\n";
  }
  EXPECT_TRUE(HostEntityTable::ReadTsv(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(HostTableTest, PruneEmptyHosts) {
  std::vector<HostRecord> hosts(3);
  hosts[0].host = "a.com";
  hosts[0].entities = {{1, 1}};
  hosts[1].host = "empty.com";
  hosts[2].host = "b.com";
  hosts[2].entities = {{2, 1}, {3, 2}};
  HostEntityTable table(std::move(hosts));
  EXPECT_EQ(table.PruneEmptyHosts(), 1u);
  EXPECT_EQ(table.num_hosts(), 2u);
  EXPECT_EQ(table.TotalEdges(), 3u);
  EXPECT_EQ(table.TotalEntityPages(), 4u);
}


TEST(ScanCacheFileTest, MatchesLiveScan) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 300, 200);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_scan_cache.bin")
          .string();
  WebCacheWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (SiteId s = 0; s < web.num_hosts(); ++s) {
    web.GeneratePages(s, [&](const Page& page, const PageTruth&) {
      ASSERT_TRUE(writer.Append(page).ok());
    });
  }
  ASSERT_TRUE(writer.Close().ok());

  auto from_cache =
      ScanCacheFile(path, web.catalog(), Attribute::kPhone);
  ASSERT_TRUE(from_cache.ok()) << from_cache.status();
  ThreadPool pool(2);
  auto live = ScanPipeline(web, pool).Run();
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(Scanned(from_cache->table), Scanned(live->table));
  EXPECT_EQ(from_cache->stats.pages_scanned, live->stats.pages_scanned);
  std::remove(path.c_str());
}

TEST(ScanCacheFileTest, ErrorsSurface) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 50, 50);
  EXPECT_TRUE(ScanCacheFile("/nonexistent/cache.bin", web.catalog(),
                            Attribute::kPhone)
                  .status()
                  .IsIOError());
  EXPECT_TRUE(ScanCacheFile("/tmp/whatever.bin", web.catalog(),
                            Attribute::kReviews, nullptr)
                  .status()
                  .IsInvalidArgument());
}

// The scan kernel (Run) and the pre-kernel path (RunLegacy) must agree
// bit for bit: same hosts in the same order, same per-host page/byte
// counts, same (entity, pages) rows, same stats — at every thread count.
void ExpectIdenticalResults(const ScanResult& kernel,
                            const ScanResult& legacy) {
  ASSERT_EQ(kernel.table.num_hosts(), legacy.table.num_hosts());
  for (size_t i = 0; i < kernel.table.num_hosts(); ++i) {
    const HostRecord& k = kernel.table.host(i);
    const HostRecord& l = legacy.table.host(i);
    EXPECT_EQ(k.host, l.host);
    EXPECT_EQ(k.pages_scanned, l.pages_scanned) << k.host;
    EXPECT_EQ(k.bytes_scanned, l.bytes_scanned) << k.host;
    ASSERT_EQ(k.entities.size(), l.entities.size()) << k.host;
    for (size_t j = 0; j < k.entities.size(); ++j) {
      EXPECT_EQ(k.entities[j].entity, l.entities[j].entity) << k.host;
      EXPECT_EQ(k.entities[j].pages, l.entities[j].pages) << k.host;
    }
  }
  EXPECT_EQ(kernel.stats.hosts_scanned, legacy.stats.hosts_scanned);
  EXPECT_EQ(kernel.stats.pages_scanned, legacy.stats.pages_scanned);
  EXPECT_EQ(kernel.stats.bytes_scanned, legacy.stats.bytes_scanned);
  EXPECT_EQ(kernel.stats.entity_mentions, legacy.stats.entity_mentions);
  EXPECT_EQ(kernel.stats.review_pages, legacy.stats.review_pages);
  EXPECT_EQ(kernel.stats.skipped_urls, legacy.stats.skipped_urls);
}

// A corpus whose site 0 holds a large share of every page: all draws go
// to the head component, its rank-1 site takes most of them, and each
// entity has few sites. Equal-count host ranges never balanced this
// shape; under largest-first claiming the head host is claimed first and
// the tail behind it.
SyntheticWeb MakeHeadHeavyWeb(Attribute attr) {
  SyntheticWeb::Config config;
  config.domain = attr == Attribute::kIsbn ? Domain::kBooks
                                           : Domain::kRestaurants;
  config.attr = attr;
  config.num_entities = 400;
  config.seed = 13;
  SpreadParams params = DefaultSpreadParams(config.domain, attr);
  params.num_sites = 150;
  params.head_bias = 1.0;
  params.head_alpha = 3.0;
  params.mean_degree = 2.0;
  params.local_fraction = 0.0;
  params.head_degree_ref = 0.0;
  config.spread = params;
  auto web = SyntheticWeb::Create(config);
  EXPECT_TRUE(web.ok()) << web.status();
  return std::move(web).value();
}

class ScanClaimOrderTest : public ::testing::TestWithParam<Attribute> {};

// Hosts are claimed largest first from one cursor, so which worker scans
// which host depends on the thread count and on timing. The result must
// not: every thread count, and one hash slice at two thread counts, must
// give the single-threaded bytes.
TEST_P(ScanClaimOrderTest, ResultIndependentOfThreadCount) {
  const Attribute attr = GetParam();
  const SyntheticWeb web = MakeHeadHeavyWeb(attr);
  uint64_t total_pages = 0, head_pages = 0;
  for (SiteId s = 0; s < web.num_hosts(); ++s) {
    const uint32_t pages = web.generator().CountPages(s);
    total_pages += pages;
    head_pages = std::max<uint64_t>(head_pages, pages);
  }
  ASSERT_GT(head_pages * 4, total_pages) << "no dominant head host";

  std::optional<ReviewDetector> detector;
  if (attr == Attribute::kReviews) {
    auto built = ReviewDetector::CreateDefault(99);
    ASSERT_TRUE(built.ok());
    detector.emplace(std::move(built).value());
  }
  const ReviewDetector* det = detector ? &*detector : nullptr;
  const auto scan = [&](size_t threads, const ShardSpec& shard) {
    ThreadPool pool(threads);
    auto result = ScanPipeline(web, pool, det).Run(shard);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  };

  const ScanResult reference = scan(1, ShardSpec{});
  ASSERT_GT(reference.stats.pages_scanned, 0u);
  // Rows stay in SiteId order whatever order the hosts were claimed in.
  std::map<std::string, SiteId> site_of;
  for (SiteId s = 0; s < web.num_hosts(); ++s) site_of[web.host(s)] = s;
  for (size_t i = 1; i < reference.table.num_hosts(); ++i) {
    EXPECT_LT(site_of.at(reference.table.host(i - 1).host),
              site_of.at(reference.table.host(i).host));
  }
  for (size_t threads : {2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectIdenticalResults(scan(threads, ShardSpec{}), reference);
  }

  const ShardSpec slice{1, 3};
  const ScanResult slice_serial = scan(1, slice);
  {
    SCOPED_TRACE("slice 2/3, threads=8");
    ExpectIdenticalResults(scan(8, slice), slice_serial);
  }
  // The slice holds exactly the whole scan's rows for the hosts it owns.
  size_t owned_rows = 0;
  for (size_t i = 0; i < reference.table.num_hosts(); ++i) {
    const HostRecord& row = reference.table.host(i);
    if (!slice.Owns(row.host)) continue;
    ASSERT_LT(owned_rows, slice_serial.table.num_hosts());
    const HostRecord& got = slice_serial.table.host(owned_rows++);
    EXPECT_EQ(got.host, row.host);
    EXPECT_EQ(got.pages_scanned, row.pages_scanned) << row.host;
    EXPECT_EQ(got.entities.size(), row.entities.size()) << row.host;
  }
  EXPECT_EQ(owned_rows, slice_serial.table.num_hosts());
}

INSTANTIATE_TEST_SUITE_P(AllAttributes, ScanClaimOrderTest,
                         ::testing::Values(Attribute::kPhone,
                                           Attribute::kHomepage,
                                           Attribute::kIsbn,
                                           Attribute::kReviews,
                                           Attribute::kMicrodata),
                         [](const auto& info) {
                           return std::string(AttributeName(info.param));
                         });

class KernelEquivalenceTest : public ::testing::TestWithParam<Attribute> {};

TEST_P(KernelEquivalenceTest, KernelMatchesLegacyAtEveryThreadCount) {
  const Attribute attr = GetParam();
  const SyntheticWeb web = MakeWeb(attr, 300, 200);
  std::optional<ReviewDetector> detector;
  if (attr == Attribute::kReviews) {
    auto built = ReviewDetector::CreateDefault(99);
    ASSERT_TRUE(built.ok());
    detector.emplace(std::move(built).value());
  }
  const ReviewDetector* det = detector ? &*detector : nullptr;
  // The frozen legacy path is tier-independent: run it once as the
  // oracle, then prove the kernel bit-identical at every dispatch tier
  // and thread count. The override is installed before the pool spawns
  // workers and removed after they join.
  const auto legacy = [&] {
    ThreadPool pool(1);
    return ScanPipeline(web, pool, det).RunLegacy();
  }();
  ASSERT_TRUE(legacy.ok());
  for (const simd::Tier tier : simd::AvailableTiers()) {
    const simd::ScopedTierOverride pinned(tier);
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const ScanPipeline pipeline(web, pool, det);
      auto kernel = pipeline.Run();
      ASSERT_TRUE(kernel.ok());
      SCOPED_TRACE(::testing::Message() << "tier=" << simd::TierName(tier)
                                        << " threads=" << threads);
      ExpectIdenticalResults(*kernel, *legacy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAttributes, KernelEquivalenceTest,
                         ::testing::Values(Attribute::kPhone,
                                           Attribute::kHomepage,
                                           Attribute::kIsbn,
                                           Attribute::kReviews));

class SteadyStateAllocationTest
    : public ::testing::TestWithParam<Attribute> {};

TEST_P(SteadyStateAllocationTest, RescanAllocatesNothing) {
  // The kernel contract: once every scratch buffer has reached its
  // watermark, scanning a host performs zero heap allocations. Warm up
  // by scanning every host once (capacities climb to the corpus-wide
  // maximum), then rescan with the allocation counter armed.
  const SyntheticWeb web = MakeWeb(GetParam(), 200, 100);
  const EntityMatcher matcher(web.catalog(), GetParam());
  // The contract holds at every dispatch tier: the SIMD tiers add
  // bit-plane scratch, but planes also reach their watermark during
  // warmup and allocate nothing on rescan.
  for (const simd::Tier tier : simd::AvailableTiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::TierName(tier));
    const simd::ScopedTierOverride pinned(tier);
    ScanScratch scratch;
    HostRecord rec;
    uint64_t mentions = 0, reviews = 0;
    for (SiteId s = 0; s < web.num_hosts(); ++s) {
      ScanHostPages(web, s, matcher, nullptr, &scratch, &rec, &mentions,
                    &reviews);
    }
    ASSERT_GT(mentions, 0u);

    uint64_t allocs = 0;
    {
      const AllocCountGuard guard;
      for (SiteId s = 0; s < web.num_hosts(); ++s) {
        ScanHostPages(web, s, matcher, nullptr, &scratch, &rec, &mentions,
                      &reviews);
      }
      allocs = g_alloc_count;
    }
    EXPECT_EQ(allocs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(IdentifierAttributes, SteadyStateAllocationTest,
                         ::testing::Values(Attribute::kPhone,
                                           Attribute::kHomepage,
                                           Attribute::kIsbn,
                                           Attribute::kMicrodata));

// The frozen legacy oracle predates the microdata channel and refuses
// it, so cross-tier equivalence for microdata uses the scalar kernel as
// the oracle instead: every SIMD tier and thread count must reproduce
// the scalar result bit for bit.
TEST(MicrodataScanTest, CrossTierEquivalenceAgainstScalar) {
  const SyntheticWeb web = MakeWeb(Attribute::kMicrodata, 300, 200);
  const auto scalar = [&] {
    const simd::ScopedTierOverride pinned(simd::Tier::kScalar);
    ThreadPool pool(1);
    return ScanPipeline(web, pool).Run();
  }();
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  ASSERT_GT(scalar->stats.entity_mentions, 0u);
  for (const simd::Tier tier : simd::AvailableTiers()) {
    const simd::ScopedTierOverride pinned(tier);
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      auto result = ScanPipeline(web, pool).Run();
      ASSERT_TRUE(result.ok());
      SCOPED_TRACE(::testing::Message() << "tier=" << simd::TierName(tier)
                                        << " threads=" << threads);
      ExpectIdenticalResults(*result, *scalar);
    }
  }
}

TEST(MicrodataScanTest, RecoversExactlyTheAnnotatedSubset) {
  // Microdata ground truth is adoption-filtered: a site contributes its
  // mentions iff it adopted schema.org markup (annotation bits != 0).
  // The scan must recover that subset exactly — nothing from
  // non-adopting sites, everything from adopting ones.
  const SyntheticWeb web = MakeWeb(Attribute::kMicrodata, 500, 300);
  uint32_t adopters = 0, holdouts = 0;
  std::map<std::string, std::set<EntityId>> truth;
  for (SiteId s = 0; s < web.num_hosts(); ++s) {
    if (web.generator().SiteAnnotation(s) == 0) {
      if (web.model().site_begin(s) != web.model().site_end(s)) ++holdouts;
      continue;
    }
    ++adopters;
    auto& entities = truth[web.host(s)];
    for (const SiteMention* m = web.model().site_begin(s);
         m != web.model().site_end(s); ++m) {
      entities.insert(m->entity);
    }
    if (entities.empty()) truth.erase(web.host(s));
  }
  // The adoption model must produce a genuinely mixed web at this size.
  ASSERT_GT(adopters, 0u);
  ASSERT_GT(holdouts, 0u);

  ThreadPool pool(2);
  auto result = ScanPipeline(web, pool).Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Scanned(result->table), truth);
}


TEST(ModelToHostTableTest, GroundTruthFastPathMatchesFullPipeline) {
  // The documented contract: for identifier attributes, analysis on the
  // ground-truth model equals analysis on the extracted tables.
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 400, 250);
  ThreadPool pool(2);
  auto live = ScanPipeline(web, pool).Run();
  ASSERT_TRUE(live.ok());
  const HostEntityTable truth = ModelToHostTable(web.model());
  EXPECT_EQ(Scanned(truth), Scanned(live->table));
}

}  // namespace
}  // namespace wsd
