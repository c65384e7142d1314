// Engineering micro-benchmarks for the streaming scan kernel: end-to-end
// ScanPipeline throughput per attribute at 1/2/8 threads, and the
// kernel-vs-legacy ablation on the default phone-scan corpus. Not a
// paper figure; quantifies the zero-allocation rewrite of the cache-scan
// hot path (see docs/ARCHITECTURE.md, "Scan kernel").
//
// Flags (besides the google-benchmark ones):
//   --smoke          shrink the corpus for CI smoke runs
//   --metrics_out=F  write the metrics registry (including the
//                    wsd.scan.bench.* gauges below) to F on exit
//
// The ablation pair (BM_PageScanKernel / BM_PageScanLegacy) publishes
//   wsd.scan.bench.kernel_pages_per_sec
//   wsd.scan.bench.legacy_pages_per_sec
//   wsd.scan.bench.kernel_speedup
// so a committed BENCH_scan.json records the measured speedup.
//
// The SIMD dispatch ablation (BM_StructuralScan/<tier>, registered for
// every tier the CPU supports) measures the structural-byte scan kernel
// (BuildHtmlPlanes: '<' '&' '>' quote classification) per dispatch tier
// over the same corpus, plus the full page scan per tier
// (BM_PageScanTier/<tier>). It publishes
//   wsd.scan.bench.simd_<tier>_bytes_per_sec   (structural scan)
//   wsd.scan.bench.simd_page_scan_<tier>_pages_per_sec
//   wsd.scan.bench.simd_speedup   (best tier / scalar, structural scan)
//
// The snapshot-load pair (BM_SnapshotParseV2 / BM_SnapshotMmapLoad)
// compares the buffered parser with the zero-copy mmap load of the same
// scan result, publishing
//   wsd.store.bench.v2_parse_mb_per_sec
//   wsd.store.bench.mmap_load_mb_per_sec

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>

#include "bench_util.h"

#include "corpus/web_cache.h"
#include "extract/matcher.h"
#include "extract/review_detector.h"
#include "extract/scan_pipeline.h"
#include "html/text_extract.h"
#include "store/snapshot.h"
#include "util/metrics.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace wsd;

// Set from --smoke before any benchmark runs (webs are built lazily on
// first use, so registration order doesn't matter).
bool g_smoke = false;

constexpr Attribute kAttrs[] = {Attribute::kPhone, Attribute::kHomepage,
                                Attribute::kIsbn, Attribute::kReviews};

// One synthetic web per attribute, built once and shared by every
// benchmark (leaked: lives for the process).
const SyntheticWeb& WebOf(Attribute attr) {
  static auto* cache = new std::map<Attribute, SyntheticWeb>();
  auto it = cache->find(attr);
  if (it == cache->end()) {
    SyntheticWeb::Config config;
    config.domain =
        attr == Attribute::kIsbn ? Domain::kBooks : Domain::kRestaurants;
    config.attr = attr;
    config.num_entities = g_smoke ? 150 : 2000;
    config.seed = 99;
    SpreadParams params = DefaultSpreadParams(config.domain, attr);
    params.num_sites = g_smoke ? 80 : 400;
    config.spread = params;
    auto web = SyntheticWeb::Create(config);
    it = cache->emplace(attr, std::move(web).value()).first;
  }
  return it->second;
}

ThreadPool& PoolOf(int threads) {
  static auto* pools = new std::map<int, std::unique_ptr<ThreadPool>>();
  auto& slot = (*pools)[threads];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

const ReviewDetector* Detector() {
  static const ReviewDetector* detector = [] {
    auto built = ReviewDetector::CreateDefault(99);
    return new ReviewDetector(std::move(built).value());
  }();
  return detector;
}

// Pages of the first hosts of the web, pre-rendered once, so the
// page-scan ablation measures scanning only (no generation).
struct PageCorpus {
  std::vector<Page> pages;
  uint64_t bytes = 0;
};

const PageCorpus& PagesOf(Attribute attr) {
  static auto* cache = new std::map<Attribute, PageCorpus>();
  auto it = cache->find(attr);
  if (it == cache->end()) {
    const SyntheticWeb& web = WebOf(attr);
    PageCorpus corpus;
    const uint32_t sites =
        std::min<uint32_t>(web.num_hosts(), g_smoke ? 20 : 60);
    for (SiteId s = 0; s < sites; ++s) {
      web.GeneratePages(s, [&](const Page& p, const PageTruth&) {
        corpus.bytes += p.html.size();
        corpus.pages.push_back(p);
      });
    }
    it = cache->emplace(attr, std::move(corpus)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------
// End-to-end pipeline throughput: pages/sec and bytes/sec per attribute
// at 1/2/8 threads. items == pages. The scan runs on the pool, so rates
// are per wall second (UseRealTime); main-thread CPU time would leave
// out every worker's share.

void ScanEndToEnd(benchmark::State& state, bool legacy) {
  const Attribute attr = kAttrs[state.range(0)];
  const SyntheticWeb& web = WebOf(attr);
  ThreadPool& pool = PoolOf(static_cast<int>(state.range(1)));
  const ReviewDetector* detector =
      attr == Attribute::kReviews ? Detector() : nullptr;
  const ScanPipeline pipeline(web, pool, detector);
  uint64_t pages = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto result = legacy ? pipeline.RunLegacy() : pipeline.Run();
    if (!result.ok()) {
      state.SkipWithError("scan failed");
      return;
    }
    pages = result->stats.pages_scanned;
    bytes = result->stats.bytes_scanned;
    benchmark::DoNotOptimize(result->table.num_hosts());
  }
  state.SetItemsProcessed(static_cast<int64_t>(pages) *
                          state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          state.iterations());
  state.SetLabel(std::string(AttributeName(attr)));
}

void BM_ScanKernel(benchmark::State& state) { ScanEndToEnd(state, false); }
BENCHMARK(BM_ScanKernel)
    ->ArgNames({"attr", "threads"})
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2, 8}})
    ->UseRealTime();

// Legacy end-to-end ablation (single-threaded: the per-page cost model
// is what's under test, not the sharding).
void BM_ScanLegacy(benchmark::State& state) { ScanEndToEnd(state, true); }
BENCHMARK(BM_ScanLegacy)
    ->ArgNames({"attr", "threads"})
    ->ArgsProduct({{0, 1, 2, 3}, {1}})
    ->UseRealTime();

// ---------------------------------------------------------------------
// Page-scan ablation on the default phone-scan corpus: the scan kernel
// (reused scratch, view tokenizer, sink extractors) vs. the pre-kernel
// path (token materialization, per-page strings and vectors). Page
// generation is excluded — both sides scan the same pre-rendered pages.

void BM_PageScanKernel(benchmark::State& state) {
  const Attribute attr = Attribute::kPhone;
  const PageCorpus& corpus = PagesOf(attr);
  const EntityMatcher matcher(WebOf(attr).catalog(), attr);
  ScanScratch scratch;
  uint64_t pages = 0;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  const Timer timer;
  for (auto _ : state) {
    for (const Page& page : corpus.pages) {
      scratch.visible_text.clear();
      html::ExtractVisibleTextInto(page.html, &scratch.visible_text);
      hits +=
          matcher.MatchPageInto(scratch.visible_text, &scratch.match).size();
    }
    pages += corpus.pages.size();
    bytes += corpus.bytes;
  }
  benchmark::DoNotOptimize(hits);
  const double seconds = timer.ElapsedSeconds();
  if (seconds > 0.0) {
    MetricsRegistry::Global()
        .GetGauge("wsd.scan.bench.kernel_pages_per_sec")
        .Set(static_cast<double>(pages) / seconds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pages));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PageScanKernel);

void BM_PageScanLegacy(benchmark::State& state) {
  const Attribute attr = Attribute::kPhone;
  const PageCorpus& corpus = PagesOf(attr);
  const EntityMatcher matcher(WebOf(attr).catalog(), attr);
  uint64_t pages = 0;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  MatchScratch scratch;
  const Timer timer;
  for (auto _ : state) {
    for (const Page& page : corpus.pages) {
      const std::string text = html::ExtractVisibleTextLegacy(page.html);
      hits += matcher.MatchPageInto(text, &scratch).size();
    }
    pages += corpus.pages.size();
    bytes += corpus.bytes;
  }
  benchmark::DoNotOptimize(hits);
  const double seconds = timer.ElapsedSeconds();
  if (seconds > 0.0) {
    MetricsRegistry::Global()
        .GetGauge("wsd.scan.bench.legacy_pages_per_sec")
        .Set(static_cast<double>(pages) / seconds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pages));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PageScanLegacy);

// ---------------------------------------------------------------------
// SIMD dispatch ablation. The structural-byte scan benchmark times the
// kernel primitive itself — one pass classifying every byte of the
// corpus into the '<' '&' '>' quote bit planes — pinned to one dispatch
// tier. Every tier produces bit-identical planes (KernelEquivalenceTest)
// so bytes/sec is directly comparable across tiers; the scalar tier is
// the PR 3 byte-at-a-time classification loop. The page-scan variant
// times the full kernel (extract + match) per tier, which shows the
// Amdahl-limited end-to-end effect of the same dispatch.

void StructuralScan(benchmark::State& state, simd::Tier tier) {
  const PageCorpus& corpus = PagesOf(Attribute::kPhone);
  const simd::ScopedTierOverride pinned(tier);
  simd::BitPlane lt, amp, gt, quote;
  uint64_t bytes = 0;
  const Timer timer;
  for (auto _ : state) {
    for (const Page& page : corpus.pages) {
      simd::BuildHtmlPlanes(page.html, &lt, &amp, &gt, &quote);
      benchmark::DoNotOptimize(quote.words());
    }
    bytes += corpus.bytes;
  }
  const double seconds = timer.ElapsedSeconds();
  if (seconds > 0.0) {
    MetricsRegistry::Global()
        .GetGauge(std::string("wsd.scan.bench.simd_") +
                  simd::TierName(tier) + "_bytes_per_sec")
        .Set(static_cast<double>(bytes) / seconds);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(simd::TierName(tier));
}

void PageScanTier(benchmark::State& state, simd::Tier tier) {
  const Attribute attr = Attribute::kPhone;
  const PageCorpus& corpus = PagesOf(attr);
  const EntityMatcher matcher(WebOf(attr).catalog(), attr);
  const simd::ScopedTierOverride pinned(tier);
  ScanScratch scratch;
  uint64_t pages = 0;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  const Timer timer;
  for (auto _ : state) {
    for (const Page& page : corpus.pages) {
      scratch.visible_text.clear();
      html::ExtractVisibleTextInto(page.html, &scratch.visible_text);
      hits +=
          matcher.MatchPageInto(scratch.visible_text, &scratch.match).size();
    }
    pages += corpus.pages.size();
    bytes += corpus.bytes;
  }
  benchmark::DoNotOptimize(hits);
  const double seconds = timer.ElapsedSeconds();
  if (seconds > 0.0) {
    MetricsRegistry::Global()
        .GetGauge(std::string("wsd.scan.bench.simd_page_scan_") +
                  simd::TierName(tier) + "_pages_per_sec")
        .Set(static_cast<double>(pages) / seconds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pages));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(simd::TierName(tier));
}

// Registered at runtime (not BENCHMARK()) so only tiers this CPU
// supports appear in the output.
void RegisterSimdAblation() {
  for (const simd::Tier tier : simd::AvailableTiers()) {
    ::benchmark::RegisterBenchmark(
        (std::string("BM_StructuralScan/") + simd::TierName(tier)).c_str(),
        [tier](benchmark::State& state) { StructuralScan(state, tier); });
    ::benchmark::RegisterBenchmark(
        (std::string("BM_PageScanTier/") + simd::TierName(tier)).c_str(),
        [tier](benchmark::State& state) { PageScanTier(state, tier); });
  }
}

// ---------------------------------------------------------------------
// Snapshot load ablation: v1 varint decode vs. v2 aligned parse vs. the
// zero-copy mmap load, all over the same phone-scan result. items ==
// snapshots; bytes == serialized size per iteration.

const ScanResult& SnapshotResult() {
  static const ScanResult* result = [] {
    const ScanPipeline pipeline(WebOf(Attribute::kPhone), PoolOf(8));
    auto run = pipeline.Run();
    return new ScanResult(std::move(run).value());
  }();
  return *result;
}

SnapshotMeta BenchSnapshotMeta() {
  SnapshotMeta meta;
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kPhone;
  meta.num_entities = g_smoke ? 150 : 2000;
  meta.seed = 99;
  meta.scale_bits = CanonicalScaleBits(1.0);
  return meta;
}

void PublishLoadRate(const char* gauge, uint64_t bytes, double seconds) {
  if (seconds > 0.0) {
    MetricsRegistry::Global().GetGauge(gauge).Set(
        static_cast<double>(bytes) / seconds / (1024.0 * 1024.0));
  }
}

void BM_SnapshotParseV2(benchmark::State& state) {
  const auto bytes =
      SerializeSnapshotAligned(SnapshotResult(), BenchSnapshotMeta());
  uint64_t processed = 0;
  const Timer timer;
  for (auto _ : state) {
    auto parsed = ParseSnapshotFull(*bytes);
    if (!parsed.ok()) {
      state.SkipWithError("v2 parse failed");
      return;
    }
    benchmark::DoNotOptimize(parsed->result.table.num_hosts());
    processed += bytes->size();
  }
  PublishLoadRate("wsd.store.bench.v2_parse_mb_per_sec", processed,
                  timer.ElapsedSeconds());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(processed));
}
BENCHMARK(BM_SnapshotParseV2);

void BM_SnapshotMmapLoad(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_bench_scan.wsdsnap")
          .string();
  const Status written =
      WriteSnapshotFileAligned(path, SnapshotResult(), BenchSnapshotMeta());
  if (!written.ok()) {
    state.SkipWithError("could not write snapshot");
    return;
  }
  const uint64_t file_size = std::filesystem::file_size(path);
  uint64_t processed = 0;
  const Timer timer;
  for (auto _ : state) {
    auto loaded = LoadSnapshotFile(path);
    if (!loaded.ok()) {
      state.SkipWithError("mmap load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded->result.table.num_hosts());
    processed += file_size;
  }
  PublishLoadRate("wsd.store.bench.mmap_load_mb_per_sec", processed,
                  timer.ElapsedSeconds());
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(processed));
}
BENCHMARK(BM_SnapshotMmapLoad);

}  // namespace

// Custom main instead of BENCHMARK_MAIN() so --smoke / --metrics_out
// work: unrecognized flags are left for our handlers instead of being
// rejected.
int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv,
                                                 "bench_micro_scan");
  const wsd::FlagParser flags(argc, argv);
  g_smoke = flags.Has("smoke");
  RegisterSimdAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  auto& registry = wsd::MetricsRegistry::Global();
  const double kernel =
      registry.GetGauge("wsd.scan.bench.kernel_pages_per_sec").value();
  const double legacy =
      registry.GetGauge("wsd.scan.bench.legacy_pages_per_sec").value();
  if (legacy > 0.0) {
    registry.GetGauge("wsd.scan.bench.kernel_speedup").Set(kernel / legacy);
    std::cout << "\nscan kernel ablation: " << kernel / legacy
              << "x pages/sec vs. legacy (phone corpus, 1 thread)\n";
  }
  const double scalar_scan =
      registry.GetGauge("wsd.scan.bench.simd_scalar_bytes_per_sec").value();
  double best_scan = 0.0;
  const char* best_tier = "scalar";
  for (const wsd::simd::Tier tier : wsd::simd::AvailableTiers()) {
    const double rate =
        registry
            .GetGauge(std::string("wsd.scan.bench.simd_") +
                      wsd::simd::TierName(tier) + "_bytes_per_sec")
            .value();
    if (rate > best_scan) {
      best_scan = rate;
      best_tier = wsd::simd::TierName(tier);
    }
  }
  if (scalar_scan > 0.0 && best_scan > 0.0) {
    registry.GetGauge("wsd.scan.bench.simd_speedup")
        .Set(best_scan / scalar_scan);
    std::cout << "simd structural scan ablation: " << best_scan / scalar_scan
              << "x bytes/sec at tier " << best_tier << " vs. scalar\n";
  }
  ::benchmark::Shutdown();
  return 0;
}
