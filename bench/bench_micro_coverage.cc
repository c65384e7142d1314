// Micro-benchmarks for the analysis layer: the O(E+N) k-coverage sweep,
// the lazy-greedy set cover (vs. the naive re-scoring greedy ablation),
// the robustness sweep, and the batched §4 value studies.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <queue>
#include <vector>

#include "core/coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "graph/robustness.h"

namespace {

using namespace wsd;

struct Scanned {
  HostEntityTable table;
  uint32_t num_entities;
};

const Scanned& ScannedTable() {
  static const Scanned* scanned = [] {
    StudyOptions options;
    options.num_entities = 8000;
    options.seed = 77;
    Study study(options);
    auto scan = study.RunScan(Domain::kRestaurants, Attribute::kPhone);
    return new Scanned{std::move(scan->table), options.ScaledEntities()};
  }();
  return *scanned;
}

void BM_KCoverageSweep(benchmark::State& state) {
  const Scanned& s = ScannedTable();
  const auto t_values = DefaultCoverageTValues(
      static_cast<uint32_t>(s.table.num_hosts()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeKCoverage(s.table, s.num_entities, 10, t_values));
  }
  state.counters["edges"] = static_cast<double>(s.table.TotalEdges());
}
BENCHMARK(BM_KCoverageSweep);

void BM_LazyGreedySetCover(benchmark::State& state) {
  const Scanned& s = ScannedTable();
  const auto t_values = DefaultCoverageTValues(
      static_cast<uint32_t>(s.table.num_hosts()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GreedySetCover(s.table, s.num_entities, t_values));
  }
}
BENCHMARK(BM_LazyGreedySetCover);

// Ablation: naive greedy recomputes every site's gain at every step.
void BM_NaiveGreedySetCover(benchmark::State& state) {
  const Scanned& s = ScannedTable();
  const uint32_t max_picks = 200;  // naive is quadratic; cap the steps
  for (auto _ : state) {
    std::vector<bool> covered(s.num_entities, false);
    std::vector<bool> used(s.table.num_hosts(), false);
    uint64_t total = 0;
    for (uint32_t step = 0; step < max_picks; ++step) {
      uint64_t best_gain = 0;
      size_t best_host = SIZE_MAX;
      for (size_t h = 0; h < s.table.num_hosts(); ++h) {
        if (used[h]) continue;
        uint64_t gain = 0;
        for (const EntityPages& ep : s.table.host(h).entities) {
          if (!covered[ep.entity]) ++gain;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_host = h;
        }
      }
      if (best_host == SIZE_MAX) break;
      used[best_host] = true;
      for (const EntityPages& ep : s.table.host(best_host).entities) {
        if (!covered[ep.entity]) {
          covered[ep.entity] = true;
          ++total;
        }
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_NaiveGreedySetCover)->Iterations(1);

void BM_RobustnessSweep(benchmark::State& state) {
  const Scanned& s = ScannedTable();
  const BipartiteGraph graph =
      BipartiteGraph::FromHostTable(s.table, s.num_entities);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RobustnessSweep(graph, 10));
  }
}
BENCHMARK(BM_RobustnessSweep);

// The three value studies as one RunValueStudies batch (one pool task per
// (site, channel)) at small scale: range(0) = threads. Wall time, since
// the main thread mostly waits on the pool.
void BM_ValueStudies(benchmark::State& state) {
  StudyOptions options;
  options.scale = 0.02;
  options.seed = 77;
  options.threads = static_cast<uint32_t>(state.range(0));
  Study study(options);
  const std::vector<TrafficSite> sites = {
      TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb};
  uint64_t events = 0;
  for (auto _ : state) {
    auto results = study.RunValueStudies(sites);
    if (!results.ok()) {
      state.SkipWithError("value study failed");
      break;
    }
    events = 0;
    for (const auto& result : *results) {
      events += result.demand.events_consumed;
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ValueStudies)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN() so --metrics_out works:
// unrecognized flags are left for the MetricsExport handler instead
// of being rejected.
int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv,
                                                 "bench_micro_coverage");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
