// Ablation bench: exact diameter via iFUB vs. the all-pairs BFS
// reference (inline and on a pool at growing thread counts, 64 sources
// per multi-source BFS chunk),
// union-find component analysis throughput, and the incremental
// reverse-deletion robustness sweep vs. the per-k rebuild reference, on
// entity-site graphs of growing size.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/study.h"
#include "extract/host_table.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "graph/robustness.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace wsd;

// Builds a scanned host table once per size and caches the graph.
const BipartiteGraph& GraphOfSize(int64_t entities) {
  static std::map<int64_t, std::unique_ptr<BipartiteGraph>>* cache =
      new std::map<int64_t, std::unique_ptr<BipartiteGraph>>;
  auto it = cache->find(entities);
  if (it != cache->end()) return *it->second;

  StudyOptions options;
  options.num_entities = static_cast<uint32_t>(entities);
  options.scale = 1.0;
  options.seed = 1234;
  Study study(options);
  // Scale sites with entities to keep density realistic.
  auto scan = study.RunScan(Domain::kRestaurants, Attribute::kPhone);
  auto graph = std::make_unique<BipartiteGraph>(BipartiteGraph::FromHostTable(
      scan->table, options.ScaledEntities()));
  const BipartiteGraph& ref = *graph;
  cache->emplace(entities, std::move(graph));
  return ref;
}

// Sparse low-degree bipartite graph (every entity on exactly two random
// sites). Expander-like: eccentricities are nearly uniform, so iFUB has
// to sweep wide fringe levels with many eccentricities — the workload the
// 64-lane chunks and their pool rounds target. Hub-dominated graphs
// (above) converge in a handful of runs and leave little to parallelize.
const BipartiteGraph& SparseGraphOfSize(int64_t entities) {
  static std::map<int64_t, std::unique_ptr<BipartiteGraph>>* cache =
      new std::map<int64_t, std::unique_ptr<BipartiteGraph>>;
  auto it = cache->find(entities);
  if (it != cache->end()) return *it->second;

  const uint32_t n = static_cast<uint32_t>(entities);
  Rng rng(99);
  std::vector<HostRecord> hosts(n);
  for (uint32_t s = 0; s < n; ++s) {
    hosts[s].host = "site" + std::to_string(s) + ".com";
  }
  for (uint32_t e = 0; e < n; ++e) {
    const uint32_t a = static_cast<uint32_t>(rng.Index(n));
    uint32_t b = static_cast<uint32_t>(rng.Index(n));
    if (b == a) b = (b + 1) % n;
    hosts[a].entities.push_back({e, 1});
    hosts[b].entities.push_back({e, 1});
  }
  for (auto& rec : hosts) {
    std::sort(rec.entities.begin(), rec.entities.end(),
              [](const EntityPages& x, const EntityPages& y) {
                return x.entity < y.entity;
              });
  }
  auto graph = std::make_unique<BipartiteGraph>(BipartiteGraph::FromHostTable(
      HostEntityTable(std::move(hosts)), n));
  const BipartiteGraph& ref = *graph;
  cache->emplace(entities, std::move(graph));
  return ref;
}

// One shared pool per thread count, reused across iterations so pool
// startup is not measured.
ThreadPool& PoolOf(int64_t threads) {
  static std::map<int64_t, std::unique_ptr<ThreadPool>>* pools =
      new std::map<int64_t, std::unique_ptr<ThreadPool>>;
  auto it = pools->find(threads);
  if (it == pools->end()) {
    it = pools
             ->emplace(threads, std::make_unique<ThreadPool>(
                                    static_cast<size_t>(threads)))
             .first;
  }
  return *it->second;
}

void BM_DiameterIFUB(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  uint32_t bfs_runs = 0;
  for (auto _ : state) {
    const DiameterResult r = ExactDiameter(graph);
    bfs_runs = r.bfs_runs;
    benchmark::DoNotOptimize(r.diameter);
  }
  state.counters["bfs_runs"] = bfs_runs;
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_DiameterIFUB)->Arg(1000)->Arg(4000)->Arg(16000);

// iFUB with its eccentricity chunks on a pool: range(0) = entities,
// range(1) = threads. Wall time: the main thread mostly blocks in
// pool.Wait(), so its CPU time would hide the work.
void BM_DiameterIFUBParallel(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  ThreadPool& pool = PoolOf(state.range(1));
  uint32_t bfs_runs = 0;
  for (auto _ : state) {
    const DiameterResult r = ExactDiameter(graph, 20000, &pool);
    bfs_runs = r.bfs_runs;
    benchmark::DoNotOptimize(r.diameter);
  }
  state.counters["bfs_runs"] = bfs_runs;
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_DiameterIFUBParallel)
    ->ArgsProduct({{16000}, {1, 2, 4, 8}})
    ->UseRealTime();

// Same, on the sparse expander-like graph where the eccentricity loop
// dominates.
void BM_DiameterIFUBParallelSparse(benchmark::State& state) {
  const BipartiteGraph& graph = SparseGraphOfSize(state.range(0));
  ThreadPool& pool = PoolOf(state.range(1));
  uint32_t bfs_runs = 0;
  for (auto _ : state) {
    const DiameterResult r = ExactDiameter(graph, 20000, &pool);
    bfs_runs = r.bfs_runs;
    benchmark::DoNotOptimize(r.diameter);
  }
  state.counters["bfs_runs"] = bfs_runs;
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_DiameterIFUBParallelSparse)
    ->ArgsProduct({{16000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DiameterAllPairs(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  uint32_t bfs_runs = 0;
  for (auto _ : state) {
    const DiameterResult r = AllPairsDiameter(graph);
    bfs_runs = r.bfs_runs;
    benchmark::DoNotOptimize(r.diameter);
  }
  state.counters["bfs_runs"] = bfs_runs;
}
// All-pairs is O(V*E); keep it to the small size.
BENCHMARK(BM_DiameterAllPairs)->Arg(1000)->Iterations(1);

void BM_Components(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeComponents(graph));
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_Components)->Arg(4000)->Arg(16000);

// Sharded union-find: range(0) = entities, range(1) = threads. Wall
// time, as for the pooled diameter benches.
void BM_ComponentsParallel(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  ThreadPool& pool = PoolOf(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeComponents(graph, &pool));
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ComponentsParallel)
    ->ArgsProduct({{16000}, {1, 2, 4, 8}})
    ->UseRealTime();

// The Fig 9 sweep at its default config (k = 0..10): incremental
// reverse-deletion (one O(E·α) pass) ...
void BM_RobustnessIncremental(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RobustnessSweep(graph, 10));
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_RobustnessIncremental)->Arg(1000)->Arg(4000)->Arg(16000);

// ... vs. the per-k union-find rebuild it replaced, O(k·E).
void BM_RobustnessNaive(benchmark::State& state) {
  const BipartiteGraph& graph = GraphOfSize(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RobustnessSweepNaive(graph, 10));
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_RobustnessNaive)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace

// Custom main instead of BENCHMARK_MAIN() so --metrics_out works:
// unrecognized flags are left for the MetricsExport handler instead
// of being rejected.
int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv,
                                                 "bench_micro_graph");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
