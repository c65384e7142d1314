#include "graph/diameter.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"

namespace wsd {

namespace {

constexpr uint32_t kUnvisited = UINT32_MAX;

// Reusable BFS workspace to avoid re-allocating per run.
struct BfsScratch {
  std::vector<uint32_t> dist;
  std::vector<uint32_t> queue;
};

// Multi-source BFS workspace: bit `lane` of a node's word belongs to
// source `lane` of the current chunk.
struct LaneScratch {
  std::vector<uint64_t> seen;   // lanes that have reached the node
  std::vector<uint64_t> visit;  // lanes with the node in this frontier
  std::vector<uint64_t> next;   // lanes reaching the node next level
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next_frontier;
};

template <typename Fn>
void ForEachNeighbor(const BipartiteGraph& g, uint32_t node, Fn&& fn) {
  const uint32_t n_ent = g.num_entities();
  if (node < n_ent) {
    for (uint32_t s : g.SitesOf(node)) fn(n_ent + s);
  } else {
    for (uint32_t e : g.EntitiesOf(node - n_ent)) fn(e);
  }
}

// Full BFS from `source`; returns (eccentricity, farthest node).
std::pair<uint32_t, uint32_t> Bfs(const BipartiteGraph& g, uint32_t source,
                                  BfsScratch& scratch) {
  scratch.dist.assign(g.num_nodes(), kUnvisited);
  scratch.queue.clear();
  scratch.queue.push_back(source);
  scratch.dist[source] = 0;
  uint32_t farthest = source;
  uint32_t ecc = 0;
  for (size_t head = 0; head < scratch.queue.size(); ++head) {
    const uint32_t u = scratch.queue[head];
    const uint32_t du = scratch.dist[u];
    if (du > ecc) {
      ecc = du;
      farthest = u;
    }
    ForEachNeighbor(g, u, [&](uint32_t v) {
      if (scratch.dist[v] == kUnvisited) {
        scratch.dist[v] = du + 1;
        scratch.queue.push_back(v);
      }
    });
  }
  return {ecc, farthest};
}

// Highest-degree node of the largest component (a good sweep start).
uint32_t PickStart(const BipartiteGraph& g, const ComponentLabels& labels) {
  uint32_t best = kUnvisited;
  uint64_t best_degree = 0;
  for (uint32_t node = 0; node < g.num_nodes(); ++node) {
    if (labels.label[node] != labels.largest_label) continue;
    const uint64_t degree = node < g.num_entities()
                                ? g.EntityDegree(node)
                                : g.SiteDegree(node - g.num_entities());
    if (best == kUnvisited || degree > best_degree) {
      best = node;
      best_degree = degree;
    }
  }
  return best;
}

// Eccentricities of up to kEccentricityLanes sources in one
// multi-source BFS: every frontier node is expanded once per level for
// all lanes that hold it. Only the frontier lists are walked, so a level
// costs O(edges of its frontier), never a scan of V. `ecc[lane]` is the
// last level at which that lane reached a new node.
void LaneEccentricities(const BipartiteGraph& g,
                        std::span<const uint32_t> sources, uint32_t* ecc) {
  WSD_CHECK(sources.size() <= kEccentricityLanes);
  // thread_local so pool workers keep warm buffers across chunks.
  // `visit` and `next` are all-zero between calls: every bit set below
  // is cleared before returning.
  static thread_local LaneScratch s;
  s.seen.assign(g.num_nodes(), 0);
  s.visit.resize(g.num_nodes());
  s.next.resize(g.num_nodes());
  s.frontier.clear();
  for (size_t lane = 0; lane < sources.size(); ++lane) {
    const uint32_t src = sources[lane];
    if (s.visit[src] == 0) s.frontier.push_back(src);
    s.visit[src] |= uint64_t{1} << lane;
    s.seen[src] |= uint64_t{1} << lane;
    ecc[lane] = 0;
  }
  for (uint32_t level = 1; !s.frontier.empty(); ++level) {
    s.next_frontier.clear();
    for (uint32_t u : s.frontier) {
      const uint64_t lanes = s.visit[u];
      ForEachNeighbor(g, u, [&](uint32_t v) {
        const uint64_t fresh = lanes & ~s.seen[v];
        if (fresh == 0) return;
        if (s.next[v] == 0) s.next_frontier.push_back(v);
        s.next[v] |= fresh;
      });
    }
    for (uint32_t u : s.frontier) s.visit[u] = 0;
    uint64_t reached = 0;
    for (uint32_t v : s.next_frontier) {
      s.seen[v] |= s.next[v];
      s.visit[v] = s.next[v];
      reached |= s.next[v];
      s.next[v] = 0;
    }
    for (; reached != 0; reached &= reached - 1) {
      ecc[std::countr_zero(reached)] = level;
    }
    s.frontier.swap(s.next_frontier);
  }
}

}  // namespace

uint32_t Eccentricity(const BipartiteGraph& graph, uint32_t node) {
  // thread_local so repeated calls (bootstrap trials, tests) reuse the
  // buffers instead of reallocating two vectors per call.
  static thread_local BfsScratch scratch;
  return Bfs(graph, node, scratch).first;
}

std::vector<uint32_t> Eccentricities(const BipartiteGraph& graph,
                                     std::span<const uint32_t> sources,
                                     ThreadPool* pool) {
  static Counter& chunks =
      MetricsRegistry::Global().GetCounter("wsd.graph.bfs_batches");
  std::vector<uint32_t> ecc(sources.size());
  const size_t num_chunks =
      (sources.size() + kEccentricityLanes - 1) / kEccentricityLanes;
  // Each chunk writes only its own slice of `ecc`.
  const auto run_chunk = [&graph, sources, &ecc](size_t c) {
    const size_t lo = c * kEccentricityLanes;
    LaneEccentricities(
        graph,
        sources.subspan(lo, std::min(kEccentricityLanes, sources.size() - lo)),
        ecc.data() + lo);
  };
  if (pool == nullptr) {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) {
      pool->Submit([&run_chunk, c] { run_chunk(c); });
    }
    pool->Wait();
  }
  chunks.Increment(num_chunks);
  return ecc;
}

namespace {

DiameterResult ExactDiameterImpl(const BipartiteGraph& graph,
                                 uint32_t max_bfs, ThreadPool* pool) {
  DiameterResult result;
  const ComponentLabels labels = LabelComponents(graph, pool);
  if (labels.largest_label == ComponentLabels::kNoComponent) {
    return result;  // empty graph
  }
  for (uint32_t label : labels.label) {
    if (label == labels.largest_label) ++result.component_nodes;
  }

  BfsScratch scratch;
  const uint32_t start = PickStart(graph, labels);
  WSD_CHECK(start != kUnvisited);

  // Double sweep: lb = ecc(a) where a is the far end of the first sweep.
  auto [d0, a] = Bfs(graph, start, scratch);
  (void)d0;
  auto [lb, b] = Bfs(graph, a, scratch);
  result.bfs_runs = 2;

  // Midpoint of the a-b path as iFUB root: re-run BFS from b with parents
  // implied by distance arrays. We already have dist-from-a in scratch
  // only for the second sweep... recompute from b and walk to the middle.
  std::vector<uint32_t> dist_a = scratch.dist;  // distances from a
  auto [ecc_b, c] = Bfs(graph, b, scratch);
  (void)ecc_b;
  (void)c;
  ++result.bfs_runs;
  // Node on the a-b shortest path at distance ~lb/2 from b: any node v
  // with dist_a[v] + dist_b[v] == lb and dist_b[v] == lb/2.
  uint32_t root = b;
  const uint32_t half = lb / 2;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (scratch.dist[v] == half && dist_a[v] != kUnvisited &&
        dist_a[v] + scratch.dist[v] == lb) {
      root = v;
      break;
    }
  }

  // BFS tree from the root; collect level sets.
  auto [depth, far_r] = Bfs(graph, root, scratch);
  (void)far_r;
  ++result.bfs_runs;
  uint32_t lower = std::max(lb, depth);
  uint32_t upper = 2 * depth;
  if (lower == upper) {
    result.diameter = lower;
    return result;
  }

  std::vector<std::vector<uint32_t>> levels(depth + 1);
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (scratch.dist[v] != kUnvisited) levels[scratch.dist[v]].push_back(v);
  }
  // Within a level, try high-degree nodes first: they raise the lower
  // bound faster and trigger the early exit sooner.
  for (auto& level : levels) {
    std::sort(level.begin(), level.end(), [&](uint32_t x, uint32_t y) {
      const uint64_t dx = x < graph.num_entities()
                              ? graph.EntityDegree(x)
                              : graph.SiteDegree(x - graph.num_entities());
      const uint64_t dy = y < graph.num_entities()
                              ? graph.EntityDegree(y)
                              : graph.SiteDegree(y - graph.num_entities());
      return dx > dy;
    });
  }

  // Eccentricity loop: each fringe level is evaluated in rounds of one
  // kEccentricityLanes-source chunk per worker. Rounds walk the level in
  // order and `lower` is folded as a max, so the returned diameter is
  // identical at any thread count (eccentricities never exceed `upper`,
  // hence a full round can only reach the same lower == upper fixpoint a
  // one-at-a-time loop exits on). Only bfs_runs may differ: a round is
  // not cut short mid-way.
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  if (pool != nullptr) {
    MetricsRegistry::Global()
        .GetGauge("wsd.graph.threads")
        .Set(static_cast<double>(workers));
  }
  for (uint32_t i = depth; i >= 1 && lower < upper; --i) {
    // Process all of level i; only lower == upper is a safe early exit
    // inside the level (other level-i nodes may reach ecc up to 2*i).
    const std::span<const uint32_t> level = levels[i];
    for (size_t pos = 0; pos < level.size() && lower < upper;) {
      if (result.bfs_runs >= max_bfs) {
        result.diameter = lower;
        result.exact = false;
        return result;
      }
      const size_t width =
          std::min({kEccentricityLanes * workers, level.size() - pos,
                    static_cast<size_t>(max_bfs - result.bfs_runs)});
      for (uint32_t ecc :
           Eccentricities(graph, level.subspan(pos, width), pool)) {
        lower = std::max(lower, ecc);
      }
      result.bfs_runs += static_cast<uint32_t>(width);
      pos += width;
    }
    // iFUB invariant: every node at level < i has eccentricity
    // <= 2*(i-1), so once the lower bound reaches that, deeper levels
    // cannot improve it.
    if (lower >= 2 * (i - 1)) break;
    upper = std::min(upper, 2 * (i - 1));
  }
  result.diameter = lower;
  return result;
}

}  // namespace

DiameterResult ExactDiameter(const BipartiteGraph& graph, uint32_t max_bfs,
                             ThreadPool* pool) {
  const ScopedTimer phase_timer(
      MetricsRegistry::Global().GetHistogram("wsd.graph.diameter_seconds"));
  const DiameterResult result = ExactDiameterImpl(graph, max_bfs, pool);
  MetricsRegistry::Global()
      .GetCounter("wsd.graph.bfs_runs")
      .Increment(result.bfs_runs);
  return result;
}

DiameterResult AllPairsDiameter(const BipartiteGraph& graph) {
  DiameterResult result;
  const ComponentLabels labels = LabelComponents(graph);
  if (labels.largest_label == ComponentLabels::kNoComponent) return result;
  BfsScratch scratch;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (labels.label[v] != labels.largest_label) continue;
    ++result.component_nodes;
    const uint32_t ecc = Bfs(graph, v, scratch).first;
    ++result.bfs_runs;
    result.diameter = std::max(result.diameter, ecc);
  }
  return result;
}

}  // namespace wsd
