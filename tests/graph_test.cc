#include <gtest/gtest.h>

#include "graph/bipartite.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "graph/robustness.h"
#include "graph/union_find.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wsd {
namespace {

// Builds a host table from explicit (host, {entities}) pairs.
HostEntityTable MakeTable(
    const std::vector<std::vector<EntityId>>& site_entities) {
  std::vector<HostRecord> hosts;
  for (size_t s = 0; s < site_entities.size(); ++s) {
    HostRecord rec;
    rec.host = "site" + std::to_string(s) + ".com";
    for (EntityId e : site_entities[s]) rec.entities.push_back({e, 1});
    std::sort(rec.entities.begin(), rec.entities.end(),
              [](const EntityPages& a, const EntityPages& b) {
                return a.entity < b.entity;
              });
    hosts.push_back(std::move(rec));
  }
  return HostEntityTable(std::move(hosts));
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_NE(uf.Find(0), uf.Find(2));
  EXPECT_EQ(uf.SizeOf(0), 2u);
  uf.Union(0, 2);
  EXPECT_EQ(uf.SizeOf(3), 4u);
  EXPECT_EQ(uf.num_sets(), 2u);
}

TEST(BipartiteGraphTest, CsrBothDirectionsConsistent) {
  // sites: 0={0,1}, 1={1,2}, 2={3}
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  EXPECT_EQ(graph.num_entities(), 5u);
  EXPECT_EQ(graph.num_sites(), 3u);
  EXPECT_EQ(graph.num_edges(), 5u);
  EXPECT_EQ(graph.num_covered_entities(), 4u);  // entity 4 uncovered

  EXPECT_EQ(graph.EntityDegree(1), 2u);
  EXPECT_EQ(graph.EntityDegree(4), 0u);
  EXPECT_EQ(graph.SiteDegree(0), 2u);
  auto sites_of_1 = graph.SitesOf(1);
  EXPECT_EQ(std::set<uint32_t>(sites_of_1.begin(), sites_of_1.end()),
            (std::set<uint32_t>{0, 1}));
  auto entities_of_1 = graph.EntitiesOf(1);
  EXPECT_EQ(std::set<uint32_t>(entities_of_1.begin(), entities_of_1.end()),
            (std::set<uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(graph.AvgSitesPerEntity(), 5.0 / 4.0);
}

TEST(ComponentsTest, CountsAndLargest) {
  // Component A: sites 0,1 entities 0,1,2. Component B: site 2, entity 3.
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  const auto summary = AnalyzeComponents(graph);
  EXPECT_EQ(summary.num_components, 2u);
  EXPECT_EQ(summary.largest_component_entities, 3u);
  EXPECT_EQ(summary.largest_component_sites, 2u);
  EXPECT_DOUBLE_EQ(summary.largest_component_entity_fraction, 3.0 / 4.0);
}

TEST(ComponentsTest, LabelsMatchSummary) {
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}, {}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  const auto labels = LabelComponents(graph);
  EXPECT_EQ(labels.num_components, 2u);
  // Zero-degree entity 4 and empty site 3 are unlabeled.
  EXPECT_EQ(labels.label[4], ComponentLabels::kNoComponent);
  EXPECT_EQ(labels.label[graph.num_entities() + 3],
            ComponentLabels::kNoComponent);
  // Entities 0,1,2 share the largest label.
  EXPECT_EQ(labels.label[0], labels.largest_label);
  EXPECT_EQ(labels.label[1], labels.largest_label);
  EXPECT_EQ(labels.label[2], labels.largest_label);
  EXPECT_NE(labels.label[3], labels.largest_label);
}

TEST(DiameterTest, PathGraphExact) {
  // entity0 - site0 - entity1 - site1 - entity2: diameter 4.
  const auto table = MakeTable({{0, 1}, {1, 2}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  EXPECT_EQ(ExactDiameter(graph).diameter, 4u);
  EXPECT_EQ(AllPairsDiameter(graph).diameter, 4u);
}

TEST(DiameterTest, StarGraphIsTwo) {
  const auto table = MakeTable({{0, 1, 2, 3, 4}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  EXPECT_EQ(ExactDiameter(graph).diameter, 2u);
}

TEST(DiameterTest, UsesLargestComponentOnly) {
  // Giant: path of length 4; separate pocket: single site/entity.
  const auto table = MakeTable({{0, 1}, {1, 2}, {9}});
  const auto graph = BipartiteGraph::FromHostTable(table, 10);
  const auto result = ExactDiameter(graph);
  EXPECT_EQ(result.diameter, 4u);
  EXPECT_EQ(result.component_nodes, 5u);
}

TEST(DiameterTest, EccentricityOnPath) {
  const auto table = MakeTable({{0, 1}, {1, 2}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  EXPECT_EQ(Eccentricity(graph, 0), 4u);   // end entity
  EXPECT_EQ(Eccentricity(graph, 1), 2u);   // middle entity
}

// Property: iFUB agrees with all-pairs BFS on random graphs.
class DiameterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiameterPropertyTest, IfubMatchesAllPairs) {
  Rng rng(GetParam());
  const uint32_t sites = 20 + rng.Index(30);
  const uint32_t entities = 30 + rng.Index(50);
  std::vector<std::vector<EntityId>> table(sites);
  // Sparse random bipartite graph (possibly disconnected).
  const uint32_t edges = entities + rng.Index(entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table),
                                                   entities);
  const auto fast = ExactDiameter(graph);
  const auto slow = AllPairsDiameter(graph);
  EXPECT_EQ(fast.diameter, slow.diameter) << "seed " << GetParam();
  EXPECT_TRUE(fast.exact);
  EXPECT_LE(fast.bfs_runs, slow.bfs_runs);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DiameterPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(RobustnessTest, RemovingTheOnlyHubDisconnects) {
  // Hub site covers everything; satellites cover one entity each.
  const auto table = MakeTable({{0, 1, 2, 3}, {0}, {1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 4);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].largest_component_entity_fraction, 1.0);
  // After removing the hub: entities 0 and 1 survive on their satellites
  // (two singleton components); 2 and 3 are orphaned.
  EXPECT_DOUBLE_EQ(sweep[1].largest_component_entity_fraction, 0.25);
}

TEST(RobustnessTest, SweepIsMonotoneNonIncreasingOnRealisticGraphs) {
  Rng rng(5);
  // Random graph with a strong head: site s covers entities with
  // probability ~ 1/(s+1).
  const uint32_t sites = 40, entities = 200;
  std::vector<std::vector<EntityId>> table(sites);
  for (uint32_t s = 0; s < sites; ++s) {
    for (uint32_t e = 0; e < entities; ++e) {
      if (rng.Bernoulli(1.0 / (s + 2.0))) table[s].push_back(e);
    }
  }
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table),
                                                   entities);
  const auto sweep = RobustnessSweep(graph, 10);
  ASSERT_EQ(sweep.size(), 11u);
  for (size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_LE(sweep[k].largest_component_entity_fraction,
              sweep[k - 1].largest_component_entity_fraction + 1e-12);
  }
}

// Regression for the component-accounting bug: surviving sites that end
// up with no counted entity neighbors (zero-degree sites) must count as
// singleton components instead of silently vanishing.
TEST(RobustnessTest, CountsSurvivingSingletonSiteComponents) {
  // site0 covers e0,e1; site1 matched nothing (zero-degree).
  const auto table = MakeTable({{0, 1}, {}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  // k=0: {e0, e1, s0} plus the singleton {s1}.
  EXPECT_EQ(sweep[0].num_components, 2u);
  EXPECT_DOUBLE_EQ(sweep[0].largest_component_entity_fraction, 1.0);
  // k=1 (s0 removed): e0 and e1 are isolated singletons, plus {s1}.
  EXPECT_EQ(sweep[1].num_components, 3u);
  EXPECT_DOUBLE_EQ(sweep[1].largest_component_entity_fraction, 0.5);
}

TEST(RobustnessTest, HubComponentCountsMatchHandComputation) {
  // Hub site covers everything; satellites cover one entity each.
  const auto table = MakeTable({{0, 1, 2, 3}, {0}, {1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 4);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].num_components, 1u);
  // After removing the hub: {e0,s1}, {e1,s2}, {e2}, {e3}.
  EXPECT_EQ(sweep[1].num_components, 4u);
}

// Property: the incremental reverse-deletion sweep matches the naive
// per-k recompute exactly, on random graphs that include empty sites
// and uncovered entities.
class RobustnessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RobustnessPropertyTest, IncrementalMatchesNaive) {
  Rng rng(GetParam());
  const uint32_t sites = 5 + rng.Index(40);
  const uint32_t entities = 10 + rng.Index(80);
  std::vector<std::vector<EntityId>> table(sites);
  const uint32_t edges = rng.Index(3 * entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  const auto graph =
      BipartiteGraph::FromHostTable(MakeTable(table), entities);
  const uint32_t max_removed = rng.Index(sites + 3);
  const auto fast = RobustnessSweep(graph, max_removed);
  const auto naive = RobustnessSweepNaive(graph, max_removed);
  ASSERT_EQ(fast.size(), naive.size()) << "seed " << GetParam();
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].removed_sites, naive[i].removed_sites);
    EXPECT_EQ(fast[i].num_components, naive[i].num_components)
        << "seed " << GetParam() << " k=" << i;
    EXPECT_DOUBLE_EQ(fast[i].largest_component_entity_fraction,
                     naive[i].largest_component_entity_fraction)
        << "seed " << GetParam() << " k=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RobustnessPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

// Builds the random graph used by the serial-vs-parallel equivalence
// tests below.
BipartiteGraph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  const uint32_t sites = 20 + rng.Index(30);
  const uint32_t entities = 30 + rng.Index(50);
  std::vector<std::vector<EntityId>> table(sites);
  const uint32_t edges = entities + rng.Index(2 * entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return BipartiteGraph::FromHostTable(MakeTable(table), entities);
}

// Parallel component labeling must be bit-identical to the serial path
// at every thread count.
TEST(ComponentsTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    const auto serial_summary = AnalyzeComponents(graph);
    const auto serial_labels = LabelComponents(graph);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto summary = AnalyzeComponents(graph, &pool);
      EXPECT_EQ(summary.num_components, serial_summary.num_components)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(summary.largest_component_entities,
                serial_summary.largest_component_entities);
      EXPECT_EQ(summary.largest_component_sites,
                serial_summary.largest_component_sites);
      EXPECT_DOUBLE_EQ(summary.largest_component_entity_fraction,
                       serial_summary.largest_component_entity_fraction);
      const auto labels = LabelComponents(graph, &pool);
      EXPECT_EQ(labels.num_components, serial_labels.num_components);
      EXPECT_EQ(labels.largest_label, serial_labels.largest_label);
      EXPECT_EQ(labels.label, serial_labels.label)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// iFUB on a pool must report the same diameter, exactness and
// component size as without a pool, at every thread count.
TEST(DiameterTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    const auto serial = ExactDiameter(graph);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto parallel = ExactDiameter(graph, 20000, &pool);
      EXPECT_EQ(parallel.diameter, serial.diameter)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.exact, serial.exact);
      EXPECT_EQ(parallel.component_nodes, serial.component_nodes);
    }
  }
}

// Ring of 2 * m groups of k nodes, alternating entity and site groups,
// with every site linked to all entities of both neighbouring groups.
// Vertex-transitive: from any node, BFS level j < m holds the groups at
// ring distance j (2k nodes; 3k - 1 at level 2, which adds the node's
// own group) and level m the antipodal group (k nodes). Every
// eccentricity is m.
BipartiteGraph RingOfGroups(uint32_t m, uint32_t k) {
  std::vector<std::vector<EntityId>> table(m * k);
  for (uint32_t g = 0; g < m; ++g) {
    for (uint32_t site = 0; site < k; ++site) {
      for (uint32_t e = 0; e < k; ++e) {
        table[g * k + site].push_back(g * k + e);
        table[g * k + site].push_back(((g + 1) % m) * k + e);
      }
    }
  }
  for (auto& v : table) std::sort(v.begin(), v.end());
  return BipartiteGraph::FromHostTable(MakeTable(table), m * k);
}

// The multi-source kernel must equal scalar Eccentricity() per source,
// inline and on pools.
void ExpectEccentricitiesMatchOracle(const BipartiteGraph& graph,
                                     const std::vector<uint32_t>& sources) {
  std::vector<uint32_t> expected;
  for (uint32_t s : sources) expected.push_back(Eccentricity(graph, s));
  EXPECT_EQ(Eccentricities(graph, sources), expected);
  for (size_t threads : {1, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(Eccentricities(graph, sources, &pool), expected)
        << "threads " << threads;
  }
}

// Every node of random (often disconnected) graphs, as one call over all
// nodes and as windows of 1, 63, 64 and 65 sources that cover every
// node at each width.
TEST(EccentricitiesTest, MatchesScalarOnEveryNode) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto graph = RandomGraph(seed);
    const uint32_t n = graph.num_nodes();
    std::vector<uint32_t> all(n);
    for (uint32_t v = 0; v < n; ++v) all[v] = v;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectEccentricitiesMatchOracle(graph, all);
    for (uint32_t width : {1u, 63u, 64u, 65u}) {
      SCOPED_TRACE("width " + std::to_string(width));
      for (uint32_t lo = 0; lo < n; lo += width) {
        std::vector<uint32_t> window(width);
        for (uint32_t i = 0; i < width; ++i) window[i] = (lo + i) % n;
        ExpectEccentricitiesMatchOracle(graph, window);
      }
    }
  }
}

// One chunk mixing sources from a 161-node path (eccentricities up to
// 160 levels, far past the 64 lanes), a 140-node cycle (eccentricity
// 70), a star and an isolated entity, plus a repeated source.
TEST(EccentricitiesTest, MixesComponentsAndDeepLevels) {
  std::vector<std::vector<EntityId>> table;
  // Path: entities 0..80 joined by sites 0..79.
  for (EntityId e = 0; e < 80; ++e) table.push_back({e, e + 1});
  // Cycle: entities 81..150 joined by 70 sites.
  const EntityId c0 = 81;
  for (EntityId e = c0; e < c0 + 69; ++e) table.push_back({e, e + 1});
  table.push_back({c0, c0 + 69});
  // Star; entities 151..199 and 204 stay isolated.
  table.push_back({200, 201, 202, 203});
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table), 205);
  EXPECT_EQ(Eccentricity(graph, 0), 160u);
  EXPECT_EQ(Eccentricity(graph, c0), 70u);

  const auto labels = LabelComponents(graph);
  std::vector<uint32_t> sources;
  for (uint32_t v = 0; v < graph.num_nodes(); v += 7) sources.push_back(v);
  sources.push_back(sources.front());
  std::set<uint32_t> first_chunk_labels;
  for (size_t i = 0; i < std::min(sources.size(), kEccentricityLanes); ++i) {
    first_chunk_labels.insert(labels.label[sources[i]]);
  }
  ASSERT_GE(first_chunk_labels.size(), 4u);  // 3 components + unlabeled
  ExpectEccentricitiesMatchOracle(graph, sources);

  EXPECT_EQ(ExactDiameter(graph).diameter, 160u);
  EXPECT_EQ(AllPairsDiameter(graph).diameter, 160u);
}

// iFUB on a graph whose evaluated fringe levels hold more than 64 and
// more than 256 nodes, so a level splits into several chunks and, at 1,
// 2 and 4 workers, several rounds. On RingOfGroups(3, 100) the double
// sweep gives lower = 3 and the root gives upper = 6; iFUB evaluates
// level 3 (100 nodes, 2 chunks), lowers upper to 4, then evaluates level
// 2 (299 nodes, 5 chunks) and stops: lower >= 2 * (2 - 1). No round can
// end early (lower never reaches upper), so every thread count
// evaluates the same 399 eccentricities.
TEST(DiameterTest, WideLevelsMatchAllPairsAtEveryThreadCount) {
  Counter& chunks =
      MetricsRegistry::Global().GetCounter("wsd.graph.bfs_batches");
  const auto graph = RingOfGroups(3, 100);
  const auto slow = AllPairsDiameter(graph);
  EXPECT_EQ(slow.diameter, 3u);
  const uint64_t chunks_before = chunks.value();
  const auto serial = ExactDiameter(graph);
  EXPECT_EQ(chunks.value() - chunks_before, 2u + 5u);
  EXPECT_EQ(serial.bfs_runs, 4u + 100u + 299u);
  EXPECT_EQ(serial.diameter, slow.diameter);
  EXPECT_TRUE(serial.exact);
  for (size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const auto parallel = ExactDiameter(graph, 20000, &pool);
    EXPECT_EQ(parallel.diameter, slow.diameter) << "threads " << threads;
    EXPECT_EQ(parallel.bfs_runs, serial.bfs_runs) << "threads " << threads;
    EXPECT_TRUE(parallel.exact);
    EXPECT_EQ(parallel.component_nodes, slow.component_nodes);
  }
}

// The parallel base-state build of the robustness sweep must emit the
// same curve as the serial path at every thread count.
TEST(RobustnessTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    for (uint32_t max_removed : {0u, 3u, 10u}) {
      const auto serial = RobustnessSweep(graph, max_removed);
      for (size_t threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const auto parallel = RobustnessSweep(graph, max_removed, &pool);
        ASSERT_EQ(parallel.size(), serial.size())
            << "seed " << seed << " threads " << threads;
        for (size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(parallel[i].removed_sites, serial[i].removed_sites);
          EXPECT_EQ(parallel[i].num_components, serial[i].num_components)
              << "seed " << seed << " threads " << threads << " k=" << i;
          EXPECT_DOUBLE_EQ(parallel[i].largest_component_entity_fraction,
                           serial[i].largest_component_entity_fraction)
              << "seed " << seed << " threads " << threads << " k=" << i;
        }
      }
    }
  }
}

TEST(BipartiteGraphTest, SitesByDegreeDesc) {
  const auto table = MakeTable({{0}, {0, 1, 2}, {0, 1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  const auto order = graph.SitesByDegreeDesc();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

}  // namespace
}  // namespace wsd
