#ifndef WSD_GRAPH_DIAMETER_H_
#define WSD_GRAPH_DIAMETER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite.h"
#include "graph/components.h"
#include "util/thread_pool.h"

namespace wsd {

/// Result of a diameter computation over the largest connected component.
struct DiameterResult {
  uint32_t diameter = 0;
  /// Number of BFS traversals performed (the efficiency metric iFUB is
  /// chosen for; all-pairs would need one per node).
  uint32_t bfs_runs = 0;
  /// Nodes in the component the diameter was measured on.
  uint32_t component_nodes = 0;
  /// False when the BFS budget was exhausted; `diameter` is then a lower
  /// bound. Never happens on the study's graphs at default budgets.
  bool exact = true;
};

/// Exact diameter of the largest component via the iFUB algorithm
/// (Crescenzi et al.): a double sweep establishes a lower bound and a
/// center, then eccentricities of nodes in decreasing BFS-level order
/// tighten the bounds until they meet. On small-diameter web-like graphs
/// this needs orders of magnitude fewer BFS runs than the cubic all-pairs
/// approach the paper sidesteps the same way ("can be computed more
/// efficiently when the diameter of the graph is small", §5.2).
///
/// The eccentricity loop evaluates each fringe level with the bit-parallel
/// multi-source BFS below, in rounds of one 64-source chunk per pool
/// worker (a single inline chunk without a pool). The reported diameter,
/// exactness and component size are identical at any thread count; only
/// `bfs_runs` (eccentricities evaluated) may exceed the count of a
/// one-at-a-time loop, by less than one round — 64 × workers — per
/// fringe level, when the bounds meet mid-round.
DiameterResult ExactDiameter(const BipartiteGraph& graph,
                             uint32_t max_bfs = 20000,
                             ThreadPool* pool = nullptr);

/// Reference implementation: one BFS per node of the largest component.
/// O(V*E); only for tests and the ablation bench.
DiameterResult AllPairsDiameter(const BipartiteGraph& graph);

/// Eccentricity of `node` within its component (max BFS distance).
/// Scalar BFS; the oracle for `Eccentricities`.
uint32_t Eccentricity(const BipartiteGraph& graph, uint32_t node);

/// Sources evaluated per multi-source BFS pass (one bit of a uint64_t).
inline constexpr size_t kEccentricityLanes = 64;

/// Eccentricities of `sources` (in order, duplicates and sources in
/// different components allowed), evaluated by a bit-parallel
/// multi-source BFS (Then et al., "The More the Merrier", VLDB 2014):
/// each chunk of up to `kEccentricityLanes` sources shares one adjacency
/// scan per frontier node and level. Chunks run as one pool task each,
/// or inline without a pool. Equal to `Eccentricity` per source.
std::vector<uint32_t> Eccentricities(const BipartiteGraph& graph,
                                     std::span<const uint32_t> sources,
                                     ThreadPool* pool = nullptr);

}  // namespace wsd

#endif  // WSD_GRAPH_DIAMETER_H_
