#ifndef WSD_CORE_DEMAND_ANALYSIS_H_
#define WSD_CORE_DEMAND_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/demand.h"
#include "util/statusor.h"

namespace wsd {

/// One point of the Fig 6(a)/(c) cumulative-demand curves: the top
/// `inventory_fraction` of entities (by the same demand measure) accounts
/// for `demand_fraction` of total demand.
struct DemandCurvePoint {
  double inventory_fraction = 0.0;
  double demand_fraction = 0.0;
};

/// Computes the cumulative demand curve at `num_points` evenly spaced
/// inventory fractions. Entities are sorted by decreasing demand.
std::vector<DemandCurvePoint> CumulativeDemandCurve(
    const std::vector<double>& demand, int num_points = 50);

/// Demand share of the top `fraction` of the inventory (e.g. 0.2 for the
/// paper's "top 20%" observations).
double HeadDemandShare(const std::vector<double>& demand, double fraction);

/// One point of the Fig 6(b)/(d) rank-demand panels: the demand of the
/// entity at the given rank percentile (entities sorted by decreasing
/// demand), normalized by the maximum demand.
struct RankDemandPoint {
  double rank_fraction = 0.0;     // rank / inventory, in (0, 1]
  double relative_demand = 0.0;   // demand(rank) / demand(rank 1)
};

/// Samples the rank-demand curve at `num_points` log-spaced ranks (the
/// paper's panels are log-log). Empty when total demand is zero.
std::vector<RankDemandPoint> RankDemandCurve(
    const std::vector<double>& demand, int num_points = 20);

/// One log2 review-count bin of the Fig 7 / Fig 8 analyses ("we grouped
/// entities based on the value of log(n)": 0, 1-2, 3-6, ..., 1023+).
struct ReviewBinStat {
  std::string label;
  uint64_t review_lo = 0;
  uint64_t review_hi = 0;
  uint64_t num_entities = 0;
  /// Fig 7: mean demand z-score (normalized within dataset to mean 0,
  /// stddev 1) of the bin's entities.
  double mean_search_z = 0.0;
  double mean_browse_z = 0.0;
  /// Fig 8: relative value-add VA(n)/VA(0), where VA(n) is the mean of
  /// demand/(1+n) over entities with n reviews.
  double rel_va_search = 0.0;
  double rel_va_browse = 0.0;
};

/// How much additional information the (n+1)-th review carries, §4.3.1.
struct ValueAddOptions {
  enum class InfoDecay {
    /// The paper's main choice: I_Δ(n) = 1/(1+n), "motivated by
    /// aggregation scenarios" (each review shifts an average by at most
    /// an additive 1/(1+n)).
    kInverseLinear,
    /// The paper's stated alternative: "I_Δ(n) could be a step function
    /// that gives zero weight when n >= c for a small constant c (like
    /// 10). This captures the scenario where a user reads no more than c
    /// reviews." I_Δ(n) = 1/(1+n) for n < c, else 0.
    kStepAtCutoff,
  };
  InfoDecay decay = InfoDecay::kInverseLinear;
  uint32_t step_cutoff = 10;
  int max_bucket = 10;
};

/// Runs the Fig 7 + Fig 8 binned analyses. `reviews[i]` is entity i's
/// review count; demands come from the estimator. Fails when the
/// zero-review bin is empty (relative VA would be undefined).
[[nodiscard]] StatusOr<std::vector<ReviewBinStat>> AnalyzeValueAdd(
    const DemandTable& demand, const std::vector<uint32_t>& reviews,
    int max_bucket = 10);

/// Variant with an explicit I_Δ choice (the paper argues the step
/// alternative "would estimate even higher value-add of extracting a new
/// review for tail entities" — `wsdctl value` prints the comparison,
/// and tests verify it).
[[nodiscard]] StatusOr<std::vector<ReviewBinStat>> AnalyzeValueAddWithOptions(
    const DemandTable& demand, const std::vector<uint32_t>& reviews,
    const ValueAddOptions& options);

}  // namespace wsd

#endif  // WSD_CORE_DEMAND_ANALYSIS_H_
