// Figure 7: normalized demand vs. number of existing reviews. Demand is
// z-score-normalized within each dataset; entities are grouped by log2 of
// their review count (0, 1-2, 3-6, ..., 1023+), exactly the paper's
// binning.

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv, "bench_fig7_demand_vs_reviews");
  using namespace wsd;
  const StudyOptions options = bench::Options();
  bench::PrintHeader("Figure 7: Normalized demand vs. #existing reviews",
                     "Fig 7, §4.3.2", options);

  Study study(options);
  auto results = study.RunValueStudies(
      {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb});
  if (!results.ok()) {
    std::cerr << "value study failed: " << results.status() << "\n";
    return 1;
  }
  for (const Study::ValueStudyResult& result : *results) {
    const TrafficSite site = result.site;
    PrintValueAddBins(
        StrFormat("Fig 7: %s - demand (z-score) by review-count bin",
                  std::string(TrafficSiteName(site)).c_str()),
        result.bins, std::cout);
    // The Fig 7 claim: strictly more demand for entities with more
    // reviews.
    double prev = -1e9;
    bool monotone = true;
    for (const auto& bin : result.bins) {
      if (bin.num_entities == 0) continue;
      if (bin.mean_search_z < prev - 0.05) monotone = false;
      prev = bin.mean_search_z;
    }
    bench::PrintAnchor(
        StrFormat("%s: demand increases with review count",
                  std::string(TrafficSiteName(site)).c_str()),
        "yes", monotone ? "yes (monotone up to noise)" : "NO");
    std::cout << "\n";
  }
  return 0;
}
