// Figure 6: the long tail of demand — cumulative demand satisfied as a
// function of the fraction of inventory, for Amazon / Yelp / IMDb, under
// both the search and browse logs. Demand is estimated from the synthetic
// cookie-level logs by the paper's procedure (unique cookies; per month
// for search, per year for browse).

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv, "bench_fig6_demand");
  using namespace wsd;
  const StudyOptions options = bench::Options();
  bench::PrintHeader("Figure 6: The long tail of demand",
                     "Fig 6(a)-(d), §4.2", options);

  Study study(options);
  auto batch = study.RunValueStudies(
      {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb});
  if (!batch.ok()) {
    std::cerr << "value study failed: " << batch.status() << "\n";
    return 1;
  }
  const std::vector<Study::ValueStudyResult>& results = *batch;

  for (int channel = 0; channel < 2; ++channel) {
    const bool search = channel == 0;
    std::cout << (search ? "Fig 6(a): cumulative demand, search data\n"
                         : "Fig 6(c): cumulative demand, browse data\n");
    TextTable table({"% of inventory", "Amazon", "Yelp", "IMDb"});
    const auto& curve0 =
        search ? results[0].search_curve : results[0].browse_curve;
    for (size_t i = 0; i < curve0.size(); ++i) {
      if ((i + 1) % 5 != 0 && i != 0) continue;  // print every 10%
      std::vector<std::string> row = {
          FormatPct(curve0[i].inventory_fraction)};
      for (const auto& r : results) {
        const auto& curve = search ? r.search_curve : r.browse_curve;
        row.push_back(FormatPct(curve[i].demand_fraction));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  // Panels (b)/(d): relative demand vs rank (log-spaced), search/browse.
  for (int channel = 0; channel < 2; ++channel) {
    const bool search = channel == 0;
    std::cout << (search
                      ? "Fig 6(b): relative demand vs rank, search data\n"
                      : "Fig 6(d): relative demand vs rank, browse data\n");
    TextTable table({"rank (% of inventory)", "Amazon", "Yelp", "IMDb"});
    std::vector<std::vector<RankDemandPoint>> curves;
    for (const auto& r : results) {
      curves.push_back(RankDemandCurve(
          search ? r.demand.search_demand : r.demand.browse_demand, 12));
    }
    for (size_t i = 0; i < curves[0].size(); ++i) {
      std::vector<std::string> row = {
          StrFormat("%.3f%%", curves[0][i].rank_fraction * 100.0)};
      for (const auto& curve : curves) {
        row.push_back(StrFormat("%.4f", curve[i].relative_demand));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  bench::PrintAnchor("IMDb top-20% demand share (search)", ">90%",
                    FormatPct(results[2].head20_search));
  bench::PrintAnchor("Amazon top-20% demand share (search)", "~70-80%",
                    FormatPct(results[0].head20_search));
  bench::PrintAnchor("Yelp top-20% demand share (search)", "~60%",
                    FormatPct(results[1].head20_search));
  bench::PrintAnchor("Yelp browse flatter than search",
                    "yes",
                    StrFormat("browse %.1f%% vs search %.1f%%",
                              results[1].head20_browse * 100.0,
                              results[1].head20_search * 100.0));
  std::cout << "\nevents consumed (search+browse): ";
  for (const auto& r : results) {
    std::cout << TrafficSiteName(r.site) << "=" << r.demand.events_consumed
              << " (skipped " << r.demand.events_skipped << ")  ";
  }
  std::cout << "\n";
  return 0;
}
