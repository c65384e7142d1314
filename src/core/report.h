#ifndef WSD_CORE_REPORT_H_
#define WSD_CORE_REPORT_H_

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/demand_analysis.h"
#include "core/review_coverage.h"
#include "core/set_cover.h"
#include "graph/robustness.h"

namespace wsd {

/// Fixed-width text table used by the bench harness to print
/// paper-shaped rows.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "93.1%" with one decimal.
std::string FormatPct(double fraction);
/// Fixed-precision double.
std::string FormatF(double value, int decimals = 2);

/// One "paper vs measured" anchor line:
/// `anchor: <what>  [paper: <paper> | measured: <measured>]`. Whether
/// the two agree is the reader's call; this only formats.
void PrintAnchor(const std::string& what, const std::string& paper,
                 const std::string& measured, std::ostream& out);

/// Prints a k-coverage curve as rows of t x k columns (the textual
/// rendering of one panel of Figs 1-4a).
void PrintCoverageCurve(const std::string& title, const CoverageCurve& curve,
                        std::ostream& out);

/// Fig 4(b) rendering.
void PrintPageCoverage(const std::string& title,
                       const PageCoverageCurve& curve, std::ostream& out);

/// Fig 5 rendering: greedy vs size-ordered coverage per t.
void PrintSetCover(const std::string& title, const SetCoverCurve& curve,
                   std::ostream& out);

/// Table 2 rendering.
void PrintGraphMetrics(const std::vector<GraphMetricsRow>& rows,
                       std::ostream& out);

/// Fig 9 rendering: one series per graph.
void PrintRobustness(const std::string& title,
                     const std::vector<RobustnessPoint>& points,
                     std::ostream& out);

/// Figs 7/8 rendering: per-bin demand and relative value-add.
void PrintValueAddBins(const std::string& title,
                       const std::vector<ReviewBinStat>& bins,
                       std::ostream& out);

// ---------------------------------------------------------------------
// TSV renderers: the one definition of each figure/table file layout.
// Each returns the whole body: a header line, then one line per row,
// tab-separated and '\n'-terminated. `wsdctl --out`, `wsdctl paper` and
// wsdd's `format=tsv` responses all write exactly these bytes. Fields
// are fixed-vocabulary names and numbers, so none needs quoting.

/// Figs 1-3 and 4(a): `t k1 .. kK`, one row per t.
std::string CoverageTsv(const CoverageCurve& curve);

/// Fig 4(b): `t page_fraction`.
std::string PageCoverageTsv(const PageCoverageCurve& curve);

/// Fig 5: `t greedy by_size`.
std::string SetCoverTsv(const SetCoverCurve& curve);

/// Fig 6: `inventory_fraction search browse`; the two curves share the
/// inventory axis.
std::string DemandCurveTsv(const std::vector<DemandCurvePoint>& search,
                           const std::vector<DemandCurvePoint>& browse);

/// Figs 7-8: demand and relative value-add per review-count bin.
std::string ValueBinsTsv(const std::vector<ReviewBinStat>& bins);

/// Table 2: one row per graph.
std::string GraphMetricsTsv(std::span<const GraphMetricsRow> rows);

/// One graph's Fig 9 sweep.
struct RobustnessSeries {
  Domain domain = Domain::kRestaurants;
  Attribute attr = Attribute::kPhone;
  std::vector<RobustnessPoint> points;
};

/// Fig 9: `domain attr removed largest_fraction`, every graph's points.
std::string RobustnessTsv(std::span<const RobustnessSeries> series);

}  // namespace wsd

#endif  // WSD_CORE_REPORT_H_
