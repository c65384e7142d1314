#include "core/report.h"

#include <algorithm>

#include "util/string_util.h"

namespace wsd {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::Print(std::ostream& out) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << "  ";
      out << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string FormatPct(double fraction) {
  return StrFormat("%.1f%%", fraction * 100.0);
}

std::string FormatF(double value, int decimals) {
  return StrFormat("%.*f", decimals, value);
}

void PrintAnchor(const std::string& what, const std::string& paper,
                 const std::string& measured, std::ostream& out) {
  out << "anchor: " << what << "  [paper: " << paper
      << " | measured: " << measured << "]\n";
}

void PrintCoverageCurve(const std::string& title, const CoverageCurve& curve,
                        std::ostream& out) {
  out << title << "\n";
  std::vector<std::string> header = {"top-t sites"};
  for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
    header.push_back(StrFormat("k=%zu", k + 1));
  }
  TextTable table(std::move(header));
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    std::vector<std::string> row = {std::to_string(curve.t_values[i])};
    for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
      row.push_back(FormatPct(curve.k_coverage[k][i]));
    }
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

void PrintPageCoverage(const std::string& title,
                       const PageCoverageCurve& curve, std::ostream& out) {
  out << title << "  (total review pages: " << curve.total_pages << ")\n";
  TextTable table({"top-t sites", "% of review pages"});
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    table.AddRow({std::to_string(curve.t_values[i]),
                  FormatPct(curve.page_fraction[i])});
  }
  table.Print(out);
}

void PrintSetCover(const std::string& title, const SetCoverCurve& curve,
                   std::ostream& out) {
  out << title << "\n";
  TextTable table({"top-t sites", "greedy set cover", "ordered by size",
                   "improvement"});
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    table.AddRow(
        {std::to_string(curve.t_values[i]),
         FormatPct(curve.greedy_coverage[i]),
         FormatPct(curve.size_coverage[i]),
         StrFormat("%+.2fpp", (curve.greedy_coverage[i] -
                               curve.size_coverage[i]) *
                                  100.0)});
  }
  table.Print(out);
}

void PrintGraphMetrics(const std::vector<GraphMetricsRow>& rows,
                       std::ostream& out) {
  TextTable table({"Domain", "Attr", "Avg #sites/entity", "diameter",
                   "# conn. comp.", "% entities in largest comp."});
  for (const GraphMetricsRow& row : rows) {
    table.AddRow({std::string(DomainName(row.domain)),
                  std::string(AttributeName(row.attr)),
                  FormatF(row.avg_sites_per_entity, 1),
                  std::to_string(row.diameter),
                  std::to_string(row.num_components),
                  FormatF(row.largest_component_entity_pct, 2)});
  }
  table.Print(out);
}

void PrintRobustness(const std::string& title,
                     const std::vector<RobustnessPoint>& points,
                     std::ostream& out) {
  out << title << "\n";
  TextTable table({"top-k sites removed", "# conn. comp.",
                   "% entities in largest comp."});
  for (const RobustnessPoint& p : points) {
    table.AddRow({std::to_string(p.removed_sites),
                  std::to_string(p.num_components),
                  FormatPct(p.largest_component_entity_fraction)});
  }
  table.Print(out);
}

void PrintValueAddBins(const std::string& title,
                       const std::vector<ReviewBinStat>& bins,
                       std::ostream& out) {
  out << title << "\n";
  TextTable table({"#reviews (n)", "#entities", "demand z (search)",
                   "demand z (browse)", "VA(n)/VA(0) search",
                   "VA(n)/VA(0) browse"});
  for (const ReviewBinStat& bin : bins) {
    table.AddRow({bin.label, std::to_string(bin.num_entities),
                  FormatF(bin.mean_search_z, 3),
                  FormatF(bin.mean_browse_z, 3),
                  FormatF(bin.rel_va_search, 3),
                  FormatF(bin.rel_va_browse, 3)});
  }
  table.Print(out);
}

std::string CoverageTsv(const CoverageCurve& curve) {
  std::string out = "t";
  for (size_t k = 1; k <= curve.k_coverage.size(); ++k) {
    AppendFormat(&out, "\tk%zu", k);
  }
  out += '\n';
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%u", curve.t_values[i]);
    for (const auto& series : curve.k_coverage) {
      AppendFormat(&out, "\t%.6f", series[i]);
    }
    out += '\n';
  }
  return out;
}

std::string PageCoverageTsv(const PageCoverageCurve& curve) {
  std::string out = "t\tpage_fraction\n";
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%u\t%.6f\n", curve.t_values[i],
                 curve.page_fraction[i]);
  }
  return out;
}

std::string SetCoverTsv(const SetCoverCurve& curve) {
  std::string out = "t\tgreedy\tby_size\n";
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%u\t%.6f\t%.6f\n", curve.t_values[i],
                 curve.greedy_coverage[i], curve.size_coverage[i]);
  }
  return out;
}

std::string DemandCurveTsv(const std::vector<DemandCurvePoint>& search,
                           const std::vector<DemandCurvePoint>& browse) {
  std::string out = "inventory_fraction\tsearch\tbrowse\n";
  for (size_t i = 0; i < search.size(); ++i) {
    AppendFormat(&out, "%.4f\t%.6f\t%.6f\n", search[i].inventory_fraction,
                 search[i].demand_fraction, browse[i].demand_fraction);
  }
  return out;
}

std::string ValueBinsTsv(const std::vector<ReviewBinStat>& bins) {
  std::string out =
      "bin\tentities\tsearch_z\tbrowse_z\trel_va_search\trel_va_browse\n";
  for (const ReviewBinStat& bin : bins) {
    out += bin.label;
    AppendFormat(&out, "\t%llu\t%.6f\t%.6f\t%.6f\t%.6f\n",
                 static_cast<unsigned long long>(bin.num_entities),
                 bin.mean_search_z, bin.mean_browse_z, bin.rel_va_search,
                 bin.rel_va_browse);
  }
  return out;
}

std::string GraphMetricsTsv(std::span<const GraphMetricsRow> rows) {
  std::string out =
      "domain\tattr\tavg_sites_per_entity\tdiameter\tcomponents\t"
      "largest_pct\n";
  for (const GraphMetricsRow& row : rows) {
    out += DomainName(row.domain);
    out += '\t';
    out += AttributeName(row.attr);
    AppendFormat(&out, "\t%.2f\t%u\t%u\t%.4f\n", row.avg_sites_per_entity,
                 row.diameter, row.num_components,
                 row.largest_component_entity_pct);
  }
  return out;
}

std::string RobustnessTsv(std::span<const RobustnessSeries> series) {
  std::string out = "domain\tattr\tremoved\tlargest_fraction\n";
  for (const RobustnessSeries& graph : series) {
    for (const RobustnessPoint& point : graph.points) {
      out += DomainName(graph.domain);
      out += '\t';
      out += AttributeName(graph.attr);
      AppendFormat(&out, "\t%u\t%.6f\n", point.removed_sites,
                   point.largest_component_entity_fraction);
    }
  }
  return out;
}

}  // namespace wsd
