#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace wsd {
namespace {

TEST(TextTableTest, AlignsColumnsAndPadsRows) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name"});  // short row padded with empty cell
  std::ostringstream out;
  table.Print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(rendered.find("----"), std::string::npos);
  // All lines for data rows start at column 0 with the first cell.
  EXPECT_NE(rendered.find("a "), std::string::npos);
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(FormatPct(0.0), "0.0%");
  EXPECT_EQ(FormatPct(0.931), "93.1%");
  EXPECT_EQ(FormatPct(1.0), "100.0%");
}

TEST(FormatTest, FixedPrecision) {
  EXPECT_EQ(FormatF(3.14159, 2), "3.14");
  EXPECT_EQ(FormatF(3.14159, 0), "3");
  EXPECT_EQ(FormatF(-1.5, 1), "-1.5");
}

TEST(FormatTest, AnchorLine) {
  std::ostringstream out;
  PrintAnchor("top-10, k=1", "~93%", "91.2%", out);
  EXPECT_EQ(out.str(),
            "anchor: top-10, k=1  [paper: ~93% | measured: 91.2%]\n");
}

TEST(ReportPrintersTest, CoverageCurveRendersAllCells) {
  CoverageCurve curve;
  curve.t_values = {1, 10};
  curve.k_coverage = {{0.5, 0.9}, {0.1, 0.4}};
  curve.num_entities = 100;
  std::ostringstream out;
  PrintCoverageCurve("test curve", curve, out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("test curve"), std::string::npos);
  EXPECT_NE(rendered.find("k=1"), std::string::npos);
  EXPECT_NE(rendered.find("k=2"), std::string::npos);
  EXPECT_NE(rendered.find("50.0%"), std::string::npos);
  EXPECT_NE(rendered.find("40.0%"), std::string::npos);
}

TEST(ReportPrintersTest, GraphMetricsRendersDomains) {
  GraphMetricsRow row;
  row.domain = Domain::kBooks;
  row.attr = Attribute::kIsbn;
  row.avg_sites_per_entity = 8.0;
  row.diameter = 8;
  row.num_components = 439;
  row.largest_component_entity_pct = 99.96;
  std::ostringstream out;
  PrintGraphMetrics({row}, out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("Books"), std::string::npos);
  EXPECT_NE(rendered.find("ISBN"), std::string::npos);
  EXPECT_NE(rendered.find("439"), std::string::npos);
  EXPECT_NE(rendered.find("99.96"), std::string::npos);
}

TEST(ReportPrintersTest, RobustnessAndSetCoverAndBins) {
  std::ostringstream out;
  PrintRobustness("rob", {{0, 3, 0.999}, {1, 5, 0.98}}, out);
  EXPECT_NE(out.str().find("99.9%"), std::string::npos);

  SetCoverCurve curve;
  curve.t_values = {1};
  curve.greedy_coverage = {0.6};
  curve.size_coverage = {0.5};
  std::ostringstream out2;
  PrintSetCover("sc", curve, out2);
  EXPECT_NE(out2.str().find("+10.00pp"), std::string::npos);

  ReviewBinStat bin;
  bin.label = "1-2";
  bin.num_entities = 42;
  bin.rel_va_search = 0.75;
  std::ostringstream out3;
  PrintValueAddBins("bins", {bin}, out3);
  EXPECT_NE(out3.str().find("1-2"), std::string::npos);
  EXPECT_NE(out3.str().find("0.750"), std::string::npos);

  PageCoverageCurve pages;
  pages.t_values = {1};
  pages.page_fraction = {0.8};
  pages.total_pages = 1234;
  std::ostringstream out4;
  PrintPageCoverage("pc", pages, out4);
  EXPECT_NE(out4.str().find("1234"), std::string::npos);
  EXPECT_NE(out4.str().find("80.0%"), std::string::npos);
}

}  // namespace
}  // namespace wsd
