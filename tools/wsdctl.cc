// wsdctl — command-line driver for the webspread library.
//
// Subcommands (run `wsdctl help` for details):
//   domains               print Table 1
//   spread                k-coverage curves for one (domain, attribute)
//   reviews               Fig 4 site- and page-level review coverage
//   setcover              Fig 5 greedy-vs-size ordering
//   graph                 Table 2 metrics for one graph or --all
//   robustness            Fig 9 sweep for one graph
//   value                 §4 demand/value-add study for one traffic site
//   bootstrap             set-expansion simulation on one graph
//   gen-cache             render a synthetic web into an on-disk page cache
//   scan                  run one cache scan; --out writes a binary snapshot
//                         (--shard i/n scans one corpus slice, --canonical
//                         emits the merge-comparable canonical form)
//   merge                 recombine per-shard snapshots into one
//   paper                 every figure/table as TSV, then the paper-vs-
//                         measured anchors: the one way to reproduce the
//                         paper
//   metrics               run a command (or a scan), dump the metrics registry
//
// Common flags: --domain=<name> --attr=<name> (case-insensitive; the
//               domain names come from entity/domains, the attribute
//               names from the attribute registry)
//               --entities=N --seed=N --scale=F --out=<file.tsv>
//               --artifacts=<dir> --metrics_out=<file.json>
// Every command prints a human table to stdout; --out additionally dumps
// machine-readable TSV (rendered by core/report, the same bytes wsdd
// serves for format=tsv) and --metrics_out dumps the metrics registry as
// JSON after the run (see docs/METRICS.md). A malformed --entities,
// --seed, --scale or --threads is a usage error (exit 2). --artifacts
// enables the on-disk scan-artifact cache (see docs/ARCHITECTURE.md,
// "Artifact store"): identical reruns then skip their scans entirely.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bootstrap.h"
#include "core/report.h"
#include "core/coverage.h"
#include "core/study.h"
#include "extract/attribute_registry.h"
#include "store/merge.h"
#include "store/snapshot.h"
#include "traffic/url_patterns.h"
#include "util/flags.h"
#include "corpus/web_cache.h"
#include "graph/diameter.h"
#include "util/io_util.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {
namespace {

using Args = FlagParser;
using Graphs = std::vector<std::pair<Domain, Attribute>>;

// Prints a runtime failure; the command exits 1.
int Fail(const Status& status) {
  std::cerr << status << "\n";
  return 1;
}

// --domain (default restaurants) and --attr (default `default_attr`),
// read through the shared vocabulary tables. False after printing the
// usage error.
bool ParseDomainAttr(const Args& args, const char* default_attr,
                     Domain* domain, Attribute* attr) {
  const auto d = ParseDomain(args.GetOr("domain", "restaurants"));
  const AttributeSpec* spec =
      FindAttributeByName(args.GetOr("attr", default_attr));
  if (!d.has_value() || spec == nullptr) {
    std::cerr << "unknown --domain or --attr\n";
    return false;
  }
  *domain = *d;
  *attr = spec->attr;
  return true;
}

// Writes `tsv` to --out when given. Returns the command's exit code.
int MaybeWriteTsv(const Args& args, const std::string& tsv) {
  auto out = args.Get("out");
  if (!out.has_value()) return 0;
  if (const Status status = WriteStringToFile(*out, tsv); !status.ok()) {
    return Fail(status);
  }
  const auto rows = std::count(tsv.begin(), tsv.end(), '\n');
  std::cout << "\nwrote " << rows << " rows to " << *out << "\n";
  return 0;
}

// The 17 graphs of Table 2 and Fig 9, in the paper's row order: books by
// ISBN, then every local-business domain by phone, then by homepage.
Graphs Table2Graphs() {
  Graphs graphs = {{Domain::kBooks, Attribute::kIsbn}};
  for (Attribute attr : {Attribute::kPhone, Attribute::kHomepage}) {
    for (Domain domain : LocalBusinessDomains()) {
      graphs.emplace_back(domain, attr);
    }
  }
  return graphs;
}

// ---------------------------------------------------------------------
// Analyses shared by the single-figure commands and `paper`.

StatusOr<Study::SpreadResult> Spread(Study& study, Domain domain,
                                     Attribute attr) {
  WSD_ASSIGN_OR_RETURN(const auto scan, study.Scan(domain, attr));
  return study.RunSpread(scan);
}

StatusOr<Study::ReviewSpreadResult> Reviews(Study& study) {
  WSD_ASSIGN_OR_RETURN(const auto scan,
                       study.Scan(Domain::kRestaurants, Attribute::kReviews));
  return study.RunReviewSpread(scan);
}

StatusOr<SetCoverCurve> SetCover(Study& study, Domain domain,
                                 Attribute attr) {
  WSD_ASSIGN_OR_RETURN(const auto scan, study.Scan(domain, attr));
  return study.RunSetCover(scan);
}

StatusOr<std::vector<GraphMetricsRow>> GraphRows(Study& study,
                                                 const Graphs& graphs) {
  std::vector<GraphMetricsRow> rows;
  for (const auto& [domain, attr] : graphs) {
    WSD_ASSIGN_OR_RETURN(const auto scan, study.Scan(domain, attr));
    WSD_ASSIGN_OR_RETURN(auto row, study.RunGraphMetrics(scan));
    rows.push_back(std::move(row));
  }
  return rows;
}

StatusOr<std::vector<RobustnessSeries>> RobustnessSweeps(
    Study& study, const Graphs& graphs) {
  std::vector<RobustnessSeries> sweeps;
  for (const auto& [domain, attr] : graphs) {
    WSD_ASSIGN_OR_RETURN(const auto scan, study.Scan(domain, attr));
    WSD_ASSIGN_OR_RETURN(auto points, study.RunRobustness(scan, 10));
    sweeps.push_back({domain, attr, std::move(points)});
  }
  return sweeps;
}

// ---------------------------------------------------------------------
// Paper-vs-measured anchors: each figure's numbers that the paper states
// in its text, next to the same quantity measured by this run. `paper`
// prints them after writing its TSVs; EXPERIMENTS.md discusses them.

// `values` at sample point t of `t_values`, or the last value when the
// curve stops short of t (a web with fewer than t sites).
double At(const std::vector<uint32_t>& t_values,
          const std::vector<double>& values, uint32_t t) {
  const auto it = std::find(t_values.begin(), t_values.end(), t);
  return it == t_values.end() ? values.back()
                              : values[it - t_values.begin()];
}

// k-coverage of the top-t sites.
double KCoverageAt(const CoverageCurve& curve, uint32_t t, uint32_t k) {
  return At(curve.t_values, curve.k_coverage[k - 1], t);
}

// Figs 1(a) and 2(a): restaurants by phone and by homepage (§3.4).
void SpreadAnchors(const CoverageCurve& phone, const CoverageCurve& homepage,
                   std::ostream& out) {
  PrintAnchor("Fig 1: restaurants top-10 sites, k=1", "~93%",
              FormatPct(KCoverageAt(phone, 10, 1)), out);
  PrintAnchor("Fig 1: restaurants top-100 sites, k=1", "close to 100%",
              FormatPct(KCoverageAt(phone, 100, 1)), out);
  PrintAnchor("Fig 1: restaurants top-5000 sites, k=5", "~90%",
              FormatPct(KCoverageAt(phone, 5000, 5)), out);
  PrintAnchor("Fig 2: restaurants: sites needed for 95% 1-coverage",
              ">= 10,000",
              StrFormat("%.1f%% at t=10000",
                        KCoverageAt(homepage, 10000, 1) * 100.0),
              out);
  PrintAnchor("Fig 2: restaurants top-10, k=1 (vs ~93% for phone)",
              "visibly lower than Fig 1(a)",
              FormatPct(KCoverageAt(homepage, 10, 1)), out);
}

void ReviewAnchors(const Study::ReviewSpreadResult& reviews,
                   std::ostream& out) {
  PrintAnchor("Fig 4: k=1 coverage at top-1000 sites", "~90-95%",
              FormatPct(KCoverageAt(reviews.site_curve, 1000, 1)), out);
  PrintAnchor("Fig 4: k=2 coverage at top-5000 sites", "~90%",
              FormatPct(KCoverageAt(reviews.site_curve, 5000, 2)), out);
  PrintAnchor("Fig 4: page-level coverage at top-1000 (vs site-level ~95%)",
              "~80%",
              FormatPct(At(reviews.page_curve.t_values,
                           reviews.page_curve.page_fraction, 1000)),
              out);
}

// §3.4.1: "a careful choice of hosts does not lead to significant
// increase in coverage by top sites".
void SetCoverAnchor(const SetCoverCurve& curve, std::ostream& out) {
  double head_improvement = 0.0;
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    if (curve.t_values[i] <= 1000) {
      head_improvement = std::max(
          head_improvement, curve.greedy_coverage[i] - curve.size_coverage[i]);
    }
  }
  PrintAnchor("Fig 5: greedy improvement over size ordering (t <= 1000)",
              "slight / insignificant",
              StrFormat("%.2f percentage points", head_improvement * 100.0),
              out);
}

// Figs 6-8 over the (amazon, yelp, imdb) value studies, in that order.
void ValueAnchors(const std::vector<Study::ValueStudyResult>& values,
                  std::ostream& out) {
  const Study::ValueStudyResult& amazon = values[0];
  const Study::ValueStudyResult& yelp = values[1];
  const Study::ValueStudyResult& imdb = values[2];
  PrintAnchor("Fig 6: IMDb top-20% demand share (search)", ">90%",
              FormatPct(imdb.head20_search), out);
  PrintAnchor("Fig 6: Amazon top-20% demand share (search)", "~70-80%",
              FormatPct(amazon.head20_search), out);
  PrintAnchor("Fig 6: Yelp top-20% demand share (search)", "~60%",
              FormatPct(yelp.head20_search), out);
  PrintAnchor("Fig 6: Yelp browse flatter than search", "yes",
              StrFormat("browse %.1f%% vs search %.1f%%",
                        yelp.head20_browse * 100.0,
                        yelp.head20_search * 100.0),
              out);
  for (const Study::ValueStudyResult& value : values) {
    const std::string site(TrafficSiteName(value.site));
    // Fig 7: strictly more demand for entities with more reviews.
    double prev = -1e9;
    bool monotone = true;
    for (const ReviewBinStat& bin : value.bins) {
      if (bin.num_entities == 0) continue;
      if (bin.mean_search_z < prev - 0.05) monotone = false;
      prev = bin.mean_search_z;
    }
    PrintAnchor("Fig 7: " + site + ": demand increases with review count",
                "yes", monotone ? "yes (monotone up to noise)" : "NO", out);
    // Fig 8: decreasing in n for Yelp and Amazon, humped for IMDb. The
    // shape is read off the bins holding at least 10 entities.
    std::vector<double> occupied;
    for (const ReviewBinStat& bin : value.bins) {
      if (bin.num_entities >= 10) occupied.push_back(bin.rel_va_search);
    }
    if (occupied.size() < 3) continue;
    const double peak = *std::max_element(occupied.begin(), occupied.end());
    const bool rises = peak > occupied.front() + 0.15;
    const bool humped = rises && occupied.back() < peak * 0.8;
    PrintAnchor("Fig 8: " + site + ": VA(n)/VA(0) shape",
                value.site == TrafficSite::kImdb
                    ? "humped (rises mid-range, falls at head)"
                    : "decreasing in n",
                humped ? "humped" : !rises ? "decreasing" : "mixed", out);
  }
}

// Table 2 and Fig 9 over the 17 graphs (§5).
void GraphAnchors(const std::vector<GraphMetricsRow>& rows,
                  const std::vector<RobustnessSeries>& sweeps,
                  std::ostream& out) {
  uint32_t max_diameter = 0, min_diameter = UINT32_MAX;
  double min_largest_pct = 100.0;
  for (const GraphMetricsRow& row : rows) {
    max_diameter = std::max(max_diameter, row.diameter);
    min_diameter = std::min(min_diameter, row.diameter);
    min_largest_pct =
        std::min(min_largest_pct, row.largest_component_entity_pct);
  }
  PrintAnchor("Table 2: diameter range across graphs", "6-8 (d/2 <= 4)",
              StrFormat("%u-%u", min_diameter, max_diameter), out);
  PrintAnchor("Table 2: largest component, worst graph", ">= 97.87%",
              FormatF(min_largest_pct, 2) + "%", out);
  // Fig 9(a) holds the ISBN and phone graphs, 9(b) the homepage graphs.
  double min_a = 1.0, min_b = 1.0;
  for (const RobustnessSeries& series : sweeps) {
    double& panel_min = series.attr == Attribute::kHomepage ? min_b : min_a;
    panel_min = std::min(
        panel_min, series.points.back().largest_component_entity_fraction);
  }
  PrintAnchor("Fig 9: ISBN+phone graphs after removing top-10", "> 99%",
              FormatPct(min_a), out);
  PrintAnchor("Fig 9: homepage graphs after removing top-10", "> 90%",
              FormatPct(min_b), out);
}

// ---------------------------------------------------------------------
// Subcommands.

int CmdDomains(const Args& args) {
  TextTable table({"domain", "flag value", "attributes"});
  std::string tsv = "domain\tflag\tattributes\n";
  for (Domain d : AllDomains()) {
    std::string attrs;
    for (Attribute a : StudiedAttributes(d)) {
      if (!attrs.empty()) attrs += ",";
      attrs += AttributeName(a);
    }
    const std::string name(DomainName(d));
    const std::string flag(DomainFlagName(d));
    table.AddRow({name, flag, attrs});
    tsv += name + "\t" + flag + "\t" + attrs + "\n";
  }
  table.Print(std::cout);
  return MaybeWriteTsv(args, tsv);
}

int CmdSpread(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  Study study(options);
  const auto spread = Spread(study, domain, attr);
  if (!spread.ok()) return Fail(spread.status());
  PrintCoverageCurve(
      StrFormat("%s - %s spread",
                std::string(DomainName(domain)).c_str(),
                std::string(AttributeName(attr)).c_str()),
      spread->curve, std::cout);
  return MaybeWriteTsv(args, CoverageTsv(spread->curve));
}

int CmdReviews(const Args& args, const StudyOptions& options) {
  Study study(options);
  const auto result = Reviews(study);
  if (!result.ok()) return Fail(result.status());
  PrintCoverageCurve("Restaurant reviews - site-level k-coverage",
                     result->site_curve, std::cout);
  std::cout << "\n";
  PrintPageCoverage("Restaurant reviews - page-level coverage",
                    result->page_curve, std::cout);

  std::string tsv = "t\tk1_sites\tpage_fraction\n";
  for (size_t i = 0; i < result->site_curve.t_values.size(); ++i) {
    AppendFormat(&tsv, "%u\t%.6f\t%.6f\n", result->site_curve.t_values[i],
                 result->site_curve.k_coverage[0][i],
                 result->page_curve.page_fraction[i]);
  }
  return MaybeWriteTsv(args, tsv);
}

int CmdSetCover(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "homepage", &domain, &attr)) return 2;
  Study study(options);
  const auto curve = SetCover(study, domain, attr);
  if (!curve.ok()) return Fail(curve.status());
  PrintSetCover("greedy set cover vs size ordering", *curve, std::cout);
  return MaybeWriteTsv(args, SetCoverTsv(*curve));
}

int CmdGraph(const Args& args, const StudyOptions& options) {
  Graphs graphs;
  if (args.Has("all")) {
    graphs = Table2Graphs();
  } else {
    Domain domain;
    Attribute attr;
    if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
    graphs = {{domain, attr}};
  }
  Study study(options);
  const auto rows = GraphRows(study, graphs);
  if (!rows.ok()) return Fail(rows.status());
  PrintGraphMetrics(*rows, std::cout);
  return MaybeWriteTsv(args, GraphMetricsTsv(*rows));
}

int CmdRobustness(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  Study study(options);
  const auto sweeps = RobustnessSweeps(study, {{domain, attr}});
  if (!sweeps.ok()) return Fail(sweeps.status());
  const std::vector<RobustnessPoint>& sweep = sweeps->front().points;
  PrintRobustness("largest component vs removed top sites", sweep,
                  std::cout);
  std::string tsv = "removed\tcomponents\tlargest_fraction\n";
  for (const auto& point : sweep) {
    AppendFormat(&tsv, "%u\t%u\t%.6f\n", point.removed_sites,
                 point.num_components,
                 point.largest_component_entity_fraction);
  }
  return MaybeWriteTsv(args, tsv);
}

int CmdValue(const Args& args, const StudyOptions& options) {
  const auto site = ParseTrafficSite(args.GetOr("site", "yelp"));
  if (!site) {
    std::cerr << "unknown --site (amazon|yelp|imdb)\n";
    return 2;
  }
  Study study(options);
  const auto result = study.RunValueStudy(*site);
  if (!result.ok()) return Fail(result.status());
  std::cout << TrafficSiteName(*site) << ": top-20% demand share "
            << FormatPct(result->head20_search) << " (search) / "
            << FormatPct(result->head20_browse) << " (browse)\n\n";
  PrintValueAddBins("demand and value-add by review-count bin",
                    result->bins, std::cout);

  // Fig 6(b)/(d): demand relative to the top entity at log-spaced ranks.
  for (const auto& [channel, demand] :
       {std::pair{"Fig 6(b): relative demand vs rank, search data",
                  &result->demand.search_demand},
        std::pair{"Fig 6(d): relative demand vs rank, browse data",
                  &result->demand.browse_demand}}) {
    std::cout << "\n" << channel << "\n";
    TextTable table({"rank (% of inventory)", "relative demand"});
    for (const RankDemandPoint& point : RankDemandCurve(*demand, 12)) {
      table.AddRow({StrFormat("%.3f%%", point.rank_fraction * 100.0),
                    StrFormat("%.4f", point.relative_demand)});
    }
    table.Print(std::cout);
  }

  // §4.3.1's alternative I_delta, a step function that zeroes the value
  // once an entity has >= 10 reviews ("a user reads no more than c
  // reviews"). The paper: it "would estimate even higher value-add of
  // extracting a new review for tail entities".
  ValueAddOptions step;
  step.decay = ValueAddOptions::InfoDecay::kStepAtCutoff;
  const auto step_bins =
      AnalyzeValueAddWithOptions(result->demand, result->reviews, step);
  if (!step_bins.ok()) return Fail(step_bins.status());
  std::cout << "\nstep decay (zero value once n >= " << step.step_cutoff
            << ") vs inverse-linear\n";
  TextTable table({"#reviews (n)", "VA(n)/VA(0) inverse-linear",
                   "VA(n)/VA(0) step"});
  double head_linear = 0, head_step = 0;  // bins with n >= 15
  for (size_t i = 0; i < step_bins->size(); ++i) {
    const double linear = result->bins[i].rel_va_search;
    const double stepped = (*step_bins)[i].rel_va_search;
    table.AddRow({(*step_bins)[i].label, FormatF(linear, 3),
                  FormatF(stepped, 3)});
    if (i >= 4) {
      head_linear += linear;
      head_step += stepped;
    }
  }
  table.Print(std::cout);
  std::cout << "\n";
  PrintAnchor("step decay shifts value toward the tail",
              "alternative I_delta estimates even higher tail value-add",
              StrFormat("head-bin VA sum: %.3f (step) vs %.3f "
                        "(inverse-linear)",
                        head_step, head_linear),
              std::cout);
  return MaybeWriteTsv(args, ValueBinsTsv(result->bins));
}

int CmdBootstrap(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  uint32_t seed_count = 1;
  if (const Status status = args.ReadUint("seeds", &seed_count, 1);
      !status.ok()) {
    std::cerr << status << "\n";
    return 2;
  }
  Study study(options);
  auto scan = study.RunScan(domain, attr);
  if (!scan.ok()) return Fail(scan.status());
  const auto graph = BipartiteGraph::FromHostTable(
      scan->table, options.ScaledEntities());
  const auto diameter = ExactDiameter(graph, 20000, &study.pool());
  Rng rng(options.seed ^ 0xb0075ULL);
  auto stats = BootstrapRandomSeeds(graph, seed_count, 25, rng);
  if (!stats.ok()) return Fail(stats.status());
  std::cout << "graph diameter " << diameter.diameter << " (bound: at most "
            << (diameter.diameter + 1) / 2 << " iterations)\n"
            << "random " << seed_count << "-seed trials: iterations mean "
            << FormatF(stats->iterations.mean(), 1) << ", max "
            << FormatF(stats->iterations.max(), 0) << "; recall mean "
            << FormatPct(stats->recall.mean()) << "; "
            << stats->trials_reaching_giant << "/" << stats->trials
            << " reach the giant component\n";
  return 0;
}

int CmdGenCache(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  const std::string out = args.GetOr("out", "web_cache.bin");
  Study study(options);
  auto web = study.BuildWeb(domain, attr);
  if (!web.ok()) return Fail(web.status());
  WebCacheWriter writer;
  Status status = writer.Open(out);
  for (SiteId s = 0; status.ok() && s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page& page, const PageTruth&) {
      if (status.ok()) status = writer.Append(page);
    });
  }
  if (status.ok()) status = writer.Close();
  if (!status.ok()) return Fail(status);
  std::cout << "wrote " << writer.pages_written() << " pages to " << out
            << "\n";
  return 0;
}

int CmdScanCache(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  const std::string in = args.GetOr("in", "web_cache.bin");
  // The catalog must match the one the cache was generated against:
  // same domain, entities and seed.
  auto catalog = DomainCatalog::Build(domain, options.ScaledEntities(),
                                      options.seed);
  if (!catalog.ok()) return Fail(catalog.status());
  std::optional<ReviewDetector> detector;
  if (GetAttributeSpec(attr).review_channel) {
    auto built = ReviewDetector::CreateDefault(options.seed ^ 0xdecafULL);
    if (!built.ok()) return Fail(built.status());
    detector.emplace(std::move(built).value());
  }
  auto result = ScanCacheFile(in, *catalog, attr,
                              detector ? &*detector : nullptr);
  if (!result.ok()) return Fail(result.status());
  std::cout << "scanned " << result->stats.pages_scanned << " pages ("
            << result->stats.bytes_scanned / (1024 * 1024) << " MiB) across "
            << result->stats.hosts_scanned << " hosts; matched "
            << result->stats.entity_mentions << " mentions in "
            << FormatF(result->stats.wall_seconds, 2) << "s\n";
  auto curve = ComputeKCoverage(
      result->table, catalog->size(), 10,
      DefaultCoverageTValues(
          static_cast<uint32_t>(result->table.num_hosts())));
  if (curve.ok()) {
    PrintCoverageCurve("k-coverage from the cache scan", *curve, std::cout);
  }
  if (auto out = args.Get("table-out")) {
    const Status status = result->table.WriteTsv(*out);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote host table to " << *out << "\n";
  }
  return 0;
}

// One §3.1 cache scan. --out persists the result as an aligned binary
// snapshot with provenance (store/snapshot.h) — the same format the
// artifact store caches — and --table-out dumps the host table as TSV.
//
// --shard i/n scans only the hosts of corpus slice i (1-based) and
// requires --out: the snapshot is the product of a shard scan, to be
// recombined with `wsdctl merge`. Shard snapshots (and whole scans run
// with --canonical) are written in canonical form — hosts sorted by
// name, wall time zeroed — so a merged 1..n sweep is byte-identical to
// the monolithic `--canonical` snapshot (cmp-able in CI).
int CmdScan(const Args& args, const StudyOptions& options) {
  Domain domain;
  Attribute attr;
  if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
  ShardSpec shard;
  if (auto v = args.Get("shard")) {
    auto parsed = ShardSpec::Parse(*v);
    if (!parsed.ok()) {
      std::cerr << parsed.status() << "\n";
      return 2;
    }
    shard = *parsed;
  }
  const bool canonical = args.Has("canonical") || !shard.whole();
  Study study(options);

  ScanResult result;
  if (!shard.whole()) {
    if (!args.Get("out")) {
      std::cerr << "--shard requires --out: the per-shard snapshot is "
                   "the product of a shard scan\n";
      return 2;
    }
    auto scanned = study.RunShardScan(domain, attr, shard);
    if (!scanned.ok()) return Fail(scanned.status());
    result = std::move(scanned).value();
  } else {
    auto scan = study.Scan(domain, attr);
    if (!scan.ok()) return Fail(scan.status());
    result = scan->result();
  }
  if (canonical) {
    const Status status = CanonicalizeScanResult(&result);
    if (!status.ok()) return Fail(status);
  }
  const ScanStats& stats = result.stats;
  std::cout << "scanned " << stats.pages_scanned << " pages ("
            << stats.bytes_scanned / (1024 * 1024) << " MiB) across "
            << stats.hosts_scanned << " hosts; matched "
            << stats.entity_mentions << " mentions in "
            << FormatF(stats.wall_seconds, 2) << "s\n";
  if (auto out = args.Get("out")) {
    ArtifactKey key;
    key.domain = domain;
    key.attr = attr;
    key.num_entities = options.num_entities;
    key.seed = options.seed;
    key.scale = options.scale;
    SnapshotMeta meta = key.Meta();
    meta.shard_index = shard.index;
    meta.shard_count = shard.count;
    const Status status = WriteSnapshotFileAligned(*out, result, meta);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote snapshot to " << *out << "\n";
  }
  if (auto out = args.Get("table-out")) {
    const Status status = result.table.WriteTsv(*out);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote host table to " << *out << "\n";
  }
  return 0;
}

// Recombines per-shard snapshots into the monolithic canonical snapshot
// (store/merge.h validates provenance, completeness and host ownership
// and fails closed — no partial output file). --out writes the merged
// snapshot; --artifacts=DIR additionally installs it into the artifact
// store under the key its provenance describes, so warm Study/wsdd runs
// resolve straight through it via the mmap path.
int CmdMerge(const Args& args) {
  const std::vector<std::string>& positional = args.positional();
  const std::vector<std::string> inputs(positional.begin() + 1,
                                        positional.end());
  const auto out = args.Get("out");
  const auto artifacts = args.Get("artifacts");
  if (inputs.empty()) {
    std::cerr << "merge needs at least one input snapshot (wsdctl merge "
                 "shard1.wsdsnap shard2.wsdsnap ...)\n";
    return 2;
  }
  if (!out && !artifacts) {
    std::cerr << "merge needs --out=FILE and/or --artifacts=DIR\n";
    return 2;
  }

  std::vector<ParsedSnapshot> shards;
  shards.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto loaded = LoadSnapshotFile(path);
    if (!loaded.ok()) {
      std::cerr << path << ": " << loaded.status() << "\n";
      return 1;
    }
    shards.push_back(std::move(loaded).value());
  }
  auto merged = MergeSnapshots(std::move(shards));
  if (!merged.ok()) return Fail(merged.status());
  const ScanStats& stats = merged->result.stats;
  std::cout << "merged " << inputs.size() << " shard(s): "
            << merged->result.table.num_hosts() << " hosts, "
            << stats.pages_scanned << " pages, " << stats.entity_mentions
            << " mentions\n";
  if (out) {
    const Status status =
        WriteSnapshotFileAligned(*out, merged->result, merged->meta);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote merged snapshot to " << *out << "\n";
  }
  if (artifacts) {
    const ArtifactStore store{*artifacts};
    const ArtifactKey key = ArtifactKey::FromMeta(merged->meta);
    const Status status = store.Store(key, merged->result);
    if (!status.ok()) return Fail(status);
    std::cout << "installed artifact " << store.PathFor(key) << "\n";
  }
  if (auto table_out = args.Get("table-out")) {
    const Status status = merged->result.table.WriteTsv(*table_out);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote host table to " << *table_out << "\n";
  }
  return 0;
}

// Runs every experiment and writes one TSV per figure/table into
// --outdir, creating it (and any missing parents) first, then prints the
// paper-vs-measured anchors. The single-command "reproduce the paper"
// entry point.
int CmdPaper(const Args& args, const StudyOptions& options) {
  const std::string outdir = args.GetOr("outdir", "paper_out");
  if (const Status made = EnsureDirectory(outdir); !made.ok()) {
    return Fail(made);
  }
  Study study(options);
  // Every scan the figures read, as one batch: the pool scans one corpus
  // while this thread builds the next. The analyses below hit the memo.
  Graphs scans = Table2Graphs();
  scans.emplace_back(Domain::kRestaurants, Attribute::kReviews);
  if (const auto batch = study.ScanBatch(scans); !batch.ok()) {
    return Fail(batch.status());
  }

  // Each step names one output file and renders it from an analysis
  // result. A failed analysis or write is reported against the file it
  // was meant for and stops the run.
  auto emit = [&](const std::string& name, const auto& result,
                  auto render) {
    const std::string path = outdir + "/" + name + ".tsv";
    const Status status = result.ok() ? WriteStringToFile(path, render(*result))
                                      : result.status();
    if (!status.ok()) {
      std::cerr << path << ": " << status << "\n";
      return false;
    }
    std::cout << "  wrote " << path << "\n";
    return true;
  };
  const auto spread_tsv = [](const Study::SpreadResult& spread) {
    return CoverageTsv(spread.curve);
  };

  // Figures 1-3. The restaurants panels of Figs 1 and 2 feed anchors.
  std::vector<CoverageCurve> restaurants;
  for (const auto& [prefix, attr] :
       {std::pair{"fig1_phone_", Attribute::kPhone},
        std::pair{"fig2_homepage_", Attribute::kHomepage}}) {
    for (Domain domain : LocalBusinessDomains()) {
      std::string name = prefix + ToLower(DomainName(domain));
      for (char& c : name) {
        if (!IsAlnum(c) && c != '_') c = '_';
      }
      const auto spread = Spread(study, domain, attr);
      if (!emit(name, spread, spread_tsv)) return 1;
      if (domain == Domain::kRestaurants) restaurants.push_back(spread->curve);
    }
  }
  if (!emit("fig3_isbn_books", Spread(study, Domain::kBooks, Attribute::kIsbn),
            spread_tsv)) {
    return 1;
  }
  // Figures 4 and 5.
  const auto reviews = Reviews(study);
  const auto setcover =
      SetCover(study, Domain::kRestaurants, Attribute::kHomepage);
  if (!emit("fig4a_reviews_sites", reviews,
            [](const auto& r) { return CoverageTsv(r.site_curve); }) ||
      !emit("fig4b_reviews_pages", reviews,
            [](const auto& r) { return PageCoverageTsv(r.page_curve); }) ||
      !emit("fig5_setcover", setcover, SetCoverTsv)) {
    return 1;
  }
  // Figures 6-8: the three value studies run as one batch on the pool.
  const std::vector<TrafficSite> sites = {
      TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb};
  const auto values = study.RunValueStudies(sites);
  for (size_t i = 0; i < sites.size(); ++i) {
    const std::string lower = ToLower(TrafficSiteName(sites[i]));
    if (!emit("fig6_demand_" + lower, values,
              [i](const auto& v) {
                return DemandCurveTsv(v[i].search_curve, v[i].browse_curve);
              }) ||
        !emit("fig7_fig8_value_" + lower, values,
              [i](const auto& v) { return ValueBinsTsv(v[i].bins); })) {
      return 1;
    }
  }
  // Table 2 and Figure 9.
  const Graphs graphs = Table2Graphs();
  const auto rows = GraphRows(study, graphs);
  const auto sweeps = RobustnessSweeps(study, graphs);
  if (!emit("table2_graphs", rows,
            [](const auto& r) { return GraphMetricsTsv(r); }) ||
      !emit("fig9_robustness", sweeps,
            [](const auto& s) { return RobustnessTsv(s); })) {
    return 1;
  }
  std::cout << "done: all figures/tables written under " << outdir
            << "\n\npaper vs measured:\n";
  SpreadAnchors(restaurants[0], restaurants[1], std::cout);
  ReviewAnchors(*reviews, std::cout);
  SetCoverAnchor(*setcover, std::cout);
  ValueAnchors(*values, std::cout);
  GraphAnchors(*rows, *sweeps, std::cout);
  return 0;
}

int RunCommand(const std::string& command, const Args& args,
               const StudyOptions& options);

// Observability entry point: `wsdctl metrics [command ...]` runs the
// nested command (any other subcommand, flags shared) — or, with no
// nested command, a default cache scan honoring --domain/--attr — then
// prints the populated metrics registry to stdout. --format=json selects
// the JSON exporter over the Prometheus text default.
int CmdMetrics(const Args& args, const StudyOptions& options) {
  int rc = 0;
  if (args.positional().size() > 1 && args.positional()[1] != "metrics") {
    rc = RunCommand(args.positional()[1], args, options);
  } else {
    Domain domain;
    Attribute attr;
    if (!ParseDomainAttr(args, "phone", &domain, &attr)) return 2;
    Study study(options);
    auto scan = study.RunScan(domain, attr);
    if (!scan.ok()) return Fail(scan.status());
    std::cout << "scanned " << scan->stats.pages_scanned << " pages across "
              << scan->stats.hosts_scanned << " hosts in "
              << FormatF(scan->stats.wall_seconds, 2) << "s\n\n";
  }
  auto& registry = MetricsRegistry::Global();
  if (args.GetOr("format", "prom") == "json") {
    std::cout << registry.ToJson() << "\n";
  } else {
    std::cout << registry.ToPrometheus();
  }
  return rc;
}

int CmdHelp() {
  std::cout <<
      "wsdctl — driver for the webspread study\n\n"
      "usage: wsdctl <command> [flags]\n\n"
      "commands:\n"
      "  domains     print Table 1 (domains and attributes)\n"
      "  spread      k-coverage curves      --domain --attr [--out f.tsv]\n"
      "  reviews     Fig 4 review coverage  [--out f.tsv]\n"
      "  setcover    Fig 5 greedy ordering  --domain --attr\n"
      "  graph       Table 2 metrics        --domain --attr | --all\n"
      "  robustness  Fig 9 sweep            --domain --attr\n"
      "  value       Figs 6-8 value study   --site amazon|yelp|imdb\n"
      "  bootstrap   set-expansion trials   --domain --attr [--seeds N]\n"
      "  gen-cache   persist a synthetic web --domain --attr --out f.bin\n"
      "  scan-cache  scan a persisted cache  --domain --attr --in f.bin\n"
      "  scan        run one cache scan      --domain --attr\n"
      "              [--out snap.wsdsnap] [--table-out f.tsv]\n"
      "              [--shard i/n  scan corpus slice i of n (needs --out)]\n"
      "              [--canonical  emit canonical (merge-comparable) form]\n"
      "  merge       recombine shard snapshots  s1.wsdsnap s2.wsdsnap ...\n"
      "              [--out merged.wsdsnap] [--artifacts DIR]\n"
      "              [--table-out f.tsv]\n"
      "  paper       run EVERY experiment, TSVs into --outdir, then\n"
      "              print the paper-vs-measured anchors\n"
      "  metrics     run a command (default: a scan), then dump the\n"
      "              metrics registry        [command ...] [--format json]\n\n"
      "common flags: --entities=N --seed=N --scale=F --threads=N\n"
      "              --artifacts=DIR  (cache scans as on-disk snapshots;\n"
      "               reruns with the same options skip the scan)\n"
      "              --metrics_out=f.json  (dump registry after any run)\n"
      "domains: " << DomainVocabulary(" ") << "\n"
      "attributes: " << AttributeVocabulary(" ") << "\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args,
               const StudyOptions& options) {
  if (command == "domains") return CmdDomains(args);
  if (command == "spread") return CmdSpread(args, options);
  if (command == "reviews") return CmdReviews(args, options);
  if (command == "setcover") return CmdSetCover(args, options);
  if (command == "graph") return CmdGraph(args, options);
  if (command == "robustness") return CmdRobustness(args, options);
  if (command == "value") return CmdValue(args, options);
  if (command == "bootstrap") return CmdBootstrap(args, options);
  if (command == "gen-cache") return CmdGenCache(args, options);
  if (command == "scan-cache") return CmdScanCache(args, options);
  if (command == "scan") return CmdScan(args, options);
  if (command == "merge") return CmdMerge(args);
  if (command == "paper") return CmdPaper(args, options);
  if (command == "metrics") return CmdMetrics(args, options);
  if (command == "help" || command == "--help") return CmdHelp();
  std::cerr << "unknown command '" << command << "'; see wsdctl help\n";
  return 2;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().empty()) return CmdHelp();
  const auto options = StudyOptions::FromFlags(args);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 2;
  }
  // --metrics_out works for every command: after the run, persist the
  // registry as machine-readable JSON. The file is opened first, so a bad
  // path fails before any work is done.
  std::ofstream metrics_file;
  const auto metrics_out = args.Get("metrics_out");
  if (metrics_out.has_value()) {
    metrics_file.open(*metrics_out);
    if (!metrics_file.is_open()) {
      std::cerr << "cannot open --metrics_out file " << *metrics_out << "\n";
      return 1;
    }
  }
  const int rc = RunCommand(args.positional()[0], args, *options);
  if (metrics_out.has_value()) {
    metrics_file << MetricsRegistry::Global().ToJson() << "\n";
    metrics_file.close();
    if (metrics_file.good()) {
      std::cout << "wrote metrics to " << *metrics_out << "\n";
    } else {
      std::cerr << "failed to write metrics to " << *metrics_out << "\n";
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
