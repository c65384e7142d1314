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
//   metrics               run a command (or a scan), dump the metrics registry
//
// Common flags: --domain=<name> --attr=<name> (the attribute vocabulary
//               comes from the attribute registry: phone homepage isbn
//               reviews microdata)
//               --entities=N --seed=N --scale=F --out=<file.tsv>
//               --artifacts=<dir> --metrics_out=<file.json>
// Every command prints a human table to stdout; --out additionally dumps
// machine-readable TSV and --metrics_out dumps the metrics registry as
// JSON after the run (see docs/METRICS.md). --artifacts enables the
// on-disk scan-artifact cache (see docs/ARCHITECTURE.md, "Artifact
// store"): identical reruns then skip their scans entirely.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/report.h"
#include "core/coverage.h"
#include "core/study.h"
#include "extract/attribute_registry.h"
#include "store/merge.h"
#include "store/snapshot.h"
#include "util/flags.h"
#include "corpus/web_cache.h"
#include "graph/diameter.h"
#include "util/csv.h"
#include "util/io_util.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {
namespace {

using Args = FlagParser;

std::optional<Domain> ParseDomain(std::string_view name) {
  static const std::map<std::string, Domain> kNames = {
      {"books", Domain::kBooks},
      {"restaurants", Domain::kRestaurants},
      {"automotive", Domain::kAutomotive},
      {"banks", Domain::kBanks},
      {"libraries", Domain::kLibraries},
      {"schools", Domain::kSchools},
      {"hotels", Domain::kHotels},
      {"retail", Domain::kRetail},
      {"home", Domain::kHomeGarden},
  };
  auto it = kNames.find(ToLower(name));
  if (it == kNames.end()) return std::nullopt;
  return it->second;
}

std::optional<Attribute> ParseAttribute(std::string_view name) {
  // Registry-driven: a newly registered channel is automatically part of
  // the CLI vocabulary.
  const AttributeSpec* spec = FindAttributeByName(ToLower(name));
  if (spec == nullptr) return std::nullopt;
  return spec->attr;
}

// The --attr vocabulary for help/error text, from the registry.
std::string AttributeVocabulary() {
  std::string out;
  for (const AttributeSpec& spec : AllAttributeSpecs()) {
    if (!out.empty()) out += ' ';
    out += spec.name;
  }
  return out;
}

std::optional<TrafficSite> ParseSite(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "amazon") return TrafficSite::kAmazon;
  if (lower == "yelp") return TrafficSite::kYelp;
  if (lower == "imdb") return TrafficSite::kImdb;
  return std::nullopt;
}

StudyOptions OptionsFrom(const Args& args) {
  StudyOptions options = StudyOptions::FromEnv();
  if (auto v = args.Get("entities")) {
    if (auto n = ParseUint64(*v)) {
      options.num_entities = static_cast<uint32_t>(*n);
    }
  }
  if (auto v = args.Get("seed")) {
    if (auto n = ParseUint64(*v)) options.seed = *n;
  }
  if (auto v = args.Get("scale")) {
    if (auto f = ParseDouble(*v); f && *f > 0) options.scale = *f;
  }
  if (auto v = args.Get("threads")) {
    if (auto n = ParseUint64(*v)) {
      options.threads = static_cast<uint32_t>(*n);
    }
  }
  if (auto v = args.Get("artifacts")) options.artifact_dir = *v;
  return options;
}

Status MaybeWriteTsv(const Args& args,
                     const std::vector<std::vector<std::string>>& rows) {
  auto out = args.Get("out");
  if (!out.has_value()) return Status::OK();
  CsvWriter writer('\t');
  WSD_RETURN_IF_ERROR(writer.Open(*out));
  for (const auto& row : rows) writer.WriteRow(row);
  WSD_RETURN_IF_ERROR(writer.Close());
  std::cout << "\nwrote " << rows.size() << " rows to " << *out << "\n";
  return Status::OK();
}

// ---------------------------------------------------------------------
// Subcommands.

int CmdDomains(const Args& args) {
  TextTable table({"domain", "flag value", "attributes"});
  static const char* kFlagNames[] = {"books", "restaurants", "automotive",
                                     "banks", "libraries",   "schools",
                                     "hotels", "retail",     "home"};
  std::vector<std::vector<std::string>> tsv = {
      {"domain", "flag", "attributes"}};
  int i = 0;
  for (Domain d : AllDomains()) {
    std::string attrs;
    for (Attribute a : StudiedAttributes(d)) {
      if (!attrs.empty()) attrs += ",";
      attrs += std::string(AttributeName(a));
    }
    table.AddRow({std::string(DomainName(d)), kFlagNames[i], attrs});
    tsv.push_back({std::string(DomainName(d)), kFlagNames[i], attrs});
    ++i;
  }
  table.Print(std::cout);
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdSpread(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  Study study(OptionsFrom(args));
  auto scan = study.Scan(*domain, *attr);
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  auto spread = study.RunSpread(*scan);
  if (!spread.ok()) {
    std::cerr << spread.status() << "\n";
    return 1;
  }
  PrintCoverageCurve(
      StrFormat("%s - %s spread",
                std::string(DomainName(*domain)).c_str(),
                std::string(AttributeName(*attr)).c_str()),
      spread->curve, std::cout);

  std::vector<std::vector<std::string>> tsv;
  std::vector<std::string> header = {"t"};
  for (size_t k = 1; k <= spread->curve.k_coverage.size(); ++k) {
    header.push_back(StrFormat("k%zu", k));
  }
  tsv.push_back(header);
  for (size_t i = 0; i < spread->curve.t_values.size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(spread->curve.t_values[i])};
    for (const auto& series : spread->curve.k_coverage) {
      row.push_back(StrFormat("%.6f", series[i]));
    }
    tsv.push_back(row);
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdReviews(const Args& args) {
  Study study(OptionsFrom(args));
  auto scan = study.Scan(Domain::kRestaurants, Attribute::kReviews);
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  auto result = study.RunReviewSpread(*scan);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  PrintCoverageCurve("Restaurant reviews - site-level k-coverage",
                     result->site_curve, std::cout);
  std::cout << "\n";
  PrintPageCoverage("Restaurant reviews - page-level coverage",
                    result->page_curve, std::cout);

  std::vector<std::vector<std::string>> tsv = {
      {"t", "k1_sites", "page_fraction"}};
  for (size_t i = 0; i < result->site_curve.t_values.size(); ++i) {
    tsv.push_back({std::to_string(result->site_curve.t_values[i]),
                   StrFormat("%.6f", result->site_curve.k_coverage[0][i]),
                   StrFormat("%.6f", result->page_curve.page_fraction[i])});
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdSetCover(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "homepage"));
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  Study study(OptionsFrom(args));
  auto scan = study.Scan(*domain, *attr);
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  auto curve = study.RunSetCover(*scan);
  if (!curve.ok()) {
    std::cerr << curve.status() << "\n";
    return 1;
  }
  PrintSetCover("greedy set cover vs size ordering", *curve, std::cout);
  std::vector<std::vector<std::string>> tsv = {{"t", "greedy", "by_size"}};
  for (size_t i = 0; i < curve->t_values.size(); ++i) {
    tsv.push_back({std::to_string(curve->t_values[i]),
                   StrFormat("%.6f", curve->greedy_coverage[i]),
                   StrFormat("%.6f", curve->size_coverage[i])});
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdGraph(const Args& args) {
  Study study(OptionsFrom(args));
  std::vector<GraphMetricsRow> rows;
  auto add = [&](Domain d, Attribute a) -> bool {
    auto scan = study.Scan(d, a);
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return false;
    }
    auto row = study.RunGraphMetrics(*scan);
    if (!row.ok()) {
      std::cerr << row.status() << "\n";
      return false;
    }
    rows.push_back(std::move(row).value());
    return true;
  };
  if (args.Has("all")) {
    if (!add(Domain::kBooks, Attribute::kIsbn)) return 1;
    for (Domain d : LocalBusinessDomains()) {
      if (!add(d, Attribute::kPhone)) return 1;
    }
    for (Domain d : LocalBusinessDomains()) {
      if (!add(d, Attribute::kHomepage)) return 1;
    }
  } else {
    const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
    const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
    if (!domain || !attr) {
      std::cerr << "unknown --domain or --attr\n";
      return 2;
    }
    if (!add(*domain, *attr)) return 1;
  }
  PrintGraphMetrics(rows, std::cout);
  std::vector<std::vector<std::string>> tsv = {
      {"domain", "attr", "avg_sites_per_entity", "diameter", "components",
       "largest_pct"}};
  for (const auto& row : rows) {
    tsv.push_back({std::string(DomainName(row.domain)),
                   std::string(AttributeName(row.attr)),
                   StrFormat("%.2f", row.avg_sites_per_entity),
                   std::to_string(row.diameter),
                   std::to_string(row.num_components),
                   StrFormat("%.4f", row.largest_component_entity_pct)});
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdRobustness(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  Study study(OptionsFrom(args));
  auto scan = study.Scan(*domain, *attr);
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  auto sweep = study.RunRobustness(*scan, 10);
  if (!sweep.ok()) {
    std::cerr << sweep.status() << "\n";
    return 1;
  }
  PrintRobustness("largest component vs removed top sites", *sweep,
                  std::cout);
  std::vector<std::vector<std::string>> tsv = {
      {"removed", "components", "largest_fraction"}};
  for (const auto& point : *sweep) {
    tsv.push_back({std::to_string(point.removed_sites),
                   std::to_string(point.num_components),
                   StrFormat("%.6f",
                             point.largest_component_entity_fraction)});
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdValue(const Args& args) {
  const auto site = ParseSite(args.GetOr("site", "yelp"));
  if (!site) {
    std::cerr << "unknown --site (amazon|yelp|imdb)\n";
    return 2;
  }
  Study study(OptionsFrom(args));
  auto result = study.RunValueStudy(*site);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << TrafficSiteName(*site) << ": top-20% demand share "
            << FormatPct(result->head20_search) << " (search) / "
            << FormatPct(result->head20_browse) << " (browse)\n\n";
  PrintValueAddBins("demand and value-add by review-count bin",
                    result->bins, std::cout);
  std::vector<std::vector<std::string>> tsv = {
      {"bin", "entities", "search_z", "browse_z", "rel_va_search",
       "rel_va_browse"}};
  for (const auto& bin : result->bins) {
    tsv.push_back({bin.label, std::to_string(bin.num_entities),
                   StrFormat("%.6f", bin.mean_search_z),
                   StrFormat("%.6f", bin.mean_browse_z),
                   StrFormat("%.6f", bin.rel_va_search),
                   StrFormat("%.6f", bin.rel_va_browse)});
  }
  const Status status = MaybeWriteTsv(args, tsv);
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok() ? 0 : 1;
}

int CmdBootstrap(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  const StudyOptions options = OptionsFrom(args);
  Study study(options);
  auto scan = study.RunScan(*domain, *attr);
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  const auto graph = BipartiteGraph::FromHostTable(
      scan->table, options.ScaledEntities());
  const auto diameter = ExactDiameter(graph, 20000, &study.pool());
  Rng rng(options.seed ^ 0xb0075ULL);
  uint32_t seed_count = 1;
  if (auto v = args.Get("seeds")) {
    if (auto n = ParseUint64(*v); n && *n > 0) {
      seed_count = static_cast<uint32_t>(*n);
    }
  }
  auto stats = BootstrapRandomSeeds(graph, seed_count, 25, rng);
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    return 1;
  }
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

int CmdGenCache(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  const std::string out = args.GetOr("out", "web_cache.bin");
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  const StudyOptions options = OptionsFrom(args);
  Study study(options);
  auto web = study.BuildWeb(*domain, *attr);
  if (!web.ok()) {
    std::cerr << web.status() << "\n";
    return 1;
  }
  WebCacheWriter writer;
  Status status = writer.Open(out);
  for (SiteId s = 0; status.ok() && s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page& page, const PageTruth&) {
      if (status.ok()) status = writer.Append(page);
    });
  }
  if (status.ok()) status = writer.Close();
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "wrote " << writer.pages_written() << " pages to " << out
            << "\n";
  return 0;
}

int CmdScanCache(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  const std::string in = args.GetOr("in", "web_cache.bin");
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
  const StudyOptions options = OptionsFrom(args);
  // The catalog must match the one the cache was generated against:
  // same domain, entities and seed.
  auto catalog = DomainCatalog::Build(*domain, options.ScaledEntities(),
                                      options.seed);
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }
  std::optional<ReviewDetector> detector;
  if (GetAttributeSpec(*attr).review_channel) {
    auto built = ReviewDetector::CreateDefault(options.seed ^ 0xdecafULL);
    if (!built.ok()) {
      std::cerr << built.status() << "\n";
      return 1;
    }
    detector.emplace(std::move(built).value());
  }
  auto result = ScanCacheFile(in, *catalog, *attr,
                              detector ? &*detector : nullptr);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
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
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
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
int CmdScan(const Args& args) {
  const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
  const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
  if (!domain || !attr) {
    std::cerr << "unknown --domain or --attr\n";
    return 2;
  }
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
  const StudyOptions options = OptionsFrom(args);
  Study study(options);

  ScanResult result;
  if (!shard.whole()) {
    if (!args.Get("out")) {
      std::cerr << "--shard requires --out: the per-shard snapshot is "
                   "the product of a shard scan\n";
      return 2;
    }
    auto scanned = study.RunShardScan(*domain, *attr, shard);
    if (!scanned.ok()) {
      std::cerr << scanned.status() << "\n";
      return 1;
    }
    result = std::move(scanned).value();
  } else {
    auto scan = study.Scan(*domain, *attr);
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return 1;
    }
    result = scan->result();
  }
  if (canonical) {
    const Status status = CanonicalizeScanResult(&result);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
  }
  const ScanStats& stats = result.stats;
  std::cout << "scanned " << stats.pages_scanned << " pages ("
            << stats.bytes_scanned / (1024 * 1024) << " MiB) across "
            << stats.hosts_scanned << " hosts; matched "
            << stats.entity_mentions << " mentions in "
            << FormatF(stats.wall_seconds, 2) << "s\n";
  if (auto out = args.Get("out")) {
    ArtifactKey key;
    key.domain = *domain;
    key.attr = *attr;
    key.num_entities = options.num_entities;
    key.seed = options.seed;
    key.scale = options.scale;
    SnapshotMeta meta = key.Meta();
    meta.shard_index = shard.index;
    meta.shard_count = shard.count;
    const Status status = WriteSnapshotFileAligned(*out, result, meta);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "wrote snapshot to " << *out << "\n";
  }
  if (auto out = args.Get("table-out")) {
    const Status status = result.table.WriteTsv(*out);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
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
  if (!merged.ok()) {
    std::cerr << merged.status() << "\n";
    return 1;
  }
  const ScanStats& stats = merged->result.stats;
  std::cout << "merged " << inputs.size() << " shard(s): "
            << merged->result.table.num_hosts() << " hosts, "
            << stats.pages_scanned << " pages, " << stats.entity_mentions
            << " mentions\n";
  if (out) {
    const Status status =
        WriteSnapshotFileAligned(*out, merged->result, merged->meta);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "wrote merged snapshot to " << *out << "\n";
  }
  if (artifacts) {
    const ArtifactStore store{*artifacts};
    const ArtifactKey key = ArtifactKey::FromMeta(merged->meta);
    const Status status = store.Store(key, merged->result);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "installed artifact " << store.PathFor(key) << "\n";
  }
  if (auto table_out = args.Get("table-out")) {
    const Status status = merged->result.table.WriteTsv(*table_out);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "wrote host table to " << *table_out << "\n";
  }
  return 0;
}

// Runs every experiment and writes one TSV per figure/table into
// --outdir, creating it (and any missing parents) first. The
// single-command "reproduce the paper" entry point.
int CmdPaper(const Args& args) {
  const std::string outdir = args.GetOr("outdir", "paper_out");
  if (const Status made = EnsureDirectory(outdir); !made.ok()) {
    std::cerr << made << "\n";
    return 1;
  }
  const StudyOptions options = OptionsFrom(args);
  Study study(options);

  auto tsv_path = [&](const std::string& name) {
    return outdir + "/" + name + ".tsv";
  };
  auto write = [&](const std::string& name,
                   const std::vector<std::vector<std::string>>& rows)
      -> Status {
    CsvWriter writer('\t');
    WSD_RETURN_IF_ERROR(writer.Open(tsv_path(name)));
    for (const auto& row : rows) writer.WriteRow(row);
    WSD_RETURN_IF_ERROR(writer.Close());
    std::cout << "  wrote " << tsv_path(name) << "\n";
    return Status::OK();
  };

  auto spread_rows = [](const CoverageCurve& curve) {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header = {"t"};
    for (size_t k = 1; k <= curve.k_coverage.size(); ++k) {
      header.push_back(StrFormat("k%zu", k));
    }
    rows.push_back(header);
    for (size_t i = 0; i < curve.t_values.size(); ++i) {
      std::vector<std::string> row = {std::to_string(curve.t_values[i])};
      for (const auto& series : curve.k_coverage) {
        row.push_back(StrFormat("%.6f", series[i]));
      }
      rows.push_back(row);
    }
    return rows;
  };

  // Figures 1-3.
  struct SpreadJob {
    const char* prefix;
    Attribute attr;
  };
  auto run_spread =
      [&](Domain d, Attribute a) -> StatusOr<Study::SpreadResult> {
    auto scan = study.Scan(d, a);
    if (!scan.ok()) return scan.status();
    return study.RunSpread(*scan);
  };
  for (const SpreadJob& job :
       {SpreadJob{"fig1_phone", Attribute::kPhone},
        SpreadJob{"fig2_homepage", Attribute::kHomepage}}) {
    for (Domain domain : LocalBusinessDomains()) {
      auto spread = run_spread(domain, job.attr);
      if (!spread.ok()) {
        std::cerr << spread.status() << "\n";
        return 1;
      }
      std::string name = std::string(job.prefix) + "_" +
                         ToLower(std::string(DomainName(domain)));
      for (char& c : name) {
        if (!IsAlnum(c) && c != '_') c = '_';
      }
      const Status status = write(name, spread_rows(spread->curve));
      if (!status.ok()) {
        std::cerr << status << "\n";
        return 1;
      }
    }
  }
  {
    auto spread = run_spread(Domain::kBooks, Attribute::kIsbn);
    if (!spread.ok() ||
        !write("fig3_isbn_books", spread_rows(spread->curve)).ok()) {
      return 1;
    }
  }
  // Figure 4.
  {
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kReviews);
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return 1;
    }
    auto result = study.RunReviewSpread(*scan);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    if (!write("fig4a_reviews_sites", spread_rows(result->site_curve))
             .ok()) {
      return 1;
    }
    std::vector<std::vector<std::string>> rows = {{"t", "page_fraction"}};
    for (size_t i = 0; i < result->page_curve.t_values.size(); ++i) {
      rows.push_back({std::to_string(result->page_curve.t_values[i]),
                      StrFormat("%.6f", result->page_curve.page_fraction[i])});
    }
    if (!write("fig4b_reviews_pages", rows).ok()) return 1;
  }
  // Figure 5.
  {
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kHomepage);
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return 1;
    }
    auto curve = study.RunSetCover(*scan);
    if (!curve.ok()) {
      std::cerr << curve.status() << "\n";
      return 1;
    }
    std::vector<std::vector<std::string>> rows = {
        {"t", "greedy", "by_size"}};
    for (size_t i = 0; i < curve->t_values.size(); ++i) {
      rows.push_back({std::to_string(curve->t_values[i]),
                      StrFormat("%.6f", curve->greedy_coverage[i]),
                      StrFormat("%.6f", curve->size_coverage[i])});
    }
    if (!write("fig5_setcover", rows).ok()) return 1;
  }
  // Figures 6-8.
  for (TrafficSite site : {TrafficSite::kAmazon, TrafficSite::kYelp,
                           TrafficSite::kImdb}) {
    auto result = study.RunValueStudy(site);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    const std::string lower = ToLower(std::string(TrafficSiteName(site)));
    std::vector<std::vector<std::string>> cumulative = {
        {"inventory_fraction", "search", "browse"}};
    for (size_t i = 0; i < result->search_curve.size(); ++i) {
      cumulative.push_back(
          {StrFormat("%.4f", result->search_curve[i].inventory_fraction),
           StrFormat("%.6f", result->search_curve[i].demand_fraction),
           StrFormat("%.6f", result->browse_curve[i].demand_fraction)});
    }
    if (!write("fig6_demand_" + lower, cumulative).ok()) return 1;
    std::vector<std::vector<std::string>> bins = {
        {"bin", "entities", "search_z", "browse_z", "rel_va_search",
         "rel_va_browse"}};
    for (const auto& bin : result->bins) {
      bins.push_back({bin.label, std::to_string(bin.num_entities),
                      StrFormat("%.6f", bin.mean_search_z),
                      StrFormat("%.6f", bin.mean_browse_z),
                      StrFormat("%.6f", bin.rel_va_search),
                      StrFormat("%.6f", bin.rel_va_browse)});
    }
    if (!write("fig7_fig8_value_" + lower, bins).ok()) return 1;
  }
  // Table 2 + Figure 9.
  {
    std::vector<std::vector<std::string>> rows = {
        {"domain", "attr", "avg_sites_per_entity", "diameter",
         "components", "largest_pct"}};
    std::vector<std::vector<std::string>> robustness = {
        {"domain", "attr", "removed", "largest_fraction"}};
    auto add = [&](Domain d, Attribute a) -> bool {
      auto scan = study.Scan(d, a);
      if (!scan.ok()) {
        std::cerr << scan.status() << "\n";
        return false;
      }
      auto row = study.RunGraphMetrics(*scan);
      if (!row.ok()) {
        std::cerr << row.status() << "\n";
        return false;
      }
      rows.push_back({std::string(DomainName(d)),
                      std::string(AttributeName(a)),
                      StrFormat("%.2f", row->avg_sites_per_entity),
                      std::to_string(row->diameter),
                      std::to_string(row->num_components),
                      StrFormat("%.4f", row->largest_component_entity_pct)});
      auto sweep = study.RunRobustness(*scan, 10);
      if (!sweep.ok()) {
        std::cerr << sweep.status() << "\n";
        return false;
      }
      for (const auto& point : *sweep) {
        robustness.push_back(
            {std::string(DomainName(d)), std::string(AttributeName(a)),
             std::to_string(point.removed_sites),
             StrFormat("%.6f", point.largest_component_entity_fraction)});
      }
      return true;
    };
    if (!add(Domain::kBooks, Attribute::kIsbn)) return 1;
    for (Domain d : LocalBusinessDomains()) {
      if (!add(d, Attribute::kPhone)) return 1;
    }
    for (Domain d : LocalBusinessDomains()) {
      if (!add(d, Attribute::kHomepage)) return 1;
    }
    if (!write("table2_graphs", rows).ok()) return 1;
    if (!write("fig9_robustness", robustness).ok()) return 1;
  }
  std::cout << "done: all figures/tables written under " << outdir << "\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args);

// Observability entry point: `wsdctl metrics [command ...]` runs the
// nested command (any other subcommand, flags shared) — or, with no
// nested command, a default cache scan honoring --domain/--attr — then
// prints the populated metrics registry to stdout. --format=json selects
// the JSON exporter over the Prometheus text default.
int CmdMetrics(const Args& args) {
  int rc = 0;
  if (args.positional().size() > 1 && args.positional()[1] != "metrics") {
    rc = RunCommand(args.positional()[1], args);
  } else {
    const auto domain = ParseDomain(args.GetOr("domain", "restaurants"));
    const auto attr = ParseAttribute(args.GetOr("attr", "phone"));
    if (!domain || !attr) {
      std::cerr << "unknown --domain or --attr\n";
      return 2;
    }
    Study study(OptionsFrom(args));
    auto scan = study.RunScan(*domain, *attr);
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return 1;
    }
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
      "  value       §4 value study         --site amazon|yelp|imdb\n"
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
      "  paper       run EVERY experiment, TSVs into --outdir\n"
      "  metrics     run a command (default: a scan), then dump the\n"
      "              metrics registry        [command ...] [--format json]\n\n"
      "common flags: --entities=N --seed=N --scale=F --threads=N\n"
      "              --artifacts=DIR  (cache scans as on-disk snapshots;\n"
      "               reruns with the same options skip the scan)\n"
      "              --metrics_out=f.json  (dump registry after any run)\n"
      "domains: books restaurants automotive banks libraries schools "
      "hotels retail home\n"
      "attributes: " << AttributeVocabulary() << "\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args) {
  if (command == "domains") return CmdDomains(args);
  if (command == "spread") return CmdSpread(args);
  if (command == "reviews") return CmdReviews(args);
  if (command == "setcover") return CmdSetCover(args);
  if (command == "graph") return CmdGraph(args);
  if (command == "robustness") return CmdRobustness(args);
  if (command == "value") return CmdValue(args);
  if (command == "bootstrap") return CmdBootstrap(args);
  if (command == "gen-cache") return CmdGenCache(args);
  if (command == "scan-cache") return CmdScanCache(args);
  if (command == "scan") return CmdScan(args);
  if (command == "merge") return CmdMerge(args);
  if (command == "paper") return CmdPaper(args);
  if (command == "metrics") return CmdMetrics(args);
  if (command == "help" || command == "--help") return CmdHelp();
  std::cerr << "unknown command '" << command << "'; see wsdctl help\n";
  return 2;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().empty()) return CmdHelp();
  const int rc = RunCommand(args.positional()[0], args);
  // --metrics_out works for every command: after the run, persist the
  // registry as machine-readable JSON.
  if (auto out = args.Get("metrics_out")) {
    std::ofstream file(*out);
    file << MetricsRegistry::Global().ToJson() << "\n";
    if (file.good()) {
      std::cout << "wrote metrics to " << *out << "\n";
    } else {
      std::cerr << "failed to write metrics to " << *out << "\n";
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
