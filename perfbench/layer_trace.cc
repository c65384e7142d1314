// layer_trace — in-process, traced replay of one perfbench workload.
//
// perfbench/run.py measures end-to-end numbers on the real programs
// (wsdctl, wsdd) with tracing off. This binary gives the per-layer
// numbers: it repeats a workload's work by calling each layer's public
// functions directly, wrapping every call in a span and reading
// MetricsRegistry counter deltas at the same boundaries. Spans stay in
// memory and are written as one JSON document when the run ends.
//
//   layer_trace paper      --seed=N --scale=F --threads=N --outdir=DIR
//   layer_trace scan_store --seed=N --scale=F --threads=N --dir=DIR
//   layer_trace serve      --seed=N --scale=F --threads=N --warm=FILE
//                          --targets=FILE --requests=FILE --bodies=FILE
//                          --response-cache-bytes=N [--untraced]
//
// paper writes the same TSVs as `wsdctl paper` into --outdir, so the two
// programs check each other. scan_store scans, stores and reloads the 18
// paper scans through the artifact store and fails if a reloaded table
// differs. serve warms a ServeContext with the --warm targets, as the
// benchmark warms wsdd, renders every target of --targets once into
// --bodies as the reference replies, then replays the request sequence
// of --requests through ParseHttpRequest, HandleRequest and
// SerializeHttpResponse. With --untraced, no span is recorded: the run
// then times the same work without tracing.
//
// Output (stdout, one JSON object): {"wall_s", "spans": [[id, parent,
// name, start_s, end_s, {counter deltas}], ...], "counters": {...},
// "results": {...}}. A failure prints a message to stderr and exits 1.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/demand_analysis.h"
#include "core/review_coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "corpus/web_cache.h"
#include "extract/attribute_registry.h"
#include "extract/review_detector.h"
#include "extract/scan_pipeline.h"
#include "graph/bipartite.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "graph/robustness.h"
#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/scan_cache.h"
#include "store/artifact_store.h"
#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "traffic/traffic_log.h"
#include "traffic/url_patterns.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace wsd {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<std::string>>;

// ---------------------------------------------------------------------
// Spans.

struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, uint64_t>> counts;  // deltas
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int Begin(std::string name) {
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.id = static_cast<int>(spans_.size());
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.name = std::move(name);
    rec.start_s = Now();
    spans_.push_back(std::move(rec));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(int id, std::vector<std::pair<std::string, uint64_t>> counts) {
    if (id < 0) return;
    spans_[id].end_s = Now();
    spans_[id].counts = std::move(counts);
    stack_.pop_back();
  }

  void Rename(int id, std::string name) {
    if (id >= 0) spans_[id].name = std::move(name);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// RAII span around one call into a layer. The listed registry counters
// are read when the span opens and closes; their deltas land on the span.
class Span {
 public:
  Span(Tracer& tracer, std::string name,
       std::vector<std::string> counters = {})
      : tracer_(tracer), counters_(std::move(counters)) {
    for (const std::string& c : counters_) before_.push_back(CounterValue(c));
    id_ = tracer_.Begin(std::move(name));
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Rename(std::string name) { tracer_.Rename(id_, std::move(name)); }
  // Extra counts the benchmark itself observed (e.g. traffic events).
  void AddCount(std::string name, uint64_t value) {
    extra_.emplace_back(std::move(name), value);
  }
  void Close() {
    if (closed_) return;
    closed_ = true;
    if (!tracer_.enabled()) return;
    std::vector<std::pair<std::string, uint64_t>> counts = std::move(extra_);
    for (size_t i = 0; i < counters_.size(); ++i) {
      counts.emplace_back(counters_[i], CounterValue(counters_[i]) - before_[i]);
    }
    tracer_.End(id_, std::move(counts));
  }

 private:
  Tracer& tracer_;
  std::vector<std::string> counters_;
  std::vector<uint64_t> before_;
  std::vector<std::pair<std::string, uint64_t>> extra_;
  int id_ = -1;
  bool closed_ = false;
};

// ---------------------------------------------------------------------
// Output.

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every registry counter, so run.py can take whole-run deltas.
std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const std::string& name : MetricsRegistry::Global().CounterNames()) {
    out[name] = CounterValue(name);
  }
  return out;
}

void PrintReport(const Tracer& tracer, double wall_s,
                 const std::map<std::string, uint64_t>& before,
                 const std::vector<std::pair<std::string, std::string>>&
                     results) {
  std::ostringstream out;
  out << "{\"wall_s\":" << StrFormat("%.9f", wall_s) << ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : tracer.spans()) {
    out << (first ? "" : ",") << "[" << s.id << "," << s.parent << ","
        << JsonString(s.name) << "," << StrFormat("%.9f", s.start_s) << ","
        << StrFormat("%.9f", s.end_s) << ",{";
    for (size_t i = 0; i < s.counts.size(); ++i) {
      out << (i ? "," : "") << JsonString(s.counts[i].first) << ":"
          << s.counts[i].second;
    }
    out << "}]";
    first = false;
  }
  out << "],\"counters\":{";
  first = true;
  for (const auto& [name, value] : CounterSnapshot()) {
    const auto it = before.find(name);
    const uint64_t base = it == before.end() ? 0 : it->second;
    out << (first ? "" : ",") << JsonString(name) << ":" << value - base;
    first = false;
  }
  out << "},\"results\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    out << (i ? "," : "") << JsonString(results[i].first) << ":"
        << results[i].second;
  }
  out << "}}\n";
  std::cout << out.str();
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << "layer_trace: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

template <typename T>
T Unwrap(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what, value.status());
  return std::move(value).value();
}

StudyOptions OptionsFrom(const FlagParser& args) {
  StudyOptions options;
  if (auto v = args.GetUint("seed")) options.seed = *v;
  if (auto v = args.GetDouble("scale"); v && *v > 0) options.scale = *v;
  if (auto v = args.GetUint("threads")) {
    options.threads = static_cast<uint32_t>(*v);
  }
  return options;
}

// The 18 (domain, attr) scans `wsdctl paper` runs, in its order.
std::vector<std::pair<Domain, Attribute>> PaperScans() {
  std::vector<std::pair<Domain, Attribute>> out;
  for (Attribute a : {Attribute::kPhone, Attribute::kHomepage}) {
    for (Domain d : LocalBusinessDomains()) out.emplace_back(d, a);
  }
  out.emplace_back(Domain::kBooks, Attribute::kIsbn);
  out.emplace_back(Domain::kRestaurants, Attribute::kReviews);
  return out;
}

std::string PairName(Domain d, Attribute a) {
  return ToLower(std::string(DomainName(d))) + "." +
         ToLower(std::string(AttributeName(a)));
}

// ---------------------------------------------------------------------
// Scans, with the corpus build, detector training and scan kernel as
// separate spans (Study::Scan fuses them).

class ScanRunner {
 public:
  ScanRunner(Tracer& tracer, const StudyOptions& options, ThreadPool& pool)
      : tracer_(tracer), options_(options), pool_(pool) {}

  ScanResult Scan(Domain domain, Attribute attr) {
    SyntheticWeb::Config config;
    config.domain = domain;
    config.attr = attr;
    config.num_entities = options_.ScaledEntities();
    config.seed = options_.seed;
    SpreadParams params = DefaultSpreadParams(domain, attr);
    params.num_sites = std::max<uint32_t>(
        64, static_cast<uint32_t>(static_cast<double>(params.num_sites) *
                                  options_.scale));
    config.spread = params;
    std::optional<SyntheticWeb> web;
    {
      Span span(tracer_, "corpus.build_web");
      web.emplace(Unwrap(SyntheticWeb::Create(config), "build web"));
    }
    const ReviewDetector* detector = nullptr;
    if (GetAttributeSpec(attr).review_channel) {
      if (!detector_.has_value()) {
        Span span(tracer_, "text.detector_train");
        detector_.emplace(Unwrap(
            ReviewDetector::CreateDefault(options_.seed ^ 0xdecafULL),
            "train review detector"));
      }
      detector = &*detector_;
    }
    Span span(tracer_, "extract.scan",
              {"wsd.scan.pages", "wsd.scan.bytes", "wsd.scan.mentions",
               "wsd.scan.review_pages", "wsd.corpus.pages_rendered"});
    const ScanPipeline pipeline(*web, pool_, detector);
    return Unwrap(pipeline.Run(), "scan " + PairName(domain, attr));
  }

 private:
  Tracer& tracer_;
  const StudyOptions& options_;
  ThreadPool& pool_;
  std::optional<ReviewDetector> detector_;
};

// ---------------------------------------------------------------------
// paper: every figure and table, rendered exactly as `wsdctl paper` does.

Rows SpreadRows(const CoverageCurve& curve) {
  Rows rows;
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
}

std::string FileStem(const char* prefix, Domain domain) {
  std::string name =
      std::string(prefix) + "_" + ToLower(std::string(DomainName(domain)));
  for (char& c : name) {
    if (!IsAlnum(c) && c != '_') c = '_';
  }
  return name;
}

class PaperRun {
 public:
  PaperRun(Tracer& tracer, const StudyOptions& options, std::string outdir)
      : tracer_(tracer),
        options_(options),
        outdir_(std::move(outdir)),
        pool_(options.threads),
        scans_(tracer, options_, pool_) {}

  void Run() {
    const uint32_t entities = options_.ScaledEntities();
    // Figures 1-3.
    for (const auto& [prefix, attr] :
         {std::pair{"fig1_phone", Attribute::kPhone},
          std::pair{"fig2_homepage", Attribute::kHomepage}}) {
      for (Domain d : LocalBusinessDomains()) {
        Span top(tracer_, std::string("paper.") + prefix);
        const ScanResult& scan = ScanOnce(d, attr);
        Write(FileStem(prefix, d), SpreadRows(KCoverage(scan, entities)));
      }
    }
    {
      Span top(tracer_, "paper.fig3_isbn");
      const ScanResult& scan = ScanOnce(Domain::kBooks, Attribute::kIsbn);
      Write("fig3_isbn_books", SpreadRows(KCoverage(scan, entities)));
    }
    // Figure 4.
    {
      Span top(tracer_, "paper.fig4_reviews");
      const ScanResult& scan =
          ScanOnce(Domain::kRestaurants, Attribute::kReviews);
      Span span(tracer_, "core.review_spread");
      const auto t_values = DefaultCoverageTValues(
          static_cast<uint32_t>(scan.table.num_hosts()));
      const CoverageCurve site = Unwrap(
          ComputeKCoverage(scan.table, entities, 10, t_values), "fig4a");
      const PageCoverageCurve page =
          Unwrap(ComputePageCoverage(scan.table, t_values), "fig4b");
      span.Close();
      Write("fig4a_reviews_sites", SpreadRows(site));
      Rows rows = {{"t", "page_fraction"}};
      for (size_t i = 0; i < page.t_values.size(); ++i) {
        rows.push_back({std::to_string(page.t_values[i]),
                        StrFormat("%.6f", page.page_fraction[i])});
      }
      Write("fig4b_reviews_pages", rows);
    }
    // Figure 5.
    {
      Span top(tracer_, "paper.fig5_setcover");
      const ScanResult& scan =
          ScanOnce(Domain::kRestaurants, Attribute::kHomepage);
      Span span(tracer_, "core.setcover");
      const SetCoverCurve curve = Unwrap(
          GreedySetCover(scan.table, entities,
                         DefaultCoverageTValues(static_cast<uint32_t>(
                             scan.table.num_hosts()))),
          "fig5");
      span.Close();
      Rows rows = {{"t", "greedy", "by_size"}};
      for (size_t i = 0; i < curve.t_values.size(); ++i) {
        rows.push_back({std::to_string(curve.t_values[i]),
                        StrFormat("%.6f", curve.greedy_coverage[i]),
                        StrFormat("%.6f", curve.size_coverage[i])});
      }
      Write("fig5_setcover", rows);
    }
    // Figures 6-8.
    for (TrafficSite site :
         {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
      Span top(tracer_, "paper.value_study");
      ValueStudy(site);
    }
    // Table 2 + Figure 9.
    {
      Rows table2 = {{"domain", "attr", "avg_sites_per_entity", "diameter",
                      "components", "largest_pct"}};
      Rows robustness = {{"domain", "attr", "removed", "largest_fraction"}};
      std::vector<std::pair<Domain, Attribute>> graphs = {
          {Domain::kBooks, Attribute::kIsbn}};
      for (Attribute a : {Attribute::kPhone, Attribute::kHomepage}) {
        for (Domain d : LocalBusinessDomains()) graphs.emplace_back(d, a);
      }
      for (const auto& [d, a] : graphs) {
        Span top(tracer_, "paper.graph");
        Graph(d, a, entities, &table2, &robustness);
      }
      Write("table2_graphs", table2);
      Write("fig9_robustness", robustness);
    }
  }

 private:
  const ScanResult& ScanOnce(Domain d, Attribute a) {
    const auto key = std::make_pair(static_cast<int>(d), static_cast<int>(a));
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, scans_.Scan(d, a)).first;
    }
    return it->second;
  }

  CoverageCurve KCoverage(const ScanResult& scan, uint32_t entities) {
    Span span(tracer_, "core.kcoverage");
    return Unwrap(
        ComputeKCoverage(scan.table, entities, 10,
                         DefaultCoverageTValues(
                             static_cast<uint32_t>(scan.table.num_hosts()))),
        "k-coverage");
  }

  void ValueStudy(TrafficSite site) {
    TrafficSiteParams params = DefaultTrafficParams(site);
    params.num_entities = std::max<uint32_t>(
        256, static_cast<uint32_t>(static_cast<double>(params.num_entities) *
                                   options_.scale));
    std::optional<SitePopulation> population;
    {
      Span span(tracer_, "traffic.population");
      population.emplace(BuildPopulation(params, options_.seed ^ 0x7eaf1cULL));
    }
    DemandEstimator estimator(site, params.num_entities);
    {
      Span span(tracer_, "traffic.generate_count");
      const TrafficLogOptions log_options;
      const TrafficLogGenerator generator(*population, log_options,
                                          options_.seed ^ 0x10656e1ULL);
      uint64_t events = 0;
      for (TrafficChannel channel :
           {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
        generator.Generate(channel, [&](const VisitEvent& e) {
          ++events;
          estimator.Consume(e);
        });
      }
      span.AddCount("traffic.events", events);
    }
    std::optional<DemandTable> demand;
    {
      Span span(tracer_, "traffic.finalize");
      demand.emplace(estimator.Finalize());
    }
    Span span(tracer_, "core.value_add");
    const std::vector<ReviewBinStat> bins =
        Unwrap(AnalyzeValueAdd(*demand, population->reviews), "value add");
    const auto search = CumulativeDemandCurve(demand->search_demand);
    const auto browse = CumulativeDemandCurve(demand->browse_demand);
    span.Close();

    const std::string lower = ToLower(std::string(TrafficSiteName(site)));
    Rows cumulative = {{"inventory_fraction", "search", "browse"}};
    for (size_t i = 0; i < search.size(); ++i) {
      cumulative.push_back({StrFormat("%.4f", search[i].inventory_fraction),
                            StrFormat("%.6f", search[i].demand_fraction),
                            StrFormat("%.6f", browse[i].demand_fraction)});
    }
    Write("fig6_demand_" + lower, cumulative);
    Rows rows = {{"bin", "entities", "search_z", "browse_z", "rel_va_search",
                  "rel_va_browse"}};
    for (const auto& bin : bins) {
      rows.push_back({bin.label, std::to_string(bin.num_entities),
                      StrFormat("%.6f", bin.mean_search_z),
                      StrFormat("%.6f", bin.mean_browse_z),
                      StrFormat("%.6f", bin.rel_va_search),
                      StrFormat("%.6f", bin.rel_va_browse)});
    }
    Write("fig7_fig8_value_" + lower, rows);
  }

  // ComputeGraphMetrics + ComputeRobustness, one span per graph-layer call.
  void Graph(Domain d, Attribute a, uint32_t entities, Rows* table2,
             Rows* robustness) {
    const ScanResult& scan = ScanOnce(d, a);
    std::optional<BipartiteGraph> graph;
    {
      Span span(tracer_, "graph.csr_build");
      graph.emplace(BipartiteGraph::FromHostTable(scan.table, entities));
    }
    if (graph->num_edges() == 0) {
      Die("graph " + PairName(d, a), Status::FailedPrecondition("no edges"));
    }
    ComponentSummary comps;
    {
      Span span(tracer_, "graph.components");
      comps = AnalyzeComponents(*graph, &pool_);
    }
    DiameterResult diameter;
    {
      Span span(tracer_, "graph.diameter", {"wsd.graph.bfs_runs"});
      diameter = ExactDiameter(*graph, 20000, &pool_);
    }
    table2->push_back(
        {std::string(DomainName(d)), std::string(AttributeName(a)),
         StrFormat("%.2f", graph->AvgSitesPerEntity()),
         std::to_string(diameter.diameter),
         std::to_string(comps.num_components),
         StrFormat("%.4f", comps.largest_component_entity_fraction * 100.0)});
    // wsdctl rebuilds the graph for the robustness sweep; so does this.
    {
      Span span(tracer_, "graph.csr_build");
      graph.emplace(BipartiteGraph::FromHostTable(scan.table, entities));
    }
    std::vector<RobustnessPoint> sweep;
    {
      Span span(tracer_, "graph.robustness");
      sweep = RobustnessSweep(*graph, 10, &pool_);
    }
    for (const auto& point : sweep) {
      robustness->push_back(
          {std::string(DomainName(d)), std::string(AttributeName(a)),
           std::to_string(point.removed_sites),
           StrFormat("%.6f", point.largest_component_entity_fraction)});
    }
  }

  void Write(const std::string& name, const Rows& rows) {
    CsvWriter writer('\t');
    Status status = writer.Open(outdir_ + "/" + name + ".tsv");
    if (status.ok()) {
      for (const auto& row : rows) writer.WriteRow(row);
      status = writer.Close();
    }
    if (!status.ok()) Die("write " + name, status);
  }

  Tracer& tracer_;
  StudyOptions options_;
  std::string outdir_;
  ThreadPool pool_;
  ScanRunner scans_;
  std::map<std::pair<int, int>, ScanResult> memo_;
};

// ---------------------------------------------------------------------
// scan_store: cold pass (build, scan, store) then warm pass (reload).

bool SameTable(const HostEntityTable& a, const HostEntityTable& b) {
  if (a.num_hosts() != b.num_hosts()) return false;
  for (size_t i = 0; i < a.num_hosts(); ++i) {
    const HostRecord& x = a.host(i);
    const HostRecord& y = b.host(i);
    if (x.host != y.host || x.pages_scanned != y.pages_scanned ||
        x.bytes_scanned != y.bytes_scanned ||
        x.entities.size() != y.entities.size()) {
      return false;
    }
    for (size_t j = 0; j < x.entities.size(); ++j) {
      if (x.entities[j].entity != y.entities[j].entity ||
          x.entities[j].pages != y.entities[j].pages) {
        return false;
      }
    }
  }
  return true;
}

int RunScanStore(Tracer& tracer, const StudyOptions& options,
                 const std::string& dir,
                 std::vector<std::pair<std::string, std::string>>* results) {
  ThreadPool pool(options.threads);
  ScanRunner scans(tracer, options, pool);
  const ArtifactStore store(dir);
  auto key_for = [&](Domain d, Attribute a) {
    ArtifactKey key;
    key.domain = d;
    key.attr = a;
    key.num_entities = options.num_entities;
    key.seed = options.seed;
    key.scale = options.scale;
    return key;
  };
  std::vector<HostEntityTable> cold;
  for (const auto& [d, a] : PaperScans()) {
    Span top(tracer, "scan_store.cold");
    ScanResult result = scans.Scan(d, a);
    Span span(tracer, "store.write", {"wsd.artifact.write_bytes"});
    const Status status = store.Store(key_for(d, a), result);
    if (!status.ok()) Die("store " + PairName(d, a), status);
    cold.push_back(std::move(result.table));
  }
  size_t mismatches = 0;
  size_t i = 0;
  for (const auto& [d, a] : PaperScans()) {
    Span top(tracer, "scan_store.warm");
    std::optional<ScanResult> loaded;
    {
      Span span(tracer, "store.load",
                {"wsd.artifact.read_bytes", "wsd.store.mmap_fallbacks",
                 "wsd.store.mmap_loads"});
      loaded.emplace(Unwrap(store.Load(key_for(d, a)), "load " + PairName(d, a)));
    }
    if (!SameTable(cold[i++], loaded->table)) {
      std::cerr << "layer_trace: reloaded table differs for "
                << PairName(d, a) << "\n";
      ++mismatches;
    }
  }
  results->emplace_back("tables", std::to_string(cold.size()));
  results->emplace_back("table_mismatches", std::to_string(mismatches));
  return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// serve: the request path of wsdd without sockets.

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("read " + path, Status::IOError("cannot open"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int RunServe(Tracer& tracer, const StudyOptions& options,
             const FlagParser& args,
             std::vector<std::pair<std::string, std::string>>* results) {
  const std::vector<std::string> targets =
      ReadLines(args.GetOr("targets", ""));
  const std::vector<std::string> warm = ReadLines(args.GetOr("warm", ""));
  const std::vector<std::string> requests =
      ReadLines(args.GetOr("requests", ""));
  const size_t cache_bytes =
      static_cast<size_t>(args.GetUint("response-cache-bytes").value_or(
          64u * 1024 * 1024));

  ScanHandleCache scan_cache(options, 256u * 1024 * 1024);
  const HttpLimits limits;
  auto make_context = [&]() {
    auto ctx = std::make_unique<ServeContext>();
    ctx->base = options;
    ctx->cache = &scan_cache;
    ctx->responses.set_max_bytes(cache_bytes);
    return ctx;
  };
  auto handle = [&](ServeContext& ctx, const std::string& target) {
    HttpResponse resp;
    const std::string raw = "GET " + target + " HTTP/1.1\r\nHost: b\r\n\r\n";
    HttpParseResult parsed = ParseHttpRequest(raw, limits);
    if (parsed.state != HttpParseState::kOk) {
      Die("parse " + target, Status::InvalidArgument(parsed.error));
    }
    HandleRequest(ctx, parsed.request, &resp);
    return resp;
  };

  // Set-up, as wsdd's: one request per (domain, attr) fills the scan cache.
  auto ctx = make_context();
  {
    Span span(tracer, "serve.warm");
    for (const std::string& target : warm) {
      if (handle(*ctx, target).status != 200) {
        Die("warm " + target, Status::Internal("non-200"));
      }
    }
  }
  // Reference bodies: every target rendered once with an unbounded memo,
  // written to --bodies as one JSON object {target: body}.
  std::map<std::string, std::string> expected;
  {
    Span span(tracer, "serve.render");
    auto render = make_context();
    render->responses.set_max_bytes(size_t{1} << 40);
    std::ostringstream bodies;
    bodies << "{";
    for (size_t i = 0; i < targets.size(); ++i) {
      const HttpResponse resp = handle(*render, targets[i]);
      if (resp.status != 200) {
        Die("render " + targets[i], Status::Internal("non-200"));
      }
      expected[targets[i]] = resp.body;
      bodies << (i ? "," : "") << JsonString(targets[i]) << ":"
             << JsonString(resp.body);
    }
    bodies << "}\n";
    if (auto path = args.Get("bodies")) {
      std::ofstream out(*path);
      out << bodies.str();
      if (!out.good()) Die("write " + *path, Status::IOError("write failed"));
    }
    results->emplace_back(
        "all_response_bytes",
        std::to_string(render->responses.GetStats().bytes));
  }

  // Replay: fresh response memo (the warm entries included, as in wsdd),
  // requests in the order the load generator sends them.
  static Counter& hits =
      MetricsRegistry::Global().GetCounter("wsd.serve.response_cache.hits");
  size_t mismatches = 0;
  const double replay_start = tracer.Now();
  for (const std::string& target : requests) {
    Span request(tracer, "serve.request");
    const std::string raw = "GET " + target + " HTTP/1.1\r\nHost: b\r\n\r\n";
    std::optional<HttpParseResult> parsed;
    {
      Span span(tracer, "serve.parse");
      parsed.emplace(ParseHttpRequest(raw, limits));
    }
    HttpResponse resp;
    {
      const uint64_t hits_before = hits.value();
      Span span(tracer, "serve.handle_miss",
                {"wsd.serve.errors", "wsd.serve.scan_cache.misses",
                 "wsd.serve.response_cache.evictions"});
      HandleRequest(*ctx, parsed->request, &resp);
      if (hits.value() != hits_before) span.Rename("serve.handle_hit");
    }
    std::string wire;
    {
      Span span(tracer, "serve.serialize");
      wire = SerializeHttpResponse(resp);
    }
    request.Close();
    auto it = expected.find(target);
    if (resp.status != 200 || it == expected.end() ||
        resp.body != it->second || wire.empty()) {
      ++mismatches;
    }
  }
  results->emplace_back("replay_s",
                        StrFormat("%.9f", tracer.Now() - replay_start));
  results->emplace_back("requests", std::to_string(requests.size()));
  results->emplace_back("body_mismatches", std::to_string(mismatches));
  return mismatches == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const FlagParser args(argc, argv);
  if (args.positional().empty()) {
    std::cerr << "usage: layer_trace paper|scan_store|serve [flags]\n";
    return 2;
  }
  const std::string mode = args.positional()[0];
  const StudyOptions options = OptionsFrom(args);
  Tracer tracer(!args.Has("untraced"));
  const auto before = CounterSnapshot();
  const auto start = Clock::now();
  std::vector<std::pair<std::string, std::string>> results;
  int rc = 0;
  if (mode == "paper") {
    PaperRun run(tracer, options, args.GetOr("outdir", "."));
    run.Run();
  } else if (mode == "scan_store") {
    rc = RunScanStore(tracer, options, args.GetOr("dir", "artifacts"),
                      &results);
  } else if (mode == "serve") {
    rc = RunServe(tracer, options, args, &results);
  } else {
    std::cerr << "layer_trace: unknown mode '" << mode << "'\n";
    return 2;
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  PrintReport(tracer, wall, before, results);
  return rc;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
