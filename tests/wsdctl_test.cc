// Integration smoke tests for the wsdctl CLI: exit codes, TSV output,
// and the gen-cache/scan-cache loop, exercised through the real binary,
// plus the byte parity of its TSVs with wsdd's in-process responses.
// Skipped gracefully if the tools target was not built.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "entity/domains.h"
#include "extract/attribute_registry.h"
#include "extract/host_table.h"
#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/scan_cache.h"
#include "store/snapshot.h"
#include "traffic/url_patterns.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace wsd {
namespace {

namespace fs = std::filesystem;

// The test binary runs with CWD = build/tests; the CLI sits in
// ../tools/wsdctl. Fall back to a PATH-relative probe for other layouts.
std::string CliPath() {
  for (const char* candidate :
       {"../tools/wsdctl", "./tools/wsdctl", "build/tools/wsdctl"}) {
    if (fs::exists(candidate)) return candidate;
  }
  return "";
}

// Runs the CLI with stdout sent to `stdout_path`; returns the exit code.
int RunCli(const std::string& args,
           const std::string& stdout_path = "/dev/null") {
  const std::string cli = CliPath();
  if (cli.empty()) return -1;
  const std::string command =
      cli + " " + args + " > " + stdout_path + " 2>/dev/null";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

#define SKIP_WITHOUT_CLI()                              \
  if (CliPath().empty()) {                              \
    GTEST_SKIP() << "wsdctl binary not found";          \
  }

TEST(WsdctlTest, HelpAndUnknownCommand) {
  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("help"), 0);
  EXPECT_EQ(RunCli(""), 0);  // no args -> help
  EXPECT_EQ(RunCli("frobnicate"), 2);
}

// Mixed case: every other letter upper-cased.
std::string MixedCase(std::string_view name) {
  std::string out(name);
  for (size_t i = 0; i < out.size(); i += 2) {
    out[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(out[i])));
  }
  return out;
}

TEST(WsdctlTest, RejectsBadDomainOrAttr) {
  // The shared vocabulary tables round-trip every name in lower, upper
  // and mixed case, and reject unknown names.
  for (Domain d : AllDomains()) {
    const std::string_view name = DomainFlagName(d);
    EXPECT_EQ(ParseDomain(name), d) << name;
    EXPECT_EQ(ParseDomain(ToUpper(name)), d) << name;
    EXPECT_EQ(ParseDomain(MixedCase(name)), d) << name;
  }
  for (const AttributeSpec& spec : AllAttributeSpecs()) {
    for (const std::string& name :
         {std::string(spec.name), ToUpper(spec.name), MixedCase(spec.name)}) {
      const AttributeSpec* found = FindAttributeByName(name);
      ASSERT_NE(found, nullptr) << name;
      EXPECT_EQ(found->attr, spec.attr) << name;
    }
  }
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    const std::string lower = ToLower(TrafficSiteName(site));
    EXPECT_EQ(ParseTrafficSite(lower), site) << lower;
    EXPECT_EQ(ParseTrafficSite(ToUpper(lower)), site) << lower;
    EXPECT_EQ(ParseTrafficSite(MixedCase(lower)), site) << lower;
  }
  for (const char* unknown :
       {"", "nonsense", "book", "homes", "Hotels & Lodging"}) {
    EXPECT_EQ(ParseDomain(unknown), std::nullopt) << unknown;
    EXPECT_EQ(FindAttributeByName(unknown), nullptr) << unknown;
    EXPECT_EQ(ParseTrafficSite(unknown), std::nullopt) << unknown;
  }

  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("spread --domain nonsense --attr phone"), 2);
  EXPECT_EQ(RunCli("spread --domain banks --attr nonsense"), 2);
  EXPECT_EQ(RunCli("value --site myspace"), 2);
  EXPECT_EQ(RunCli("graph --domain BaNkS --attr PHONE --entities 300 "
                   "--scale 0.05 --seed 3"),
            0);
}

TEST(WsdctlTest, SpreadWritesTsv) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_spread.tsv").string();
  ASSERT_EQ(RunCli("spread --domain banks --attr phone --entities 300 "
                "--scale 0.05 --seed 3 --out " +
                out),
            0);
  std::ifstream in(out);
  ASSERT_TRUE(in.is_open());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("t\tk1\tk2", 0), 0u) << header;
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_GT(rows, 3);
  std::remove(out.c_str());
}

TEST(WsdctlTest, GenCacheThenScanCache) {
  SKIP_WITHOUT_CLI();
  const std::string cache =
      (fs::temp_directory_path() / "wsdctl_cache.bin").string();
  const std::string common =
      "--domain banks --attr phone --entities 300 --scale 0.05 --seed 3 ";
  ASSERT_EQ(RunCli("gen-cache " + common + "--out " + cache), 0);
  ASSERT_TRUE(fs::exists(cache));
  EXPECT_GT(fs::file_size(cache), 1000u);
  EXPECT_EQ(RunCli("scan-cache " + common + "--in " + cache), 0);
  // Scanning a missing cache fails.
  EXPECT_EQ(RunCli("scan-cache " + common + "--in /nonexistent/c.bin"), 1);
  std::remove(cache.c_str());
}

TEST(WsdctlTest, GraphCommandRuns) {
  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("graph --domain banks --attr phone --entities 300 "
                "--scale 0.05 --seed 3"),
            0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(WsdctlTest, MetricsSubcommandDumpsPopulatedRegistry) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_metrics.prom").string();
  const std::string command =
      CliPath() +
      " metrics --domain banks --attr phone --entities 300 --scale 0.05"
      " --seed 3 > " +
      out + " 2>/dev/null";
  ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0);
  const std::string text = ReadFile(out);
  // Counters, gauges and shard/run/task histograms must all be present
  // after a scan (Prometheus exposition names).
  EXPECT_NE(text.find("wsd_scan_pages "), std::string::npos) << text;
  EXPECT_NE(text.find("wsd_pool_tasks_completed "), std::string::npos);
  EXPECT_NE(text.find("wsd_scan_pages_per_sec "), std::string::npos);
  EXPECT_NE(text.find("wsd_scan_shard_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("wsd_scan_run_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("wsd_pool_task_seconds_sum"), std::string::npos);
  std::remove(out.c_str());
}

TEST(WsdctlTest, MetricsOutWritesJsonForAnyCommand) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_metrics.json").string();
  ASSERT_EQ(RunCli("graph --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 3 --metrics_out=" +
                   out),
            0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("\"wsd.scan.pages\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"wsd.graph.diameter_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"wsd.graph.components_seconds\""), std::string::npos);
  std::remove(out.c_str());
}

// An unopenable --metrics_out fails before the command runs: exit 1
// naming the path, and nothing the command would write exists.
TEST(WsdctlTest, UnopenableMetricsOutFailsBeforeAnyWork) {
  SKIP_WITHOUT_CLI();
  const fs::path tmp = fs::temp_directory_path();
  const std::string missing = (tmp / "wsdctl_no_such_dir" / "m.json").string();
  const std::string tsv = (tmp / "wsdctl_metrics_early.tsv").string();
  const std::string log = (tmp / "wsdctl_metrics_early.txt").string();
  fs::remove_all(tmp / "wsdctl_no_such_dir");
  std::remove(tsv.c_str());
  const std::string command =
      CliPath() + " spread --domain=banks --attr=phone --entities 300 " +
      "--scale 0.05 --seed 3 --out=" + tsv + " --metrics_out=" + missing +
      " > /dev/null 2> " + log;
  EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 1);
  EXPECT_NE(ReadFile(log).find(missing), std::string::npos) << ReadFile(log);
  EXPECT_FALSE(fs::exists(tsv)) << "the command ran before the check";
  std::remove(log.c_str());
}

TEST(WsdctlTest, ScanWritesLoadableSnapshot) {
  SKIP_WITHOUT_CLI();
  const std::string snap =
      (fs::temp_directory_path() / "wsdctl_scan.wsdsnap").string();
  const std::string tsv =
      (fs::temp_directory_path() / "wsdctl_scan.tsv").string();
  ASSERT_EQ(RunCli("scan --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 3 --out=" +
                   snap + " --table-out=" + tsv),
            0);
  auto loaded = LoadSnapshotFile(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ScanResult& parsed = loaded->result;
  EXPECT_GT(parsed.table.num_hosts(), 0u);
  EXPECT_GT(parsed.stats.pages_scanned, 0u);
  // The snapshot's table matches the TSV the same run wrote.
  auto table = HostEntityTable::ReadTsv(tsv);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(parsed.table.num_hosts(), table->num_hosts());
  for (size_t i = 0; i < table->num_hosts(); ++i) {
    EXPECT_EQ(parsed.table.host(i).host, table->host(i).host);
    EXPECT_EQ(parsed.table.host(i).entities.size(),
              table->host(i).entities.size());
  }
  std::remove(snap.c_str());
  std::remove(tsv.c_str());
}

// ---------------------------------------------------------------------
// Sharded scans and merge.

const char kShardCommon[] =
    "--domain banks --attr phone --entities 300 --scale 0.05 --seed 3 ";

TEST(WsdctlTest, ShardScanRejectsBadSpecsWithUsageError) {
  SKIP_WITHOUT_CLI();
  const std::string snap =
      (fs::temp_directory_path() / "wsdctl_badshard.wsdsnap").string();
  std::remove(snap.c_str());
  for (const char* spec : {"0/4", "5/4", "a/b", "1/0", "4", "1//4", ""}) {
    EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard '" +
                     spec + "' --out=" + snap),
              2)
        << spec;
    EXPECT_FALSE(fs::exists(snap)) << spec;
  }
  // A shard scan without --out has nowhere to put the slice.
  EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard 1/4"), 2);
}

TEST(WsdctlTest, ShardScanUnwritableOutFailsWithoutPartialFile) {
  SKIP_WITHOUT_CLI();
  const std::string out = "/nonexistent-dir/shard.wsdsnap";
  EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--shard 1/4 --out=" + out),
            1);
  EXPECT_FALSE(fs::exists(out));
}

TEST(WsdctlTest, ShardScanMergeMatchesMonolithicByteForByte) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_shards").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  std::string shard_paths;
  for (int i = 1; i <= 2; ++i) {
    const std::string path = dir + "/shard" + std::to_string(i) + ".wsdsnap";
    ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard " +
                     std::to_string(i) + "/2 --out=" + path),
              0);
    shard_paths += path + " ";
  }
  const std::string merged = dir + "/merged.wsdsnap";
  ASSERT_EQ(RunCli("merge " + shard_paths + "--out=" + merged), 0);

  const std::string mono = dir + "/mono.wsdsnap";
  ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--canonical --out=" + mono),
            0);
  EXPECT_EQ(ReadFile(merged), ReadFile(mono))
      << "merged shards must be bit-identical to the monolithic scan";
  fs::remove_all(dir);
}

TEST(WsdctlTest, MergeRejectsMismatchedAndIncompleteShards) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_badmerge").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  const std::string a = dir + "/a.wsdsnap";  // seed 3, shard 1/2
  const std::string b = dir + "/b.wsdsnap";  // seed 4, shard 2/2
  ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--shard 1/2 --out=" + a),
            0);
  ASSERT_EQ(RunCli("scan --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 4 --shard 2/2 --out=" +
                   b),
            0);

  const std::string out = dir + "/merged.wsdsnap";
  // Same shard layout, different provenance (seed): refused.
  EXPECT_EQ(RunCli("merge " + a + " " + b + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // Incomplete shard set: refused.
  EXPECT_EQ(RunCli("merge " + a + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // Duplicate slot: refused.
  EXPECT_EQ(RunCli("merge " + a + " " + a + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // No inputs / no destination: usage errors.
  EXPECT_EQ(RunCli("merge --out=" + out), 2);
  EXPECT_EQ(RunCli("merge " + a), 2);
  fs::remove_all(dir);
}

TEST(WsdctlTest, MergeInstallsIntoArtifactStoreForWarmStudies) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_merge_art").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  std::string shard_paths;
  for (int i = 1; i <= 2; ++i) {
    const std::string path = dir + "/shard" + std::to_string(i) + ".wsdsnap";
    ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard " +
                     std::to_string(i) + "/2 --out=" + path),
              0);
    shard_paths += path + " ";
  }
  const std::string art = dir + "/artifacts";
  ASSERT_EQ(RunCli("merge " + shard_paths + "--artifacts=" + art), 0);

  // A warm run resolves the scan from the installed artifact via the
  // mmap fast path: zero live scans.
  const std::string warm_json = dir + "/warm.json";
  ASSERT_EQ(RunCli(std::string("spread ") + kShardCommon + "--artifacts=" +
                   art + " --metrics_out=" + warm_json),
            0);
  const std::string warm = ReadFile(warm_json);
  EXPECT_NE(warm.find("\"wsd.artifact.hits\": 1"), std::string::npos) << warm;
  EXPECT_EQ(warm.find("\"wsd.scan.runs\""), std::string::npos) << warm;
  EXPECT_NE(warm.find("\"wsd.store.mmap_loads\": 1"), std::string::npos)
      << warm;
  fs::remove_all(dir);
}

TEST(WsdctlTest, ArtifactsFlagCachesAcrossRuns) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_artifacts").string();
  const std::string cold_json =
      (fs::temp_directory_path() / "wsdctl_cold.json").string();
  const std::string warm_json =
      (fs::temp_directory_path() / "wsdctl_warm.json").string();
  fs::remove_all(dir);
  const std::string flags =
      "spread --domain banks --attr phone --entities 300 --scale 0.05 "
      "--seed 3 --artifacts=" +
      dir;
  ASSERT_EQ(RunCli(flags + " --metrics_out=" + cold_json), 0);
  const std::string cold = ReadFile(cold_json);
  EXPECT_NE(cold.find("\"wsd.scan.runs\": 1"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"wsd.artifact.write_bytes\""), std::string::npos);

  // Second process: the scan is answered from the artifact store.
  ASSERT_EQ(RunCli(flags + " --metrics_out=" + warm_json), 0);
  const std::string warm = ReadFile(warm_json);
  EXPECT_NE(warm.find("\"wsd.artifact.hits\": 1"), std::string::npos) << warm;
  EXPECT_EQ(warm.find("\"wsd.scan.runs\""), std::string::npos) << warm;
  fs::remove_all(dir);
  std::remove(cold_json.c_str());
  std::remove(warm_json.c_str());
}

TEST(WsdctlTest, PaperCreatesMissingNestedOutdir) {
  SKIP_WITHOUT_CLI();
  const std::string root =
      (fs::temp_directory_path() / "wsdctl_paper_mkdir").string();
  fs::remove_all(root);
  const std::string outdir = root + "/nested/out";
  ASSERT_EQ(RunCli("paper --entities 400 --scale 0.05 --seed 42 --outdir " +
                   outdir),
            0);
  EXPECT_TRUE(fs::exists(outdir + "/table2_graphs.tsv"));

  // A directory cannot be created under a regular file: exit 1, and the
  // error names the path.
  const std::string blocker = root + "/file";
  std::ofstream(blocker) << "x";
  const std::string bad = blocker + "/out";
  const std::string log = root + "/stderr.txt";
  const std::string command = CliPath() +
                              " paper --entities 400 --scale 0.05 --outdir " +
                              bad + " > " + log + " 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 1);
  EXPECT_NE(ReadFile(log).find(bad), std::string::npos) << ReadFile(log);
  fs::remove_all(root);
}

// Byte-identity pin for `wsdctl paper`: at this small fixed config the
// command must keep writing exactly these TSVs. The digest is XXH64 over
// "<name>\n<size>\n<bytes>" for every output file in name order. A
// change that is meant to alter paper output updates the constant and
// says why.
TEST(WsdctlTest, PaperOutputDigestIsPinned) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_paper_digest").string();
  const std::string log = dir + ".stdout";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  ASSERT_EQ(RunCli("paper --entities 400 --scale 0.05 --seed 42 --outdir " +
                       dir,
                   log),
            0);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::string blob;
  for (const std::string& name : names) {
    const std::string bytes = ReadFile(dir + "/" + name);
    blob += name + "\n" + std::to_string(bytes.size()) + "\n" + bytes;
  }
  EXPECT_EQ(names.size(), 28u);
  EXPECT_EQ(std::count_if(names.begin(), names.end(),
                          [](const std::string& name) {
                            return name.ends_with(".tsv");
                          }),
            28);
  EXPECT_EQ(XxHash64(blob), 0x92510b4698544a94ULL);
  fs::remove_all(dir);

  // After the TSVs, stdout carries the paper-vs-measured anchor lines of
  // Tables 1-2 and Figs 1-9; at this config every one of them prints.
  const std::string stdout_text = ReadFile(log);
  size_t anchors = 0;
  for (size_t pos = stdout_text.find("anchor: "); pos != std::string::npos;
       pos = stdout_text.find("anchor: ", pos + 1)) {
    ++anchors;
  }
  EXPECT_EQ(anchors, 23u) << stdout_text;
  EXPECT_LT(stdout_text.find("fig9_robustness.tsv"),
            stdout_text.find("anchor: "));
  std::remove(log.c_str());
}

// A present but malformed numeric flag is a usage error that names the
// flag; it never falls back to the default or truncates the value.
// 4294967696 is 2^32 + 400: a truncating reader would silently run 400
// entities. 5000000000 goes through `domains`, which scans nothing,
// because a truncating reader would otherwise start a 35M-entity run.
TEST(WsdctlTest, MalformedNumericFlagsAreUsageErrors) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_bad_flags").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string out = dir + "/a.tsv";
  const std::string log = dir + "/stderr.txt";
  const std::string spread =
      "spread --domain books --attr isbn --entities 400 --scale 0.05 "
      "--seed 42 ";
  for (const auto& [args, name] :
       {std::pair{spread + "--seed abc", "--seed"},
        std::pair{spread + "--scale -3", "--scale"},
        std::pair{spread + "--entities 4294967696", "--entities"},
        std::pair{std::string("domains --entities 5000000000"),
                  "--entities"},
        std::pair{std::string("bootstrap --seeds abc"), "--seeds"},
        std::pair{std::string("bootstrap --seeds 0"), "--seeds"}}) {
    const std::string command =
        CliPath() + " " + args + " --out " + out + " > /dev/null 2> " + log;
    EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 2) << args;
    EXPECT_FALSE(fs::exists(out)) << args;
    EXPECT_NE(ReadFile(log).find(name), std::string::npos) << ReadFile(log);
  }
  fs::remove_all(dir);
}

// Every `paper` failure prints its Status and names the file. Tests run
// as root, where chmod cannot make a file unwritable, so a directory
// squats on the output's name instead.
TEST(WsdctlTest, PaperNamesUnwritableOutput) {
  SKIP_WITHOUT_CLI();
  const std::string root =
      (fs::temp_directory_path() / "wsdctl_paper_blocked").string();
  const std::string log =
      (fs::temp_directory_path() / "wsdctl_paper_blocked.txt").string();
  for (const char* name : {"fig3_isbn_books.tsv", "fig5_setcover.tsv"}) {
    fs::remove_all(root);
    const std::string blocked = root + "/" + name;
    ASSERT_TRUE(fs::create_directories(blocked));
    const std::string command =
        CliPath() + " paper --entities 400 --scale 0.05 --seed 42 --outdir " +
        root + " > /dev/null 2> " + log;
    EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 1) << name;
    EXPECT_NE(ReadFile(log).find(blocked), std::string::npos)
        << ReadFile(log);
  }
  fs::remove_all(root);
  std::remove(log.c_str());
}

// docs/SERVING.md promises that a wsdd TSV response is byte-identical to
// the `wsdctl --out` file for the same analysis and config. Both front
// ends render through core/report; this compares the two for every
// analysis endpoint.
TEST(WsdctlTest, TsvMatchesServedBody) {
  SKIP_WITHOUT_CLI();
  StudyOptions options;
  options.num_entities = 400;
  options.scale = 0.05;
  options.seed = 42;
  options.threads = 1;
  ScanHandleCache cache(options, 64u * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;

  const std::string out =
      (fs::temp_directory_path() / "wsdctl_parity.tsv").string();
  const std::string log =
      (fs::temp_directory_path() / "wsdctl_parity.stdout").string();
  const std::pair<const char*, const char*> kCases[] = {
      {"spread --domain books --attr isbn", "/spread?domain=books&attr=isbn"},
      {"setcover --domain restaurants --attr homepage",
       "/setcover?domain=restaurants&attr=homepage"},
      {"graph --domain banks --attr phone", "/graph?domain=banks&attr=phone"},
      {"value --site yelp", "/demand?site=yelp"},
  };
  for (const auto& [command, target] : kCases) {
    std::remove(out.c_str());
    ASSERT_EQ(RunCli(std::string(command) +
                         " --entities 400 --scale 0.05 --seed 42 --out " +
                         out,
                     log),
              0)
        << command;
    const auto parsed = ParseHttpRequest(
        std::string("GET ") + target + "&format=tsv HTTP/1.1\r\n\r\n",
        HttpLimits());
    ASSERT_EQ(parsed.state, HttpParseState::kOk) << target;
    HttpResponse resp;
    HandleRequest(ctx, parsed.request, &resp);
    ASSERT_EQ(resp.status, 200) << target << ": " << resp.body;
    EXPECT_EQ(resp.content_type, "text/tab-separated-values");
    EXPECT_EQ(ReadFile(out), resp.body) << command;
    if (std::string(command).starts_with("value")) {
      // The panels that have no TSV of their own: Fig 6(b)/(d) and the
      // §4.3.1 step-decay comparison, printed before the --out note.
      const std::string text = ReadFile(log);
      for (const char* panel :
           {"Fig 6(b): relative demand vs rank, search data",
            "Fig 6(d): relative demand vs rank, browse data",
            "step decay (zero value once n >= 10) vs inverse-linear",
            "anchor: step decay shifts value toward the tail"}) {
        EXPECT_NE(text.find(panel), std::string::npos) << panel << "\n"
                                                       << text;
      }
    }
  }
  std::remove(out.c_str());
  std::remove(log.c_str());
}

}  // namespace
}  // namespace wsd
