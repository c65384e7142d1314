// Tests for snapshot merging: the tentpole acceptance criterion is that
// merging a complete set of shard scans reproduces the monolithic
// canonical snapshot bit for bit — for every attribute kind, at several
// thread counts, and across shard widths. Also covers the fail-closed
// validation matrix (provenance, slots, ownership, duplicates) and the
// file-level merge path (no partial output on failure).

#include "store/merge.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/study.h"
#include "store/snapshot.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace wsd {
namespace {

namespace fs = std::filesystem;

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("wsd_merge_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

StudyOptions SmallOptions(uint32_t threads) {
  StudyOptions options;
  options.num_entities = 1000;
  options.scale = 0.05;
  options.seed = 11;
  options.threads = threads;
  return options;
}

SnapshotMeta MetaFor(const StudyOptions& options, Domain domain,
                     Attribute attr) {
  SnapshotMeta meta;
  meta.domain = domain;
  meta.attr = attr;
  meta.num_entities = options.num_entities;
  meta.seed = options.seed;
  meta.scale_bits = CanonicalScaleBits(options.scale);
  return meta;
}

// The monolithic scan in canonical form, serialized (aligned, shard 0/1).
std::string MonolithicBytes(const StudyOptions& options, Domain domain,
                            Attribute attr) {
  Study study(options);
  auto scanned = study.RunShardScan(domain, attr, ShardSpec{});
  EXPECT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_TRUE(CanonicalizeScanResult(&*scanned).ok());
  auto bytes = SerializeSnapshotAligned(*scanned, MetaFor(options, domain, attr));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *bytes;
}

// Scans shard i/n for i in [0, n) and returns the canonicalized parsed
// snapshots, each carrying its slot in the meta.
std::vector<ParsedSnapshot> ScanShards(const StudyOptions& options,
                                       Domain domain, Attribute attr,
                                       uint32_t n) {
  std::vector<ParsedSnapshot> shards;
  Study study(options);
  for (uint32_t i = 0; i < n; ++i) {
    ShardSpec spec;
    spec.index = i;
    spec.count = n;
    auto scanned = study.RunShardScan(domain, attr, spec);
    EXPECT_TRUE(scanned.ok()) << scanned.status();
    ParsedSnapshot shard;
    shard.result = std::move(scanned).value();
    EXPECT_TRUE(CanonicalizeScanResult(&shard.result).ok());
    SnapshotMeta meta = MetaFor(options, domain, attr);
    meta.shard_index = i;
    meta.shard_count = n;
    shard.meta = meta;
    shards.push_back(std::move(shard));
  }
  return shards;
}

std::string MergedBytes(std::vector<ParsedSnapshot> shards) {
  auto merged = MergeSnapshots(std::move(shards));
  EXPECT_TRUE(merged.ok()) << merged.status();
  auto bytes = SerializeSnapshotAligned(merged->result, merged->meta);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *bytes;
}

// ---------------------------------------------------------------------
// Tentpole acceptance: merged == monolithic, bit for bit.

TEST(MergeTest, FourShardsMergeBitIdenticalAcrossThreadCounts) {
  for (const uint32_t threads : {1u, 2u, 8u}) {
    const StudyOptions options = SmallOptions(threads);
    const std::string mono =
        MonolithicBytes(options, Domain::kBanks, Attribute::kPhone);
    const std::string merged = MergedBytes(
        ScanShards(options, Domain::kBanks, Attribute::kPhone, 4));
    EXPECT_EQ(mono, merged) << "threads=" << threads;
  }
}

TEST(MergeTest, MergeIsBitIdenticalForEveryAttributeKind) {
  const StudyOptions options = SmallOptions(2);
  const std::vector<std::pair<Domain, Attribute>> combos = {
      {Domain::kBanks, Attribute::kPhone},
      {Domain::kBooks, Attribute::kIsbn},
      {Domain::kRestaurants, Attribute::kHomepage},
      {Domain::kRestaurants, Attribute::kReviews},
  };
  for (const auto& [domain, attr] : combos) {
    const std::string mono = MonolithicBytes(options, domain, attr);
    const std::string merged =
        MergedBytes(ScanShards(options, domain, attr, 3));
    EXPECT_EQ(mono, merged)
        << DomainName(domain) << "/" << AttributeName(attr);
  }
}

TEST(MergeTest, SingleShardMergeIsIdentity) {
  const StudyOptions options = SmallOptions(2);
  const std::string mono =
      MonolithicBytes(options, Domain::kBanks, Attribute::kPhone);
  const std::string merged = MergedBytes(
      ScanShards(options, Domain::kBanks, Attribute::kPhone, 1));
  EXPECT_EQ(mono, merged);
}

TEST(MergeTest, MergeCountsMetrics) {
  const StudyOptions options = SmallOptions(2);
  auto shards = ScanShards(options, Domain::kBanks, Attribute::kPhone, 2);
  const uint64_t merges0 = CounterValue("wsd.store.merges");
  const uint64_t inputs0 = CounterValue("wsd.store.merge_inputs");
  const uint64_t hosts0 = CounterValue("wsd.store.merge_hosts");
  auto merged = MergeSnapshots(std::move(shards));
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(CounterValue("wsd.store.merges"), merges0 + 1);
  EXPECT_EQ(CounterValue("wsd.store.merge_inputs"), inputs0 + 2);
  EXPECT_EQ(CounterValue("wsd.store.merge_hosts"),
            hosts0 + merged->result.table.num_hosts());
  // Merged provenance is a whole-corpus snapshot.
  EXPECT_EQ(merged->meta.shard_index, 0u);
  EXPECT_EQ(merged->meta.shard_count, 1u);
}

// ---------------------------------------------------------------------
// Fail-closed validation.

// A tiny hand-built shard pair (n = 2) with hosts placed according to
// their actual FNV hash slot.
std::vector<ParsedSnapshot> HandBuiltShards() {
  std::vector<ParsedSnapshot> shards(2);
  for (uint32_t i = 0; i < 2; ++i) {
    SnapshotMeta meta;
    meta.domain = Domain::kBanks;
    meta.attr = Attribute::kPhone;
    meta.num_entities = 100;
    meta.seed = 1;
    meta.scale_bits = CanonicalScaleBits(1.0);
    meta.shard_index = i;
    meta.shard_count = 2;
    shards[i].meta = meta;
  }
  std::vector<HostRecord> slot0;
  std::vector<HostRecord> slot1;
  for (int h = 0; h < 8; ++h) {
    HostRecord rec;
    rec.host = "host" + std::to_string(h) + ".example.com";
    rec.entities = {{static_cast<EntityId>(h), 1}};
    rec.pages_scanned = 1;
    ((Fnv1a64(rec.host) % 2 == 0) ? slot0 : slot1).push_back(std::move(rec));
  }
  shards[0].result.table = HostEntityTable(std::move(slot0));
  shards[1].result.table = HostEntityTable(std::move(slot1));
  for (ParsedSnapshot& shard : shards) {
    shard.result.stats.hosts_scanned = shard.result.table.num_hosts();
    EXPECT_TRUE(CanonicalizeScanResult(&shard.result).ok());
  }
  return shards;
}

TEST(MergeTest, HandBuiltShardsMerge) {
  auto merged = MergeSnapshots(HandBuiltShards());
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->result.table.num_hosts(), 8u);
  EXPECT_EQ(merged->result.stats.hosts_scanned, 8u);
}

TEST(MergeTest, RejectsEmptyInput) {
  EXPECT_TRUE(MergeSnapshots({}).status().IsInvalidArgument());
}

TEST(MergeTest, RejectsProvenanceMismatch) {
  auto shards = HandBuiltShards();
  shards[1].meta.seed = 2;  // same shard layout, different scan inputs
  auto status = MergeSnapshots(std::move(shards)).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(MergeTest, RejectsMissingShard) {
  auto shards = HandBuiltShards();
  shards.pop_back();  // 1 input claiming shard_count 2
  EXPECT_TRUE(
      MergeSnapshots(std::move(shards)).status().IsInvalidArgument());
}

TEST(MergeTest, RejectsDuplicateShardSlot) {
  auto shards = HandBuiltShards();
  shards[1] = std::move(shards[0]);  // slot 0 twice
  auto fresh = HandBuiltShards();
  shards[0] = std::move(fresh[0]);
  EXPECT_TRUE(
      MergeSnapshots(std::move(shards)).status().IsInvalidArgument());
}

TEST(MergeTest, RejectsOwnershipViolation) {
  auto shards = HandBuiltShards();
  // Move one of shard 1's hosts into shard 0's table: the host's hash
  // says it belongs to slot 1, so shard 0 cannot legitimately contain it.
  auto hosts1 = shards[1].result.table.hosts();
  ASSERT_FALSE(hosts1.empty());
  auto hosts0 = shards[0].result.table.hosts();
  hosts0.push_back(hosts1.back());
  shards[0].result.table = HostEntityTable(std::move(hosts0));
  ASSERT_TRUE(CanonicalizeScanResult(&shards[0].result).ok());
  auto status = MergeSnapshots(std::move(shards)).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(MergeTest, CanonicalizeSortsZeroesWallAndRejectsDuplicates) {
  std::vector<HostRecord> hosts;
  for (const char* name : {"zeta.example.com", "alpha.example.com"}) {
    HostRecord rec;
    rec.host = name;
    hosts.push_back(std::move(rec));
  }
  ScanResult result;
  result.table = HostEntityTable(std::move(hosts));
  result.stats.wall_seconds = 12.5;
  ASSERT_TRUE(CanonicalizeScanResult(&result).ok());
  EXPECT_EQ(result.table.host(0).host, "alpha.example.com");
  EXPECT_EQ(result.table.host(1).host, "zeta.example.com");
  EXPECT_EQ(result.stats.wall_seconds, 0.0);

  // A duplicate host name breaks the total order: fail, don't guess.
  auto dup_hosts = result.table.hosts();
  dup_hosts.push_back(dup_hosts.front());
  ScanResult dup;
  dup.table = HostEntityTable(std::move(dup_hosts));
  EXPECT_TRUE(CanonicalizeScanResult(&dup).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// File-level merge.

TEST(MergeFilesTest, MergesFilesAndFailsWithoutPartialOutput) {
  const std::string dir = FreshDir("files");
  ASSERT_TRUE(fs::create_directories(dir));
  const StudyOptions options = SmallOptions(2);
  auto shards = ScanShards(options, Domain::kBanks, Attribute::kPhone, 2);
  std::vector<std::string> paths;
  for (size_t i = 0; i < shards.size(); ++i) {
    paths.push_back(dir + "/shard" + std::to_string(i) + ".wsdsnap");
    ASSERT_TRUE(WriteSnapshotFileAligned(paths.back(), shards[i].result,
                                         shards[i].meta)
                    .ok());
  }

  const std::string out = dir + "/merged.wsdsnap";
  ASSERT_TRUE(MergeSnapshotFiles(paths, out).ok());
  auto loaded = LoadSnapshotFile(out);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(MergedBytes(std::move(shards)),
            *SerializeSnapshotAligned(loaded->result, loaded->meta));

  // Incomplete input set: no output file may appear (or survive).
  const std::string bad_out = dir + "/bad.wsdsnap";
  EXPECT_FALSE(MergeSnapshotFiles({paths[0]}, bad_out).ok());
  EXPECT_FALSE(fs::exists(bad_out));

  // Unreadable input: the error names the file.
  const std::string missing = dir + "/nope.wsdsnap";
  const Status status = MergeSnapshotFiles({paths[0], missing}, bad_out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nope.wsdsnap"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(fs::exists(bad_out));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wsd
