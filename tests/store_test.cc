// Tests for the scan-artifact store: snapshot round trips (including
// TSV-loaded, empty and zero-page tables), fail-closed parsing of
// malformed bytes and nonzero reserved words, ArtifactStore
// hit/miss/fallback semantics, and the scan-once acceptance check (one
// live scan per (domain, attr) however many analyses consume it).

#include "store/artifact_store.h"
#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/study.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace wsd {
namespace {

namespace fs = std::filesystem;

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// A fresh directory under the test tmp root, wiped on construction.
std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("wsd_store_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

ScanResult MakeResult() {
  std::vector<HostRecord> hosts;
  {
    HostRecord rec;
    rec.host = "alpha.example.com";
    rec.entities = {{0, 3}, {5, 1}, {17, 2}};
    rec.pages_scanned = 12;
    rec.bytes_scanned = 34567;
    hosts.push_back(std::move(rec));
  }
  {
    // A host the scan visited but where nothing matched — and with zero
    // pages (possible for TSV-loaded tables, which carry no page totals).
    HostRecord rec;
    rec.host = "beta.example.net";
    hosts.push_back(std::move(rec));
  }
  {
    HostRecord rec;
    rec.host = "gamma.example.org";
    // Adjacent duplicate ids are legal for TSV-loaded tables (ReadTsv
    // sorts but does not deduplicate), so the format must round-trip
    // them (delta 0).
    rec.entities = {{2, 1}, {2, 4}, {1000000, 7}};
    rec.pages_scanned = 1;
    hosts.push_back(std::move(rec));
  }
  ScanResult result;
  result.table = HostEntityTable(std::move(hosts));
  result.stats.hosts_scanned = 3;
  result.stats.pages_scanned = 13;
  result.stats.bytes_scanned = 34567;
  result.stats.entity_mentions = 18;
  result.stats.review_pages = 2;
  result.stats.skipped_urls = 1;
  result.stats.wall_seconds = 0.25;
  return result;
}

void ExpectSameResult(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.stats.hosts_scanned, b.stats.hosts_scanned);
  EXPECT_EQ(a.stats.pages_scanned, b.stats.pages_scanned);
  EXPECT_EQ(a.stats.bytes_scanned, b.stats.bytes_scanned);
  EXPECT_EQ(a.stats.entity_mentions, b.stats.entity_mentions);
  EXPECT_EQ(a.stats.review_pages, b.stats.review_pages);
  EXPECT_EQ(a.stats.skipped_urls, b.stats.skipped_urls);
  EXPECT_DOUBLE_EQ(a.stats.wall_seconds, b.stats.wall_seconds);
  ASSERT_EQ(a.table.num_hosts(), b.table.num_hosts());
  for (size_t i = 0; i < a.table.num_hosts(); ++i) {
    const HostRecord& ra = a.table.host(i);
    const HostRecord& rb = b.table.host(i);
    EXPECT_EQ(ra.host, rb.host);
    EXPECT_EQ(ra.pages_scanned, rb.pages_scanned);
    EXPECT_EQ(ra.bytes_scanned, rb.bytes_scanned);
    ASSERT_EQ(ra.entities.size(), rb.entities.size()) << ra.host;
    for (size_t j = 0; j < ra.entities.size(); ++j) {
      EXPECT_EQ(ra.entities[j].entity, rb.entities[j].entity);
      EXPECT_EQ(ra.entities[j].pages, rb.entities[j].pages);
    }
  }
}

// ---------------------------------------------------------------------
// Snapshot codec.

SnapshotMeta MakeMeta() {
  SnapshotMeta meta;
  meta.domain = Domain::kBanks;
  meta.attr = Attribute::kPhone;
  meta.num_entities = 300;
  meta.seed = 3;
  meta.scale_bits = CanonicalScaleBits(0.05);
  meta.shard_index = 0;
  meta.shard_count = 1;
  return meta;
}

TEST(SnapshotTest, EmptyTableRoundTrips) {
  ScanResult empty;
  auto bytes = SerializeSnapshotAligned(empty, MakeMeta());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshotFull(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->result.table.num_hosts(), 0u);
  EXPECT_EQ(parsed->result.stats.pages_scanned, 0u);
}

TEST(SnapshotTest, TsvLoadedTableRoundTrips) {
  const ScanResult original = MakeResult();
  const std::string tsv =
      (fs::temp_directory_path() / "wsd_store_test_table.tsv").string();
  ASSERT_TRUE(original.table.WriteTsv(tsv).ok());
  auto loaded = HostEntityTable::ReadTsv(tsv);
  std::remove(tsv.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // TSV persists only host + entity:pages, so wrap the reloaded table in
  // a fresh result and require a bit-identical snapshot round trip.
  ScanResult reloaded;
  reloaded.table = std::move(loaded).value();
  auto bytes = SerializeSnapshotAligned(reloaded, MakeMeta());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshotFull(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(reloaded, parsed->result);
}

TEST(SnapshotTest, FileRoundTripIsAtomicAndIdentical) {
  const std::string dir = FreshDir("file_rt");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  const ScanResult original = MakeResult();
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, MakeMeta()).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // write-via-rename cleaned up
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameResult(original, loaded->result);
  EXPECT_TRUE(loaded->meta == MakeMeta());
  fs::remove_all(dir);
}

TEST(SnapshotTest, SerializerRejectsContractViolations) {
  ScanResult bad = MakeResult();
  bad.table.mutable_hosts()[0].entities = {{7, 1}, {3, 1}};  // unsorted
  EXPECT_TRUE(
      SerializeSnapshotAligned(bad, MakeMeta()).status().IsInvalidArgument());

  ScanResult invalid_id = MakeResult();
  invalid_id.table.mutable_hosts()[0].entities = {{kInvalidEntityId, 1}};
  EXPECT_TRUE(SerializeSnapshotAligned(invalid_id, MakeMeta())
                  .status()
                  .IsInvalidArgument());
}

TEST(SnapshotTest, RejectsVersionSkewWithClearStatus) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  // 9 is no version at all; 1 is the retired compact (varint) encoding.
  for (const char version : {9, 1}) {
    std::string bumped = *bytes;
    bumped[8] = version;  // low byte of the version u32
    auto parsed = ParseSnapshotFull(bumped);
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsCorruption());
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SnapshotTest, RejectsForeignAndTrailingBytes) {
  EXPECT_TRUE(ParseSnapshotFull("").status().IsCorruption());
  EXPECT_TRUE(ParseSnapshotFull("WSDCACHE1\nnot a snapshot at all")
                  .status()
                  .IsCorruption());
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(ParseSnapshotFull(*bytes + "x").status().IsCorruption());
}

// The meta word at payload offset 12 is reserved and must be zero. The
// checksum is recomputed after the patch, so only the reserved-word check
// can reject the file.
TEST(SnapshotTest, RejectsNonzeroReservedMetaWord) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  // File header (16 bytes), stats section (24-byte header + 56-byte
  // payload), then the meta section's header and payload.
  const size_t meta_header = 16 + 24 + 56;
  const size_t meta_payload = meta_header + 24;
  std::string patched = *bytes;
  patched[meta_payload + 12] = 1;
  const uint64_t checksum =
      XxHash64(std::string_view(patched).substr(meta_payload, 48));
  for (int i = 0; i < 8; ++i) {
    patched[meta_header + 16 + i] = static_cast<char>(checksum >> (8 * i));
  }
  auto parsed = ParseSnapshotFull(patched);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
  EXPECT_NE(parsed.status().message().find("reserved"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotAlignedTest, RoundTripIsBitIdenticalAndCarriesMeta) {
  const ScanResult original = MakeResult();
  const SnapshotMeta meta = MakeMeta();
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshotFull(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(original, parsed->result);
  EXPECT_TRUE(parsed->meta == meta);
  // Canonical encoding: re-serializing reproduces the same bytes.
  auto bytes2 = SerializeSnapshotAligned(parsed->result, parsed->meta);
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(*bytes, *bytes2);
}

TEST(SnapshotAlignedTest, EveryTruncationFailsClosed) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    auto parsed = ParseSnapshotFull(std::string_view(bytes->data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(ParseSnapshotFull(*bytes + "x").status().IsCorruption());
}

TEST(SnapshotAlignedTest, EveryByteFlipFailsClosed) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  // Padding bytes sit inside both the section length and the checksum,
  // so even a flipped pad byte must fail.
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string corrupt = *bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    auto parsed = ParseSnapshotFull(corrupt);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(SnapshotAlignedTest, MmapLoadMatchesBufferedParseAndCounts) {
  const std::string dir = FreshDir("mmap");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  const ScanResult original = MakeResult();
  const SnapshotMeta meta = MakeMeta();
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, meta).ok());

  const uint64_t mmaps0 = CounterValue("wsd.store.mmap_loads");
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.store.mmap_loads"), mmaps0 + 1);
  ExpectSameResult(original, loaded->result);
  EXPECT_TRUE(loaded->meta == meta);

  // A missing file is an I/O error, not a crash.
  EXPECT_TRUE(LoadSnapshotFile(dir + "/missing.wsdsnap").status().IsIOError());

  // A truncated file is an error on the mmap path — never a crash.
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok());
  const std::string cut_path = dir + "/cut.wsdsnap";
  {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out << bytes->substr(0, bytes->size() / 2);
  }
  EXPECT_TRUE(LoadSnapshotFile(cut_path).status().IsCorruption());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// v3 snapshots: same layout as v2, but the header version is stamped
// per attribute (SnapshotVersionFor), so post-v2 channels are rejected
// fail-closed by v2-era readers and legacy snapshot bytes never change.

uint32_t HeaderVersion(const std::string& bytes) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + sizeof(kSnapshotMagic), 4);
  return v;
}

TEST(SnapshotV3Test, VersionIsStampedPerAttribute) {
  EXPECT_EQ(SnapshotVersionFor(Attribute::kPhone), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kHomepage), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kIsbn), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kReviews), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kMicrodata),
            kSnapshotSchemaVersionV3);

  auto legacy = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(HeaderVersion(*legacy), kSnapshotSchemaVersionAligned);

  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto v3 = SerializeSnapshotAligned(MakeResult(), meta);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(HeaderVersion(*v3), kSnapshotSchemaVersionV3);
}

TEST(SnapshotV3Test, MicrodataSnapshotRoundTripsEverywhere) {
  const ScanResult original = MakeResult();
  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshotFull(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(original, parsed->result);
  EXPECT_TRUE(parsed->meta == meta);

  // The mmap path accepts v3.
  const std::string dir = FreshDir("v3_mmap");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, meta).ok());
  const uint64_t mmaps0 = CounterValue("wsd.store.mmap_loads");
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.store.mmap_loads"), mmaps0 + 1);
  ExpectSameResult(original, loaded->result);
  fs::remove_all(dir);
}

TEST(SnapshotV3Test, ForgedV2FileWithMicrodataAttrIsRejected) {
  // The header version word is outside the section checksums, so a
  // forged/buggy writer could stamp v2 on a file carrying an attribute
  // no v2 writer knew. The vocabulary cross-check refuses it.
  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto bytes = SerializeSnapshotAligned(MakeResult(), meta);
  ASSERT_TRUE(bytes.ok());
  std::string forged = *bytes;
  const uint32_t v2 = kSnapshotSchemaVersionAligned;
  std::memcpy(forged.data() + sizeof(kSnapshotMagic), &v2, 4);
  auto parsed = ParseSnapshotFull(forged);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
  EXPECT_NE(parsed.status().message().find("requires schema v3"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotV3Test, UnknownFutureVersionIsRejected) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  std::string future = *bytes;
  const uint32_t v4 = 4;
  std::memcpy(future.data() + sizeof(kSnapshotMagic), &v4, 4);
  EXPECT_TRUE(ParseSnapshotFull(future).status().IsCorruption());
}

TEST(SnapshotV3Test, EveryTruncationAndByteFlipFailsClosed) {
  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto bytes = SerializeSnapshotAligned(MakeResult(), meta);
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    EXPECT_FALSE(
        ParseSnapshotFull(std::string_view(bytes->data(), len)).ok())
        << "prefix of " << len << " bytes parsed";
  }
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string corrupt = *bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    EXPECT_FALSE(ParseSnapshotFull(corrupt).ok())
        << "flip at byte " << i << " parsed";
  }
}

TEST(SnapshotAlignedTest, CanonicalScaleBitsCollapsesAliases) {
  EXPECT_EQ(CanonicalScaleBits(0.0), CanonicalScaleBits(-0.0));
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double signaling_nan = std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(CanonicalScaleBits(quiet_nan), CanonicalScaleBits(-quiet_nan));
  EXPECT_EQ(CanonicalScaleBits(quiet_nan), CanonicalScaleBits(signaling_nan));
  EXPECT_NE(CanonicalScaleBits(1.0), CanonicalScaleBits(2.0));
}

TEST(ArtifactKeyTest, FilenameTracksEveryField) {
  ArtifactKey key;
  key.domain = Domain::kRestaurants;
  key.attr = Attribute::kPhone;
  key.num_entities = 2000;
  key.seed = 42;
  key.scale = 1.0;
  const std::string base = key.Filename();
  EXPECT_NE(base.find("Restaurants-phone-"), std::string::npos);
  EXPECT_NE(base.find(".wsdsnap"), std::string::npos);

  ArtifactKey other = key;
  other.seed = 43;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.scale = 2.0;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.num_entities = 2001;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.attr = Attribute::kHomepage;
  EXPECT_NE(other.Filename(), base);
  EXPECT_EQ(ArtifactKey(key).Filename(), base);
}

// Artifact filenames are the content addresses of existing stores: this
// key's name must never change, or every cached artifact goes cold.
TEST(ArtifactKeyTest, FilenameIsPinned) {
  ArtifactKey key;
  key.domain = Domain::kRestaurants;
  key.attr = Attribute::kPhone;
  key.num_entities = 2000;
  key.seed = 42;
  key.scale = 1.0;
  EXPECT_EQ(key.Filename(), "Restaurants-phone-5bc999aa3e680c53.wsdsnap");
}

// Regression: the key hashes the raw IEEE bits of `scale`, so the bit
// aliases of a numeric value (-0.0 vs +0.0, NaN payload variants) must
// be canonicalized first or equal scales would map to distinct
// artifacts.
TEST(ArtifactKeyTest, ScaleBitAliasesShareOneKey) {
  ArtifactKey key;
  key.num_entities = 2000;
  key.seed = 42;
  key.scale = 0.0;
  ArtifactKey negzero = key;
  negzero.scale = -0.0;
  EXPECT_EQ(key.Filename(), negzero.Filename());
  EXPECT_EQ(key.CanonicalString(), negzero.CanonicalString());

  ArtifactKey qnan = key;
  qnan.scale = std::numeric_limits<double>::quiet_NaN();
  ArtifactKey snan = key;
  snan.scale = std::numeric_limits<double>::signaling_NaN();
  ArtifactKey neg_qnan = key;
  neg_qnan.scale = -std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(qnan.Filename(), snan.Filename());
  EXPECT_EQ(qnan.Filename(), neg_qnan.Filename());
  EXPECT_NE(qnan.Filename(), key.Filename());  // NaN is still its own key
}

TEST(ArtifactStoreTest, MissThenStoreThenHit) {
  const std::string dir = FreshDir("miss_hit");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 128;
  key.seed = 9;

  const uint64_t misses0 = CounterValue("wsd.artifact.misses");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  EXPECT_TRUE(store.Load(key).status().IsNotFound());
  EXPECT_EQ(CounterValue("wsd.artifact.misses"), misses0 + 1);

  const ScanResult result = MakeResult();
  const uint64_t written0 = CounterValue("wsd.artifact.write_bytes");
  ASSERT_TRUE(store.Store(key, result).ok());
  EXPECT_GT(CounterValue("wsd.artifact.write_bytes"), written0);

  auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0 + 1);
  ExpectSameResult(result, *loaded);
  fs::remove_all(dir);
}

TEST(ArtifactStoreTest, CorruptArtifactCountsVerifyFailure) {
  const std::string dir = FreshDir("corrupt");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 64;
  ASSERT_TRUE(store.Store(key, MakeResult()).ok());

  // Flip one byte in the stored snapshot.
  const std::string path = store.PathFor(key);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(file.tellg());
  file.seekp(size / 2);
  file.put('\xff');
  file.close();

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  EXPECT_FALSE(store.Load(key).ok());
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0);
  fs::remove_all(dir);
}

// A stored snapshot carries its provenance, and Load cross-checks it
// against the requested key: a file that answers to the wrong key (e.g.
// copied or renamed by hand) is a verify failure, not a silent hit.
TEST(ArtifactStoreTest, ProvenanceMismatchCountsVerifyFailure) {
  const std::string dir = FreshDir("provenance");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 64;
  key.seed = 7;
  ASSERT_TRUE(store.Store(key, MakeResult()).ok());

  ArtifactKey other = key;
  other.seed = 8;
  fs::copy_file(store.PathFor(key), store.PathFor(other));

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  auto loaded = store.Load(other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("provenance"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);

  // The honest key still loads.
  EXPECT_TRUE(store.Load(key).ok());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Study integration: scan-once / analyze-many.

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 1000;
  options.scale = 0.05;
  options.seed = 11;
  options.threads = 2;
  return options;
}

// The acceptance criterion for the artifact store: however many analyses
// run, a Study performs exactly one live scan per (domain, attr) — and a
// second Study over the same artifact directory performs none.
TEST(StudyArtifactTest, ScanOnceAnalyzeMany) {
  const std::string dir = FreshDir("study_once");
  StudyOptions options = SmallOptions();
  options.artifact_dir = dir;

  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  Study cold(options);
  auto cold_scan = cold.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(cold_scan.ok()) << cold_scan.status();
  auto spread = cold.RunSpread(*cold_scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  auto cover = cold.RunSetCover(*cold_scan);
  ASSERT_TRUE(cover.ok()) << cover.status();
  auto row = cold.RunGraphMetrics(*cold_scan);
  ASSERT_TRUE(row.ok()) << row.status();
  auto sweep = cold.RunRobustness(*cold_scan);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1)
      << "four analyses must share one scan";

  // Warm Study: the snapshot satisfies the scan, so zero live scans.
  Study warm(options);
  auto warm_scan = warm.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(warm_scan.ok()) << warm_scan.status();
  auto warm_spread = warm.RunSpread(*warm_scan);
  ASSERT_TRUE(warm_spread.ok()) << warm_spread.status();
  auto warm_sweep = warm.RunRobustness(*warm_scan);
  ASSERT_TRUE(warm_sweep.ok()) << warm_sweep.status();
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  EXPECT_GT(CounterValue("wsd.artifact.hits"), hits0);

  // And the cached scan produces identical analysis results.
  ASSERT_EQ(spread->curve.t_values, warm_spread->curve.t_values);
  ASSERT_EQ(spread->curve.k_coverage.size(),
            warm_spread->curve.k_coverage.size());
  for (size_t k = 0; k < spread->curve.k_coverage.size(); ++k) {
    ASSERT_EQ(spread->curve.k_coverage[k], warm_spread->curve.k_coverage[k]);
  }
  ASSERT_EQ(sweep->size(), warm_sweep->size());
  for (size_t i = 0; i < sweep->size(); ++i) {
    EXPECT_EQ((*sweep)[i].num_components, (*warm_sweep)[i].num_components);
    EXPECT_EQ((*sweep)[i].largest_component_entity_fraction,
              (*warm_sweep)[i].largest_component_entity_fraction);
  }
  fs::remove_all(dir);
}

// Without an artifact dir the per-Study memo still collapses repeat
// scans of the same (domain, attr).
TEST(StudyArtifactTest, InMemoryMemoAvoidsRescans) {
  Study study(SmallOptions());
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  auto a = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(a.ok());
  auto b = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  ExpectSameResult(*a, *b);
  // A different attribute is a different scan.
  auto c = study.RunScan(Domain::kBanks, Attribute::kHomepage);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 2);
}

// A stale/corrupt artifact falls back to a live scan with identical
// results (and rewrites the artifact).
TEST(StudyArtifactTest, CorruptArtifactFallsBackToLiveScan) {
  const std::string dir = FreshDir("study_fallback");
  StudyOptions options = SmallOptions();
  options.artifact_dir = dir;

  ScanResult fresh;
  {
    Study study(options);
    auto scan = study.RunScan(Domain::kBanks, Attribute::kPhone);
    ASSERT_TRUE(scan.ok());
    fresh = std::move(scan).value();
  }
  // Truncate the single stored artifact.
  bool truncated_one = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "WSDSNAP1 but not really";
    truncated_one = true;
  }
  ASSERT_TRUE(truncated_one);

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  Study study(options);
  auto scan = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  // Two independent live scans: identical up to wall-clock time.
  scan->stats.wall_seconds = fresh.stats.wall_seconds;
  ExpectSameResult(fresh, *scan);

  // The rescan re-persisted a valid artifact: a third Study hits it.
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  Study rewarmed(options);
  auto again = rewarmed.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0 + 1);
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  fs::remove_all(dir);
}

// Analyses through a ScanHandle are deterministic: two independent
// Studies over the same options agree on every handle-path analysis.
TEST(StudyArtifactTest, HandleAnalysesAreDeterministic) {
  Study s1(SmallOptions());
  Study s2(SmallOptions());
  auto h1 = s1.Scan(Domain::kBanks, Attribute::kPhone);
  auto h2 = s2.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(h1.ok()) << h1.status();
  ASSERT_TRUE(h2.ok()) << h2.status();
  EXPECT_EQ(h1->domain(), Domain::kBanks);
  EXPECT_EQ(h1->attr(), Attribute::kPhone);

  auto spread1 = s1.RunSpread(*h1);
  auto spread2 = s2.RunSpread(*h2);
  ASSERT_TRUE(spread1.ok());
  ASSERT_TRUE(spread2.ok());
  for (size_t k = 0; k < spread1->curve.k_coverage.size(); ++k) {
    ASSERT_EQ(spread1->curve.k_coverage[k], spread2->curve.k_coverage[k]);
  }

  auto row1 = s1.RunGraphMetrics(*h1);
  auto row2 = s2.RunGraphMetrics(*h2);
  ASSERT_TRUE(row1.ok());
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ(row1->num_components, row2->num_components);
  EXPECT_EQ(row1->diameter, row2->diameter);
  EXPECT_EQ(row1->num_edges, row2->num_edges);

  auto sweep1 = s1.RunRobustness(*h1);
  auto sweep2 = s2.RunRobustness(*h2);
  ASSERT_TRUE(sweep1.ok());
  ASSERT_TRUE(sweep2.ok());
  ASSERT_EQ(sweep1->size(), sweep2->size());
  for (size_t i = 0; i < sweep1->size(); ++i) {
    EXPECT_EQ((*sweep1)[i].num_components, (*sweep2)[i].num_components);
  }

  auto cover1 = s1.RunSetCover(*h1);
  auto cover2 = s2.RunSetCover(*h2);
  ASSERT_TRUE(cover1.ok());
  ASSERT_TRUE(cover2.ok());
  EXPECT_EQ(cover1->greedy_coverage, cover2->greedy_coverage);
}

}  // namespace
}  // namespace wsd
