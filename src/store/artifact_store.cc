#include "store/artifact_store.h"

#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/hash.h"
#include "util/io_util.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace wsd {

namespace {

std::string HexU64(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string ArtifactKey::CanonicalString() const {
  // Canonicalized, not raw-memcpy'd: -0.0 and 0.0 (and every NaN
  // spelling) are the same scale, so they must address the same artifact
  // — raw bits produced duplicate artifacts and spurious cold scans.
  const uint64_t scale_bits = CanonicalScaleBits(scale);
  // Keyed on the version Store() writes for this attribute (per-attribute
  // via the registry; legacy channels keep their v2-era keys), so a
  // layout change re-addresses the cache instead of misreading stale
  // files.
  std::string out = "wsdsnap-v" + std::to_string(SnapshotVersionFor(attr));
  out += "|domain=";
  out += DomainName(domain);
  out += "|attr=";
  out += AttributeName(attr);
  out += "|entities=" + std::to_string(num_entities);
  out += "|seed=" + std::to_string(seed);
  out += "|scale_bits=" + HexU64(scale_bits);
  out += "|legacy=0";
  return out;
}

std::string ArtifactKey::Filename() const {
  std::string out;
  out += DomainName(domain);
  out += '-';
  out += AttributeName(attr);
  out += '-';
  out += HexU64(XxHash64(CanonicalString()));
  out += ".wsdsnap";
  return out;
}

SnapshotMeta ArtifactKey::Meta() const {
  SnapshotMeta meta;
  meta.domain = domain;
  meta.attr = attr;
  meta.num_entities = num_entities;
  meta.seed = seed;
  meta.scale_bits = CanonicalScaleBits(scale);
  meta.shard_index = 0;
  meta.shard_count = 1;
  return meta;
}

ArtifactKey ArtifactKey::FromMeta(const SnapshotMeta& meta) {
  ArtifactKey key;
  key.domain = meta.domain;
  key.attr = meta.attr;
  key.num_entities = meta.num_entities;
  key.seed = meta.seed;
  std::memcpy(&key.scale, &meta.scale_bits, sizeof(key.scale));
  return key;
}

std::string ArtifactStore::PathFor(const ArtifactKey& key) const {
  return (std::filesystem::path(dir_) / key.Filename()).string();
}

StatusOr<ScanResult> ArtifactStore::Load(const ArtifactKey& key) const {
  static Counter& hits =
      MetricsRegistry::Global().GetCounter("wsd.artifact.hits");
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("wsd.artifact.misses");
  static Counter& verify_failures =
      MetricsRegistry::Global().GetCounter("wsd.artifact.verify_failures");
  static Counter& read_bytes =
      MetricsRegistry::Global().GetCounter("wsd.artifact.read_bytes");

  const std::string path = PathFor(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    misses.Increment();
    return Status::NotFound("no artifact for " + key.CanonicalString());
  }
  auto loaded = LoadSnapshotFile(path);
  if (!loaded.ok()) {
    verify_failures.Increment();
    WSD_LOG(kWarning) << "artifact " << path << " failed verification ("
                      << loaded.status().ToString()
                      << "); falling back to live scan";
    return loaded.status();
  }
  // A snapshot names its own scan inputs; a file that does not match the
  // key it sits under (copied, renamed, forged — including a merged shard
  // installed under the wrong key) is corruption, not a hit.
  if (!(loaded->meta == key.Meta())) {
    verify_failures.Increment();
    WSD_LOG(kWarning) << "artifact " << path
                      << " provenance does not match its key; falling "
                         "back to live scan";
    return Status::Corruption("artifact provenance mismatch for " +
                              key.CanonicalString());
  }
  hits.Increment();
  std::error_code size_ec;
  const auto file_size = std::filesystem::file_size(path, size_ec);
  if (!size_ec) read_bytes.Increment(file_size);
  return std::move(loaded->result);
}

Status ArtifactStore::Store(const ArtifactKey& key,
                            const ScanResult& result) const {
  static Counter& write_bytes =
      MetricsRegistry::Global().GetCounter("wsd.artifact.write_bytes");

  WSD_RETURN_IF_ERROR(EnsureDirectory(dir_));
  auto bytes = SerializeSnapshotAligned(result, key.Meta());
  if (!bytes.ok()) return bytes.status();
  WSD_RETURN_IF_ERROR(WriteFileAtomic(PathFor(key), *bytes));
  write_bytes.Increment(bytes->size());
  return Status::OK();
}

}  // namespace wsd
