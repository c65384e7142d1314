#ifndef WSD_STORE_SNAPSHOT_H_
#define WSD_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "entity/domains.h"
#include "extract/scan_pipeline.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wsd {

/// Binary layout versions of the scan snapshot. Version 2 is the aligned
/// fixed-width columnar encoding (8-byte aligned sections, zero-padded
/// payloads) that the zero-copy mmap loader reads directly, carrying
/// provenance (SnapshotMeta). Version 3 is byte-identical to version 2 in
/// layout; the bump exists so snapshots of post-v2 attribute channels
/// (schema.org microdata, wire id 4) are rejected fail-closed by
/// v2-era readers instead of being decoded under an attribute vocabulary
/// that cannot represent them. The version a snapshot is written with is
/// per-attribute (see SnapshotVersionFor), so legacy-channel snapshots
/// remain byte-identical to the v2 era. The loader accepts exactly these
/// two versions and rejects every other, including the retired compact
/// v1 encoding (stale artifacts then fall back to a live scan rather
/// than being misread).
inline constexpr uint32_t kSnapshotSchemaVersionAligned = 2;
inline constexpr uint32_t kSnapshotSchemaVersionV3 = 3;

/// The aligned schema version snapshots of `attr` are written with:
/// AttributeSpec::min_snapshot_version from the attribute registry (2 for
/// the four legacy channels, 3 for microdata). A parsed file whose header
/// version is below this for its meta attribute is Corruption — a genuine
/// old writer could not have produced it.
[[nodiscard]] uint32_t SnapshotVersionFor(Attribute attr);

/// Serialized size cannot be known without encoding, but every snapshot
/// starts with this magic — cheap foreign-file rejection before any
/// decoding happens.
inline constexpr char kSnapshotMagic[8] = {'W', 'S', 'D', 'S',
                                           'N', 'A', 'P', '1'};

/// `scale` doubles canonicalized to one bit pattern per numeric value:
/// -0.0 maps to +0.0 and every NaN payload maps to the positive quiet
/// NaN, so equal scales can never produce distinct artifact keys or
/// mismatched shard provenance.
[[nodiscard]] uint64_t CanonicalScaleBits(double scale);

/// Provenance of one scan snapshot: the exact inputs that determine the
/// scan output, plus which corpus slice this snapshot covers. Every
/// snapshot carries one; `wsdctl merge` refuses shards whose provenance
/// disagrees, and the ArtifactStore cross-checks it against the
/// requested key on load.
struct SnapshotMeta {
  Domain domain = Domain::kRestaurants;
  Attribute attr = Attribute::kPhone;
  uint32_t num_entities = 0;
  uint64_t seed = 0;
  uint64_t scale_bits = 0;  // CanonicalScaleBits of the scan scale
  /// Corpus slice: hosts with Fnv1a64(host) % shard_count == shard_index.
  /// A monolithic (or merged) snapshot is shard 0 of 1.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;

  friend bool operator==(const SnapshotMeta& a, const SnapshotMeta& b) {
    return a.domain == b.domain && a.attr == b.attr &&
           a.num_entities == b.num_entities && a.seed == b.seed &&
           a.scale_bits == b.scale_bits && a.shard_index == b.shard_index &&
           a.shard_count == b.shard_count;
  }
};

/// A decoded snapshot: the scan result plus its provenance.
struct ParsedSnapshot {
  ScanResult result;
  SnapshotMeta meta;
};

/// Encodes `result` + `meta` into the aligned (v2/v3) snapshot format:
///
///   magic "WSDSNAP1" | version u32 = SnapshotVersionFor(meta.attr) |
///   section count u32 = 3
///   per section: id u32 | flags u32 (must be 0) | padded payload length
///   u64 | XXH64 checksum u64 | payload zero-padded to a multiple of 8
///
/// Sections (in file order): 1 = ScanStats as seven u64le words; 3 =
/// SnapshotMeta (fixed 48 bytes, ahead of the bulk data so provenance is
/// readable from the first ~150 bytes; the u32 at payload offset 12 and
/// the trailing u64 are reserved and must be zero); 2 = the host table
/// as fixed-width little-endian columns (host/edge counts, name-offset
/// prefix sums, name blob, per-host page/byte u64 columns, entity-offset
/// prefix sums, u32 entity-id and entity-page columns). Every section starts 8-byte
/// aligned and padding is inside both the length and the checksum, so the
/// mmap loader can read columns in place and any padding flip still fails
/// the checksum. Returns InvalidArgument on HostRecord-contract
/// violations or an invalid meta.
[[nodiscard]] StatusOr<std::string> SerializeSnapshotAligned(
    const ScanResult& result, const SnapshotMeta& meta);

/// Decodes a snapshot. Validates the magic, schema version, section
/// framing, per-section checksums and reserved words, and bounds-checks
/// every count and offset; malformed, truncated, bit-flipped or foreign
/// input yields a Corruption status (never a crash — fuzzed by
/// fuzz/fuzz_snapshot.cc). Encoding is canonical: re-serializing a parsed
/// snapshot reproduces its bytes exactly.
[[nodiscard]] StatusOr<ParsedSnapshot> ParseSnapshotFull(
    std::string_view bytes);

/// Serializes `result` + `meta` and atomically replaces `path` with it
/// (write-via-rename, so readers never observe a torn snapshot).
[[nodiscard]] Status WriteSnapshotFileAligned(const std::string& path,
                                              const ScanResult& result,
                                              const SnapshotMeta& meta);

/// Loads the snapshot at `path` zero-copy: the file is mmap'd and its
/// columns bulk-copied in place (counted in wsd.store.mmap_loads) after
/// the same checksum and bounds validation as ParseSnapshotFull, with
/// every access bounds-checked against the mapped extent taken at open
/// time (the store only ever replaces snapshots via atomic rename, never
/// truncates in place, so the mapping cannot shrink under us and a
/// truncated file fails closed instead of faulting). A file that cannot
/// be mapped is an IOError; a corrupt one is Corruption.
[[nodiscard]] StatusOr<ParsedSnapshot> LoadSnapshotFile(
    const std::string& path);

}  // namespace wsd

#endif  // WSD_STORE_SNAPSHOT_H_
