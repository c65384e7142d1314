#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "extract/attribute_registry.h"
#include "util/hash.h"
#include "util/io_util.h"
#include "util/metrics.h"

namespace wsd {

namespace {

constexpr uint32_t kStatsSection = 1;
constexpr uint32_t kHostsSection = 2;
constexpr uint32_t kMetaSection = 3;
constexpr size_t kMagicLen = sizeof(kSnapshotMagic);

// Fixed section payload sizes.
constexpr size_t kStatsPayloadAligned = 7 * 8;
constexpr size_t kMetaPayloadAligned = 48;

// ---------------------------------------------------------------------
// Encoding primitives. Every integer is fixed-width little-endian.

void PutU32Le(uint32_t v, std::string* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64Le(uint64_t v, std::string* out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint64_t Pad8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

const unsigned char* Bytes(std::string_view s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

/// Bounds-checked cursor over untrusted bytes. Every Read* returns false
/// instead of reading past the end, so the parser can only fail closed.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : p_(bytes.data()), left_(bytes.size()) {}

  size_t left() const { return left_; }

  bool ReadU32Le(uint32_t* v) {
    if (left_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
    }
    p_ += 4;
    left_ -= 4;
    return true;
  }

  bool ReadU64Le(uint64_t* v) {
    if (left_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
    }
    p_ += 8;
    left_ -= 8;
    return true;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (left_ < n) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    left_ -= n;
    return true;
  }

 private:
  const char* p_;
  size_t left_;
};

// Enforces the HostRecord contract before any bytes are produced.
Status ValidateHostContract(const HostRecord& h) {
  EntityId prev = 0;
  bool first = true;
  for (const EntityPages& ep : h.entities) {
    if (ep.entity >= kInvalidEntityId || (!first && ep.entity < prev)) {
      return Status::InvalidArgument(
          "host '" + h.host +
          "' violates the sorted-entity-ids contract; refusing to "
          "snapshot");
    }
    prev = ep.entity;
    first = false;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Section payloads. Every payload is zero-padded to a multiple of 8 with
// the padding inside both the section length and the checksum, so the
// format stays byte-exactly canonical (any padding flip fails the
// checksum, and the decoder additionally requires pad bytes to be zero
// so re-encoding a valid snapshot is a byte-level fixed point).

std::string EncodeStatsAligned(const ScanStats& stats) {
  std::string out;
  out.reserve(kStatsPayloadAligned);
  PutU64Le(stats.hosts_scanned, &out);
  PutU64Le(stats.pages_scanned, &out);
  PutU64Le(stats.bytes_scanned, &out);
  PutU64Le(stats.entity_mentions, &out);
  PutU64Le(stats.review_pages, &out);
  PutU64Le(stats.skipped_urls, &out);
  uint64_t wall_bits = 0;
  std::memcpy(&wall_bits, &stats.wall_seconds, sizeof(wall_bits));
  PutU64Le(wall_bits, &out);
  return out;
}

Status DecodeStatsAligned(std::string_view payload, ScanStats* stats) {
  if (payload.size() != kStatsPayloadAligned) {
    return Status::Corruption("snapshot stats section size mismatch");
  }
  const unsigned char* p = Bytes(payload);
  using hash_internal::Load64Le;
  stats->hosts_scanned = Load64Le(p);
  stats->pages_scanned = Load64Le(p + 8);
  stats->bytes_scanned = Load64Le(p + 16);
  stats->entity_mentions = Load64Le(p + 24);
  stats->review_pages = Load64Le(p + 32);
  stats->skipped_urls = Load64Le(p + 40);
  const uint64_t wall_bits = Load64Le(p + 48);
  std::memcpy(&stats->wall_seconds, &wall_bits, sizeof(stats->wall_seconds));
  return Status::OK();
}

Status ValidateMeta(const SnapshotMeta& meta) {
  if (static_cast<int>(meta.domain) < 0 ||
      static_cast<int>(meta.domain) >= kNumDomains) {
    return Status::Corruption("snapshot meta domain out of range");
  }
  if (static_cast<int>(meta.attr) < 0 ||
      static_cast<int>(meta.attr) >=
          static_cast<int>(Attribute::kNumAttributes)) {
    return Status::Corruption("snapshot meta attribute out of range");
  }
  double scale = 0.0;
  std::memcpy(&scale, &meta.scale_bits, sizeof(scale));
  if (CanonicalScaleBits(scale) != meta.scale_bits) {
    return Status::Corruption("snapshot meta scale bits not canonical");
  }
  if (meta.shard_count == 0 || meta.shard_index >= meta.shard_count) {
    return Status::Corruption("snapshot meta shard slot out of range");
  }
  return Status::OK();
}

std::string EncodeMetaAligned(const SnapshotMeta& meta) {
  std::string out;
  out.reserve(kMetaPayloadAligned);
  PutU32Le(static_cast<uint32_t>(meta.domain), &out);
  PutU32Le(static_cast<uint32_t>(meta.attr), &out);
  PutU32Le(meta.num_entities, &out);
  PutU32Le(0, &out);  // reserved; decoder requires zero
  PutU64Le(meta.seed, &out);
  PutU64Le(meta.scale_bits, &out);
  PutU32Le(meta.shard_index, &out);
  PutU32Le(meta.shard_count, &out);
  PutU64Le(0, &out);  // reserved; decoder requires zero
  return out;
}

Status DecodeMetaAligned(std::string_view payload, SnapshotMeta* meta) {
  if (payload.size() != kMetaPayloadAligned) {
    return Status::Corruption("snapshot meta section size mismatch");
  }
  const unsigned char* p = Bytes(payload);
  using hash_internal::Load32Le;
  using hash_internal::Load64Le;
  if (Load32Le(p + 12) != 0 || Load64Le(p + 40) != 0) {
    return Status::Corruption("snapshot meta reserved field not zero");
  }
  meta->domain = static_cast<Domain>(Load32Le(p));
  meta->attr = static_cast<Attribute>(Load32Le(p + 4));
  meta->num_entities = static_cast<uint32_t>(Load32Le(p + 8));
  meta->seed = Load64Le(p + 16);
  meta->scale_bits = Load64Le(p + 24);
  meta->shard_index = static_cast<uint32_t>(Load32Le(p + 32));
  meta->shard_count = static_cast<uint32_t>(Load32Le(p + 36));
  return ValidateMeta(*meta);
}

// Aligned host table: three u64 counts, then fixed-width little-endian
// columns. Offset columns are prefix sums with a leading 0, so host i's
// slice is [off[i], off[i+1]) — directly sliceable from a mapping.
//
//   num_hosts u64 | num_edges u64 | name_blob_len u64
//   name_offsets (num_hosts+1) x u64
//   name_blob (zero-padded to 8)
//   pages_scanned num_hosts x u64
//   bytes_scanned num_hosts x u64
//   entity_offsets (num_hosts+1) x u64
//   entity_ids num_edges x u32 (zero-padded to 8)
//   entity_pages num_edges x u32 (zero-padded to 8)
StatusOr<std::string> EncodeHostsAligned(const HostEntityTable& table) {
  uint64_t num_edges = 0;
  uint64_t blob_len = 0;
  for (const HostRecord& h : table.hosts()) {
    WSD_RETURN_IF_ERROR(ValidateHostContract(h));
    num_edges += h.entities.size();
    blob_len += h.host.size();
  }
  const uint64_t num_hosts = table.num_hosts();

  std::string out;
  out.reserve(static_cast<size_t>(24 + 8 * (num_hosts + 1) + Pad8(blob_len) +
                                  16 * num_hosts + 8 * (num_hosts + 1) +
                                  2 * Pad8(4 * num_edges)));
  PutU64Le(num_hosts, &out);
  PutU64Le(num_edges, &out);
  PutU64Le(blob_len, &out);
  uint64_t off = 0;
  PutU64Le(0, &out);
  for (const HostRecord& h : table.hosts()) {
    off += h.host.size();
    PutU64Le(off, &out);
  }
  for (const HostRecord& h : table.hosts()) out += h.host;
  PadTo8(&out);
  for (const HostRecord& h : table.hosts()) PutU64Le(h.pages_scanned, &out);
  for (const HostRecord& h : table.hosts()) PutU64Le(h.bytes_scanned, &out);
  off = 0;
  PutU64Le(0, &out);
  for (const HostRecord& h : table.hosts()) {
    off += h.entities.size();
    PutU64Le(off, &out);
  }
  for (const HostRecord& h : table.hosts()) {
    for (const EntityPages& ep : h.entities) PutU32Le(ep.entity, &out);
  }
  PadTo8(&out);
  for (const HostRecord& h : table.hosts()) {
    for (const EntityPages& ep : h.entities) PutU32Le(ep.pages, &out);
  }
  PadTo8(&out);
  return out;
}

bool RangeIsZero(const unsigned char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

// Validates a monotonic prefix-sum offset column ending exactly at
// `total`. `col` points at (n+1) u64le entries.
bool OffsetsValid(const unsigned char* col, uint64_t n, uint64_t total) {
  using hash_internal::Load64Le;
  if (Load64Le(col) != 0) return false;
  uint64_t prev = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    const uint64_t cur = Load64Le(col + 8 * i);
    if (cur < prev || cur > total) return false;
    prev = cur;
  }
  return prev == total;
}

Status DecodeHostsAligned(std::string_view payload, HostEntityTable* table) {
  using hash_internal::Load32Le;
  using hash_internal::Load64Le;
  const unsigned char* base = Bytes(payload);
  const uint64_t n = payload.size();
  if (n < 24 || n % 8 != 0) {
    return Status::Corruption("snapshot hosts section size mismatch");
  }
  const uint64_t num_hosts = Load64Le(base);
  const uint64_t num_edges = Load64Le(base + 8);
  const uint64_t blob_len = Load64Le(base + 16);
  // Caps before any size arithmetic: every host owes >= 40 column bytes
  // and every edge >= 8, so honest counts fit these bounds and the
  // expected-size computation below cannot overflow (payloads are real
  // in-memory buffers, far below 2^60).
  if (num_hosts > n / 8 || num_edges > n / 8 || blob_len > n) {
    return Status::Corruption("snapshot host/edge count exceeds payload");
  }
  const uint64_t expected = 24 + 8 * (num_hosts + 1) + Pad8(blob_len) +
                            16 * num_hosts + 8 * (num_hosts + 1) +
                            2 * Pad8(4 * num_edges);
  if (expected != n) {
    return Status::Corruption("snapshot hosts section size mismatch");
  }

  const unsigned char* name_offsets = base + 24;
  const unsigned char* name_blob = name_offsets + 8 * (num_hosts + 1);
  const unsigned char* pages_col = name_blob + Pad8(blob_len);
  const unsigned char* bytes_col = pages_col + 8 * num_hosts;
  const unsigned char* entity_offsets = bytes_col + 8 * num_hosts;
  const unsigned char* id_col = entity_offsets + 8 * (num_hosts + 1);
  const unsigned char* epages_col = id_col + Pad8(4 * num_edges);

  if (!OffsetsValid(name_offsets, num_hosts, blob_len) ||
      !OffsetsValid(entity_offsets, num_hosts, num_edges)) {
    return Status::Corruption("snapshot hosts offset column invalid");
  }
  // Padding must be zero so encoding is canonical (one byte string per
  // table); non-zero padding would otherwise survive the checksum we
  // verified before getting here.
  if (!RangeIsZero(name_blob + blob_len, Pad8(blob_len) - blob_len) ||
      !RangeIsZero(id_col + 4 * num_edges, Pad8(4 * num_edges) - 4 * num_edges) ||
      !RangeIsZero(epages_col + 4 * num_edges,
                   Pad8(4 * num_edges) - 4 * num_edges)) {
    return Status::Corruption("snapshot hosts padding not zero");
  }

  std::vector<HostRecord> hosts(static_cast<size_t>(num_hosts));
  for (uint64_t i = 0; i < num_hosts; ++i) {
    HostRecord& h = hosts[static_cast<size_t>(i)];
    const uint64_t name_lo = Load64Le(name_offsets + 8 * i);
    const uint64_t name_hi = Load64Le(name_offsets + 8 * (i + 1));
    h.host.assign(reinterpret_cast<const char*>(name_blob) + name_lo,
                  static_cast<size_t>(name_hi - name_lo));
    h.pages_scanned = Load64Le(pages_col + 8 * i);
    h.bytes_scanned = Load64Le(bytes_col + 8 * i);
    const uint64_t ent_lo = Load64Le(entity_offsets + 8 * i);
    const uint64_t ent_hi = Load64Le(entity_offsets + 8 * (i + 1));
    h.entities.resize(static_cast<size_t>(ent_hi - ent_lo));
    uint64_t prev = 0;
    for (uint64_t j = ent_lo; j < ent_hi; ++j) {
      const uint64_t id = Load32Le(id_col + 4 * j);
      if (id >= kInvalidEntityId || (j > ent_lo && id < prev)) {
        return Status::Corruption("snapshot entity id out of range");
      }
      prev = id;
      EntityPages& ep = h.entities[static_cast<size_t>(j - ent_lo)];
      ep.entity = static_cast<EntityId>(id);
      ep.pages = static_cast<uint32_t>(Load32Le(epages_col + 4 * j));
    }
  }
  *table = HostEntityTable(std::move(hosts));
  return Status::OK();
}

void AppendSectionAligned(uint32_t id, std::string_view payload,
                          std::string* out) {
  PutU32Le(id, out);
  PutU32Le(0, out);  // flags, reserved
  PutU64Le(payload.size(), out);
  PutU64Le(XxHash64(payload), out);
  out->append(payload);
}

/// Owning read-only mapping of a whole file. The extent is fixed at
/// fstat time and every parser access is bounds-checked against it, so a
/// short file fails closed in the parser instead of faulting.
class MappedFile {
 public:
  static StatusOr<MappedFile> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("cannot open for mapping: " + path);
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      return Status::IOError("cannot map non-regular file: " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void* base = nullptr;
    if (size > 0) {
      base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return Status::IOError("mmap failed: " + path);
      }
    }
    ::close(fd);  // the mapping outlives the descriptor
    return MappedFile(base, size);
  }

  MappedFile(MappedFile&& other) noexcept
      : base_(other.base_), size_(other.size_) {
    other.base_ = nullptr;
    other.size_ = 0;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile& operator=(MappedFile&&) = delete;
  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }

  std::string_view view() const {
    return std::string_view(static_cast<const char*>(base_), size_);
  }

 private:
  MappedFile(void* base, size_t size) : base_(base), size_(size) {}

  void* base_;
  size_t size_;
};

}  // namespace

uint32_t SnapshotVersionFor(Attribute attr) {
  return GetAttributeSpec(attr).min_snapshot_version;
}

uint64_t CanonicalScaleBits(double scale) {
  if (std::isnan(scale)) return 0x7ff8000000000000ULL;  // positive quiet NaN
  if (scale == 0.0) return 0;                           // folds -0.0 into +0.0
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(scale));
  std::memcpy(&bits, &scale, sizeof(bits));
  return bits;
}

StatusOr<std::string> SerializeSnapshotAligned(const ScanResult& result,
                                               const SnapshotMeta& meta) {
  {
    const Status valid = ValidateMeta(meta);
    if (!valid.ok()) return Status::InvalidArgument(valid.message());
  }
  auto hosts_payload = EncodeHostsAligned(result.table);
  if (!hosts_payload.ok()) return hosts_payload.status();

  std::string out;
  out.append(kSnapshotMagic, kMagicLen);
  // Per-attribute version: legacy channels keep writing v2 bytes
  // (byte-identical snapshots), post-v2 channels stamp v3 so old readers
  // reject them fail-closed.
  PutU32Le(SnapshotVersionFor(meta.attr), &out);
  PutU32Le(3, &out);  // section count
  AppendSectionAligned(kStatsSection, EncodeStatsAligned(result.stats), &out);
  AppendSectionAligned(kMetaSection, EncodeMetaAligned(meta), &out);
  AppendSectionAligned(kHostsSection, *hosts_payload, &out);
  return out;
}

StatusOr<ParsedSnapshot> ParseSnapshotFull(std::string_view bytes) {
  Reader reader(bytes);
  std::string_view magic;
  if (!reader.ReadBytes(kMagicLen, &magic) ||
      std::memcmp(magic.data(), kSnapshotMagic, kMagicLen) != 0) {
    return Status::Corruption("not a scan snapshot (bad magic)");
  }
  uint32_t version = 0;
  if (!reader.ReadU32Le(&version)) {
    return Status::Corruption("snapshot header truncated");
  }
  if (version != kSnapshotSchemaVersionAligned &&
      version != kSnapshotSchemaVersionV3) {
    return Status::Corruption(
        "snapshot schema version mismatch (file v" + std::to_string(version) +
        ", loader v" + std::to_string(kSnapshotSchemaVersionAligned) + "/v" +
        std::to_string(kSnapshotSchemaVersionV3) + ")");
  }
  uint32_t num_sections = 0;
  if (!reader.ReadU32Le(&num_sections)) {
    return Status::Corruption("snapshot header truncated");
  }
  if (num_sections != 3) {
    return Status::Corruption("unexpected snapshot section count");
  }

  // v2 and v3 share one layout; the header version only gates which
  // attribute vocabulary the file may use.
  ParsedSnapshot parsed;
  const uint32_t expected_ids[3] = {kStatsSection, kMetaSection,
                                    kHostsSection};
  for (uint32_t expected : expected_ids) {
    uint32_t id = 0;
    uint32_t flags = 0;
    uint64_t length = 0;
    uint64_t checksum = 0;
    if (!reader.ReadU32Le(&id) || !reader.ReadU32Le(&flags) ||
        !reader.ReadU64Le(&length) || !reader.ReadU64Le(&checksum)) {
      return Status::Corruption("snapshot section header truncated");
    }
    if (id != expected) {
      return Status::Corruption("unexpected snapshot section id " +
                                std::to_string(id));
    }
    if (flags != 0) {
      return Status::Corruption("snapshot section flags not zero");
    }
    std::string_view payload;
    if (length % 8 != 0 || length > reader.left() ||
        !reader.ReadBytes(static_cast<size_t>(length), &payload)) {
      return Status::Corruption("snapshot section payload truncated");
    }
    if (XxHash64(payload) != checksum) {
      return Status::Corruption("snapshot section " + std::to_string(id) +
                                " checksum mismatch");
    }
    Status decoded = Status::OK();
    switch (id) {
      case kStatsSection:
        decoded = DecodeStatsAligned(payload, &parsed.result.stats);
        break;
      case kMetaSection:
        decoded = DecodeMetaAligned(payload, &parsed.meta);
        break;
      default:
        decoded = DecodeHostsAligned(payload, &parsed.result.table);
        break;
    }
    WSD_RETURN_IF_ERROR(decoded);
  }
  if (reader.left() != 0) {
    return Status::Corruption("trailing bytes after snapshot sections");
  }
  // Version/vocabulary cross-check: a file claiming an old header version
  // must not carry an attribute introduced after that version — genuine
  // old writers could not have produced it, so it is corrupt or forged.
  if (SnapshotVersionFor(parsed.meta.attr) > version) {
    return Status::Corruption(
        "snapshot meta attribute requires schema v" +
        std::to_string(SnapshotVersionFor(parsed.meta.attr)) +
        " but file is v" + std::to_string(version));
  }
  return parsed;
}

Status WriteSnapshotFileAligned(const std::string& path,
                                const ScanResult& result,
                                const SnapshotMeta& meta) {
  auto bytes = SerializeSnapshotAligned(result, meta);
  if (!bytes.ok()) return bytes.status();
  return WriteFileAtomic(path, *bytes);
}

StatusOr<ParsedSnapshot> LoadSnapshotFile(const std::string& path) {
  static Counter& mmap_loads =
      MetricsRegistry::Global().GetCounter("wsd.store.mmap_loads");
  static Counter& mmap_bytes =
      MetricsRegistry::Global().GetCounter("wsd.store.mmap_bytes");

  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::string_view bytes = mapped->view();
  auto parsed = ParseSnapshotFull(bytes);
  if (parsed.ok()) {
    mmap_loads.Increment();
    mmap_bytes.Increment(bytes.size());
  }
  return parsed;
}

}  // namespace wsd
