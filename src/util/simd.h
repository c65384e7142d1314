#ifndef WSD_UTIL_SIMD_H_
#define WSD_UTIL_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace wsd {
namespace simd {

/// Dispatch tiers for the vectorized scan kernels. Selection happens
/// once at startup from CPUID (util/cpu.h) plus the WSD_FORCE_SCALAR env
/// override, and is published as the `wsd.scan.simd_tier` gauge (the
/// numeric values are part of that gauge's contract).
///
///  - kScalar: the PR 3 scalar kernel paths, byte for byte — the
///    ablation baseline, and the path on CPUs without AVX2 or with
///    WSD_FORCE_SCALAR set (non-"0").
///  - kAvx2:   the bitmap-index kernels with 256-bit classifiers;
///    selected whenever the CPU supports AVX2 and no force is set.
///
/// Both tiers produce bit-identical output (enforced by simd_test, the
/// kernel equivalence tests, and the differential fuzzers); only the
/// bytes/sec differ.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 3,
};

/// Short lower-case name for logs/benches: "scalar" or "avx2".
const char* TierName(Tier tier);

/// The tier selected at startup (detection + env override). The first
/// call initializes dispatch, logs one line, and sets the
/// `wsd.scan.simd_tier` gauge; later calls are one relaxed atomic load.
Tier ActiveTier();

/// Every tier this machine can execute, in ascending order: kScalar,
/// plus kAvx2 when the CPU supports it. Tests iterate this to prove
/// per-tier equivalence.
std::vector<Tier> AvailableTiers();

/// Temporarily repoints dispatch at `tier` (which must be in
/// AvailableTiers()), for tests and the bench ablation. Restores the
/// previous tier (and the gauge) on destruction. Install before spawning
/// worker threads and destroy after joining them; concurrent overrides
/// are not supported.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(Tier tier);
  ~ScopedTierOverride();

  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  Tier prev_;
};

/// The per-tier kernel primitives. All builders write one bit per input
/// byte into `ceil(n / 64)` little-endian words (bit i of word i/64 is
/// byte i); tail bits past n are zero. Intrinsics live only in
/// util/simd.cc (enforced by wsd_lint's [simd-confinement] rule).
struct ScanOps {
  // The HTML structural planes, all four in one pass: bit set iff
  // s[i] == '<' (lt) / '&' (amp) / '>' (gt) / '"' or '\'' (quote). The
  // text-extraction kernel walks lt, jumps '&'s through amp, and
  // resolves tag ends from gt directly whenever quote has no bit before
  // the candidate '>' (the quote-aware state machine is the rare path).
  void (*build_html)(const char* s, size_t n, uint64_t* lt, uint64_t* amp,
                     uint64_t* gt, uint64_t* quote);
  // bit set iff a phone parse may start at s[i]: digit, '(' or '+',
  // minus digits preceded by a digit (mid-run positions never match).
  void (*build_phone_candidates)(const char* s, size_t n, uint64_t* bits);
  // bit set iff an ISBN run may start at s[i]: a digit not preceded by
  // an ISBN body char (digit, '-', 'X', 'x').
  void (*build_isbn_candidates)(const char* s, size_t n, uint64_t* bits);
  // bit set iff s[i] is a classification word char (alnum or '\'').
  void (*build_word_chars)(const char* s, size_t n, uint64_t* bits);
  // First '>' at/after `from` outside single/double quotes, npos if
  // unterminated — Tokenizer::FindTagEnd semantics.
  size_t (*find_tag_end)(const char* s, size_t n, size_t from);
  // First case-insensitive occurrence of needle at/after `from`.
  size_t (*find_ci)(const char* s, size_t n, size_t from,
                    const char* needle, size_t needle_len);
};

/// Primitive table for the active tier / an explicit tier. OpsForTier
/// of kScalar returns the naive per-byte reference implementations,
/// which double as the oracle in simd_test.
const ScanOps& Ops();
const ScanOps& OpsForTier(Tier tier);

/// One bit per input byte, with capacity reuse across Build calls: a
/// plane grows to its watermark within the first few pages of a scan and
/// allocates nothing afterwards (part of the kernel's steady-state
/// zero-allocation contract).
class BitPlane {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Prepares the plane for `n` input bytes. Word contents are left
  /// stale; a builder overwrites every word including zeroed tail bits.
  void Resize(size_t n) {
    size_ = n;
    const size_t words = (n + 63) / 64;
    if (words > words_.size()) words_.resize(words);
  }

  uint64_t* words() { return words_.data(); }
  size_t size() const { return size_; }

  /// Index of the first set bit at/after `from`, or npos.
  size_t NextSet(size_t from) const {
    const size_t nwords = (size_ + 63) / 64;
    size_t w = from >> 6;
    if (w >= nwords) return npos;
    uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w >= nwords) return npos;
      word = words_[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(word));
  }

  /// Index of the first clear bit at/after `from`, clamped to size()
  /// (i.e. returns size() when bits are set through the end). Requires
  /// from <= size().
  size_t NextClear(size_t from) const {
    const size_t nwords = (size_ + 63) / 64;
    size_t w = from >> 6;
    if (w >= nwords) return size_;
    uint64_t word = ~words_[w] & (~uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w >= nwords) return size_;
      word = ~words_[w];
    }
    const size_t pos = (w << 6) + static_cast<size_t>(std::countr_zero(word));
    return pos < size_ ? pos : size_;
  }

  /// True iff any bit is set in [from, to). Requires to <= size().
  /// Word-granular, so testing a short range costs a handful of ops —
  /// the kernel's "does this text run contain a '&' at all" /
  /// "is there a quote before this '>'" fast-path gate.
  bool AnyInRange(size_t from, size_t to) const {
    if (from >= to) return false;
    const size_t w0 = from >> 6;
    const size_t w1 = (to - 1) >> 6;
    const uint64_t m0 = ~uint64_t{0} << (from & 63);
    const uint64_t m1 = ~uint64_t{0} >> (63 - ((to - 1) & 63));
    if (w0 == w1) return (words_[w0] & m0 & m1) != 0;
    if ((words_[w0] & m0) != 0) return true;
    for (size_t w = w0 + 1; w < w1; ++w) {
      if (words_[w] != 0) return true;
    }
    return (words_[w1] & m1) != 0;
  }

  /// Capacity in bytes, for scratch-footprint accounting.
  size_t MemoryFootprint() const { return words_.capacity() * 8; }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// Dispatching wrappers over Ops(). The builders Resize the planes to
/// s.size() first.
inline void BuildHtmlPlanes(std::string_view s, BitPlane* lt, BitPlane* amp,
                            BitPlane* gt, BitPlane* quote) {
  lt->Resize(s.size());
  amp->Resize(s.size());
  gt->Resize(s.size());
  quote->Resize(s.size());
  Ops().build_html(s.data(), s.size(), lt->words(), amp->words(),
                   gt->words(), quote->words());
}

inline void BuildPhoneCandidates(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_phone_candidates(s.data(), s.size(), bits->words());
}

inline void BuildIsbnCandidates(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_isbn_candidates(s.data(), s.size(), bits->words());
}

inline void BuildWordChars(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_word_chars(s.data(), s.size(), bits->words());
}

inline size_t FindTagEnd(std::string_view s, size_t from) {
  return Ops().find_tag_end(s.data(), s.size(), from);
}

inline size_t FindCaseInsensitive(std::string_view s, std::string_view needle,
                                  size_t from) {
  return Ops().find_ci(s.data(), s.size(), from, needle.data(),
                       needle.size());
}

}  // namespace simd
}  // namespace wsd

#endif  // WSD_UTIL_SIMD_H_
