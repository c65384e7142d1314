// The scalar and AVX2 implementations of the scan-kernel primitives and
// the runtime dispatch that selects between them. This is the only
// translation unit in the library allowed to use <immintrin.h> / vector
// intrinsics (enforced by wsd_lint's [simd-confinement] rule); the AVX2
// kernels carry per-function target attributes — never -march=native —
// so one binary runs everywhere and CPUID picks at startup.
//
// All builders share one contract (see ScanOps in simd.h): one bit per
// input byte, 64-byte blocks map to one output word per plane, tail bits
// past n are zero, and the AVX2 tier is bit-identical to the kScalar
// reference (simd_test proves it per primitive; the kernel equivalence
// tests and differential fuzzers prove it end to end).

#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/cpu.h"
#include "util/mutex.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

#if defined(__x86_64__) || defined(__i386__)
#define WSD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace wsd {
namespace simd {

namespace {

constexpr size_t npos = static_cast<size_t>(-1);

bool IsIsbnBody(char c) {
  return IsDigit(c) || c == '-' || c == 'X' || c == 'x';
}

// --------------------------------------------------------------------
// Scalar tier: naive per-byte builders. These double as the reference
// oracle for the other tiers in simd_test, so keep them obvious.
// --------------------------------------------------------------------

void BuildHtmlScalar(const char* s, size_t n, uint64_t* lt, uint64_t* amp,
                     uint64_t* gt, uint64_t* quote) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t l = 0, a = 0, g = 0, q = 0;
    for (size_t i = 0; i < len; ++i) {
      const char c = s[base + i];
      if (c == '<') l |= uint64_t{1} << i;
      if (c == '&') a |= uint64_t{1} << i;
      if (c == '>') g |= uint64_t{1} << i;
      if (c == '"' || c == '\'') q |= uint64_t{1} << i;
    }
    lt[w] = l;
    amp[w] = a;
    gt[w] = g;
    quote[w] = q;
  }
}

void BuildPhoneCandidatesScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const size_t pos = base + i;
      const char c = s[pos];
      const bool cand =
          (IsDigit(c) || c == '(' || c == '+') &&
          !(IsDigit(c) && pos != 0 && IsDigit(s[pos - 1]));
      if (cand) b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

void BuildIsbnCandidatesScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const size_t pos = base + i;
      const bool cand = IsDigit(s[pos]) &&
                        !(pos > 0 && IsIsbnBody(s[pos - 1]));
      if (cand) b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

void BuildWordCharsScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const char c = s[base + i];
      if (IsAlnum(c) || c == '\'') b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

size_t FindTagEndScalar(const char* s, size_t n, size_t from) {
  char quote = 0;
  for (size_t i = from; i < n; ++i) {
    const char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '>') {
      return i;
    }
  }
  return npos;
}

size_t FindCiScalar(const char* s, size_t n, size_t from,
                    const char* needle, size_t needle_len) {
  if (needle_len == 0 || n < needle_len) return npos;
  const size_t limit = n - needle_len;
  for (size_t i = from; i <= limit; ++i) {
    bool match = true;
    for (size_t j = 0; j < needle_len; ++j) {
      if (ToLowerChar(s[i + j]) != ToLowerChar(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return npos;
}

#if WSD_SIMD_X86

// Per-block helpers below carry the same target attribute as their
// callers (required: GCC only inlines a target-attributed callee into a
// caller whose target is a superset). Lambdas do NOT inherit target
// attributes, so block loops are written out per builder with a
// zero-padded tail block — zero bytes classify as nothing, keeping tail
// bits clear.

// --------------------------------------------------------------------
// AVX2 tier: 32 bytes per load, two loads per 64-byte block. Range
// classes (digits, letters) use saturating subtraction, which is exact
// for all byte values including >= 0x80 (UTF-8 continuation bytes).
// --------------------------------------------------------------------

__attribute__((target("avx2"), always_inline)) inline uint64_t Mask32(
    __m256i m) {
  return static_cast<uint64_t>(
      static_cast<uint32_t>(_mm256_movemask_epi8(m)));
}

__attribute__((target("avx2"), always_inline)) inline __m256i InRange32(
    __m256i x, char lo, char hi) {
  const __m256i zero = _mm256_setzero_si256();
  return _mm256_and_si256(
      _mm256_cmpeq_epi8(_mm256_subs_epu8(x, _mm256_set1_epi8(hi)), zero),
      _mm256_cmpeq_epi8(_mm256_subs_epu8(_mm256_set1_epi8(lo), x), zero));
}

__attribute__((target("avx2"), always_inline)) inline void HtmlBlockAvx2(
    const char* p, uint64_t* l, uint64_t* a, uint64_t* g, uint64_t* q) {
  const __m256i vlt = _mm256_set1_epi8('<');
  const __m256i vamp = _mm256_set1_epi8('&');
  const __m256i vgt = _mm256_set1_epi8('>');
  const __m256i vdq = _mm256_set1_epi8('"');
  const __m256i vsq = _mm256_set1_epi8('\'');
  const __m256i x0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i x1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  *l = Mask32(_mm256_cmpeq_epi8(x0, vlt)) |
       Mask32(_mm256_cmpeq_epi8(x1, vlt)) << 32;
  *a = Mask32(_mm256_cmpeq_epi8(x0, vamp)) |
       Mask32(_mm256_cmpeq_epi8(x1, vamp)) << 32;
  *g = Mask32(_mm256_cmpeq_epi8(x0, vgt)) |
       Mask32(_mm256_cmpeq_epi8(x1, vgt)) << 32;
  *q = Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x0, vdq),
                              _mm256_cmpeq_epi8(x0, vsq))) |
       Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x1, vdq),
                              _mm256_cmpeq_epi8(x1, vsq)))
           << 32;
}

__attribute__((target("avx2"))) void BuildHtmlAvx2(const char* s, size_t n,
                                                   uint64_t* lt,
                                                   uint64_t* amp,
                                                   uint64_t* gt,
                                                   uint64_t* quote) {
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    HtmlBlockAvx2(s + w * 64, &lt[w], &amp[w], &gt[w], &quote[w]);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    HtmlBlockAvx2(buf, &lt[full], &amp[full], &gt[full], &quote[full]);
  }
}

__attribute__((target("avx2"), always_inline)) inline void
PhoneBlockAvx2(const char* p, uint64_t* carry, uint64_t* out) {
  const __m256i vparen = _mm256_set1_epi8('(');
  const __m256i vplus = _mm256_set1_epi8('+');
  const __m256i x0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i x1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const uint64_t digits = Mask32(InRange32(x0, '0', '9')) |
                          Mask32(InRange32(x1, '0', '9')) << 32;
  const uint64_t starts =
      Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x0, vparen),
                             _mm256_cmpeq_epi8(x0, vplus))) |
      Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x1, vparen),
                             _mm256_cmpeq_epi8(x1, vplus)))
          << 32;
  *out = (digits & ~((digits << 1) | *carry)) | starts;
  *carry = digits >> 63;
}

__attribute__((target("avx2"))) void BuildPhoneCandidatesAvx2(
    const char* s, size_t n, uint64_t* bits) {
  const size_t full = n / 64;
  uint64_t carry = 0;
  for (size_t w = 0; w < full; ++w) {
    PhoneBlockAvx2(s + w * 64, &carry, &bits[w]);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    PhoneBlockAvx2(buf, &carry, &bits[full]);
  }
}

__attribute__((target("avx2"), always_inline)) inline void
IsbnBlockAvx2(const char* p, uint64_t* carry, uint64_t* out) {
  const __m256i vdash = _mm256_set1_epi8('-');
  const __m256i vxu = _mm256_set1_epi8('X');
  const __m256i vxl = _mm256_set1_epi8('x');
  uint64_t digits = 0, body = 0;
  for (int k = 0; k < 2; ++k) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const __m256i d = InRange32(x, '0', '9');
    const __m256i b = _mm256_or_si256(
        _mm256_or_si256(d, _mm256_cmpeq_epi8(x, vdash)),
        _mm256_or_si256(_mm256_cmpeq_epi8(x, vxu),
                        _mm256_cmpeq_epi8(x, vxl)));
    digits |= Mask32(d) << (32 * k);
    body |= Mask32(b) << (32 * k);
  }
  *out = digits & ~((body << 1) | *carry);
  *carry = body >> 63;
}

__attribute__((target("avx2"))) void BuildIsbnCandidatesAvx2(
    const char* s, size_t n, uint64_t* bits) {
  const size_t full = n / 64;
  uint64_t carry = 0;
  for (size_t w = 0; w < full; ++w) {
    IsbnBlockAvx2(s + w * 64, &carry, &bits[w]);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    IsbnBlockAvx2(buf, &carry, &bits[full]);
  }
}

__attribute__((target("avx2"), always_inline)) inline uint64_t
WordCharBlockAvx2(const char* p) {
  const __m256i vapos = _mm256_set1_epi8('\'');
  uint64_t b = 0;
  for (int k = 0; k < 2; ++k) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const __m256i word_char = _mm256_or_si256(
        _mm256_or_si256(InRange32(x, '0', '9'), InRange32(x, 'a', 'z')),
        _mm256_or_si256(InRange32(x, 'A', 'Z'),
                        _mm256_cmpeq_epi8(x, vapos)));
    b |= Mask32(word_char) << (32 * k);
  }
  return b;
}

__attribute__((target("avx2"))) void BuildWordCharsAvx2(const char* s,
                                                        size_t n,
                                                        uint64_t* bits) {
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    bits[w] = WordCharBlockAvx2(s + w * 64);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    bits[full] = WordCharBlockAvx2(buf);
  }
}

__attribute__((target("avx2"))) size_t FindTagEndAvx2(const char* s,
                                                      size_t n,
                                                      size_t from) {
  const __m256i vdq = _mm256_set1_epi8('"');
  const __m256i vsq = _mm256_set1_epi8('\'');
  const __m256i vgt = _mm256_set1_epi8('>');
  char quote = 0;
  for (size_t base = from; base < n; base += 32) {
    uint32_t m;
    if (n - base >= 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + base));
      m = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_or_si256(
          _mm256_or_si256(_mm256_cmpeq_epi8(x, vdq),
                          _mm256_cmpeq_epi8(x, vsq)),
          _mm256_cmpeq_epi8(x, vgt))));
    } else {
      char buf[32] = {};
      std::memcpy(buf, s + base, n - base);
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(buf));
      m = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_or_si256(
          _mm256_or_si256(_mm256_cmpeq_epi8(x, vdq),
                          _mm256_cmpeq_epi8(x, vsq)),
          _mm256_cmpeq_epi8(x, vgt))));
    }
    while (m != 0) {
      const size_t i = base + static_cast<size_t>(std::countr_zero(m));
      m &= m - 1;
      const char c = s[i];
      if (quote != 0) {
        if (c == quote) quote = 0;
      } else if (c == '>') {
        return i;
      } else {
        quote = c;
      }
    }
  }
  return npos;
}

__attribute__((target("avx2"))) size_t FindCiAvx2(const char* s, size_t n,
                                                  size_t from,
                                                  const char* needle,
                                                  size_t needle_len) {
  if (needle_len == 0 || n < needle_len) return npos;
  const size_t limit = n - needle_len;
  const char lo = ToLowerChar(needle[0]);
  const char up = lo >= 'a' && lo <= 'z' ? static_cast<char>(lo - 32) : lo;
  const __m256i vlo = _mm256_set1_epi8(lo);
  const __m256i vup = _mm256_set1_epi8(up);
  for (size_t base = from; base <= limit; base += 32) {
    uint32_t m;
    if (n - base >= 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + base));
      m = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_or_si256(
          _mm256_cmpeq_epi8(x, vlo), _mm256_cmpeq_epi8(x, vup))));
    } else {
      char buf[32] = {};
      std::memcpy(buf, s + base, n - base);
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(buf));
      m = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_or_si256(
          _mm256_cmpeq_epi8(x, vlo), _mm256_cmpeq_epi8(x, vup))));
    }
    while (m != 0) {
      const size_t i = base + static_cast<size_t>(std::countr_zero(m));
      m &= m - 1;
      if (i > limit) return npos;
      bool match = true;
      for (size_t j = 1; j < needle_len; ++j) {
        if (ToLowerChar(s[i + j]) != ToLowerChar(needle[j])) {
          match = false;
          break;
        }
      }
      if (match) return i;
    }
  }
  return npos;
}

#endif  // WSD_SIMD_X86

// --------------------------------------------------------------------
// Dispatch tables and tier selection.
// --------------------------------------------------------------------

constexpr ScanOps kScalarOps = {
    BuildHtmlScalar,        BuildPhoneCandidatesScalar,
    BuildIsbnCandidatesScalar, BuildWordCharsScalar,
    FindTagEndScalar,       FindCiScalar,
};

#if WSD_SIMD_X86
constexpr ScanOps kAvx2Ops = {
    BuildHtmlAvx2,        BuildPhoneCandidatesAvx2,
    BuildIsbnCandidatesAvx2, BuildWordCharsAvx2,
    FindTagEndAvx2,       FindCiAvx2,
};
#endif

const ScanOps* TierTable(Tier tier) {
#if WSD_SIMD_X86
  if (tier == Tier::kAvx2) return &kAvx2Ops;
#endif
  (void)tier;
  return &kScalarOps;
}

std::atomic<int> g_tier{-1};
std::atomic<const ScanOps*> g_ops{&kScalarOps};
OnceFlag g_init_once;

// Set and not "0" means on.
bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

void SetTier(Tier tier) {
  g_ops.store(TierTable(tier), std::memory_order_relaxed);
  g_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetGauge("wsd.scan.simd_tier")
      .Set(static_cast<double>(static_cast<int>(tier)));
}

void InitDispatch() {
  const bool force_scalar = EnvFlagSet("WSD_FORCE_SCALAR");
  const Tier chosen =
      !force_scalar && CpuHasAvx2() ? Tier::kAvx2 : Tier::kScalar;
  SetTier(chosen);
  WSD_LOG(kInfo) << "simd dispatch: tier=" << TierName(chosen)
                 << " (cpu avx2: " << (CpuHasAvx2() ? "yes" : "no") << ")"
                 << (force_scalar ? " [forced via WSD_FORCE_SCALAR]" : "");
}

}  // namespace

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

Tier ActiveTier() {
  const int tier = g_tier.load(std::memory_order_relaxed);
  if (tier >= 0) return static_cast<Tier>(tier);
  CallOnce(g_init_once, InitDispatch);
  return static_cast<Tier>(g_tier.load(std::memory_order_relaxed));
}

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (CpuHasAvx2()) tiers.push_back(Tier::kAvx2);
  return tiers;
}

const ScanOps& Ops() {
  (void)ActiveTier();
  return *g_ops.load(std::memory_order_relaxed);
}

const ScanOps& OpsForTier(Tier tier) { return *TierTable(tier); }

ScopedTierOverride::ScopedTierOverride(Tier tier) : prev_(ActiveTier()) {
  SetTier(tier);
}

ScopedTierOverride::~ScopedTierOverride() { SetTier(prev_); }

}  // namespace simd
}  // namespace wsd
