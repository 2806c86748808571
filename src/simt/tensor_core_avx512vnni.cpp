// AVX-512-VNNI flavor of the byte-operand panel kernels. This translation
// unit is compiled with -mavx512{f,bw,dq,vl,vnni} on x86-64 GCC/Clang builds
// when MAGICUBE_SIMD is on; tensor_core.cpp dispatches into it only after
// __builtin_cpu_supports confirms all five feature bits at runtime, and
// takes every other panel entry point of this flavor from the AVX-512
// instantiation. On other targets (or with MAGICUBE_SIMD off) the unit
// compiles empty and is never referenced.
//
// vpdpbusd is the CPU analogue of the int8 mma the paper issues: it
// multiplies 4 unsigned bytes of one operand with 4 signed bytes of the
// other, sums the 4 products exactly and adds the sum into a 32-bit lane
// with wraparound (the non-saturating form). So it stays bit-exact mod 2^32
// with the counted mma chains once both operands sit in the right byte
// domain:
//
//   A signed,   B unsigned: vpdpbusd(C, B, A)                   (as is)
//   A unsigned, B signed:   vpdpbusd(C, A, B)                   (as is)
//   A signed,   B signed:   vpdpbusd(C, B ^ 0x80, A) - 128 * sum(A)
//   A unsigned, B unsigned: vpdpbusd(C, A, B ^ 0x80) + 128 * sum(A)
//
// B ^ 0x80 read unsigned is B + 128, read signed it is B - 128; the
// per-row sum of A undoes the offset, mod 2^32. Stacked and bias-encoded A
// groups are already unsigned (decode_span_*_biased plus the column-sum
// correction), so against a signed B they need no extra step. The int4
// datapath expands nibbles to bytes first and then follows the same rules.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simt/tensor_core.hpp"

#if defined(MAGICUBE_SIMD) && MAGICUBE_SIMD && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)

#include <immintrin.h>

// GCC 12 reports its own _mm512_undefined_* self-initialization inside the
// intrinsic headers as uninitialized use once the intrinsics inline here.
#pragma GCC diagnostic push
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace magicube::simt::panel_detail::avx512vnni {

namespace {

// PanelB layout of this flavor: up to two variants of the step's B rows,
// each k/4 quads x 4 zmm. Variant 0 serves signed A (B in the u8 domain),
// variant 1 unsigned A (B in the s8 domain). In a quad, zmm j holds
// columns 16j..16j+15 in natural order, and 32-bit lane c of it holds
// B[4q..4q+3][16j + c], one byte per k. A padded row is a zero row of the
// variant's domain. Padding sits at the tail of a row's last step (the
// int4 index shuffle permutes only within aligned groups of 8), so the
// pack stops after the last quad holding a present row and PanelB::k
// records the depth kept; the sign correction then covers the same depth.
constexpr int kVariantSigned = 1;    // flags bit: variant 0 present
constexpr int kVariantUnsigned = 2;  // flags bit: variant 1 present
constexpr int kBSigned = 4;          // flags bit: B values are signed
constexpr std::size_t kVariantWords = 8 * 4 * 16;  // 8 quads x 4 zmm

inline __m512i* variant_base(PanelB& b, int variant) {
  return reinterpret_cast<__m512i*>(b.data.data() + variant * kVariantWords);
}
inline const __m512i* variant_base(const PanelB& b, int variant) {
  return reinterpret_cast<const __m512i*>(b.data.data() +
                                          variant * kVariantWords);
}

/// 64 packed int4 elements (32 bytes) as 64 bytes, element e at byte e:
/// nibbles zero-extended, or sign-extended when `is_signed`.
inline __m512i expand_nibbles(__m256i packed, bool is_signed) {
  const __m512i w = _mm512_cvtepu8_epi16(packed);
  // Word i = byte i of the input: (w | w << 4) & 0x0f0f puts its low
  // nibble in byte 2i and its high nibble in byte 2i + 1.
  __m512i x = _mm512_and_si512(_mm512_or_si512(w, _mm512_slli_epi16(w, 4)),
                               _mm512_set1_epi16(0x0f0f));
  if (is_signed) {
    const __m512i eight = _mm512_set1_epi8(8);
    x = _mm512_sub_epi8(_mm512_xor_si512(x, eight), eight);
  }
  return x;
}

/// Row k of a step as 64 bytes, one per column (zero for a padded slot).
inline __m512i load_b_row(const std::uint8_t* row, bool int4,
                          bool b_signed) {
  if (row == nullptr) return _mm512_setzero_si512();
  if (int4) {
    return expand_nibbles(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)), b_signed);
  }
  return _mm512_loadu_si512(row);
}

/// Packs one quad (4 B rows) into 4 zmm of quad-interleaved bytes. The
/// vpermd turns each 128-bit lane L into columns {16m + 4L .. 16m + 4L + 3}
/// for m = 0..3, so that the in-lane byte/word unpacks land every column
/// in natural order.
inline void pack_quad(const std::uint8_t* const* rows, bool int4,
                      bool b_signed, __m512i out[4]) {
  const __m512i perm = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10,
                                         14, 3, 7, 11, 15);
  __m512i r[4];
  for (int i = 0; i < 4; ++i) {
    r[i] = _mm512_permutexvar_epi32(perm, load_b_row(rows[i], int4, b_signed));
  }
  const __m512i t0 = _mm512_unpacklo_epi8(r[0], r[1]);
  const __m512i t1 = _mm512_unpackhi_epi8(r[0], r[1]);
  const __m512i t2 = _mm512_unpacklo_epi8(r[2], r[3]);
  const __m512i t3 = _mm512_unpackhi_epi8(r[2], r[3]);
  out[0] = _mm512_unpacklo_epi16(t0, t2);
  out[1] = _mm512_unpackhi_epi16(t0, t2);
  out[2] = _mm512_unpacklo_epi16(t1, t3);
  out[3] = _mm512_unpackhi_epi16(t1, t3);
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// +-128 * sum mod 2^32: undoes the B offset of a flipped variant.
inline __m512i sign_correction(std::int32_t sum, bool a_signed) {
  const std::uint32_t c = static_cast<std::uint32_t>(sum) * 128u;
  return _mm512_set1_epi32(static_cast<int>(a_signed ? 0u - c : c));
}

template <bool kASigned>
void mac_rows(std::uint32_t* acc, const PanelA& a, const __m512i* bq,
              int quads, int rows, bool flip) {
  for (int r = 0; r < rows; ++r) {
    std::uint32_t* crow = acc + static_cast<std::ptrdiff_t>(r) * 64;
    __m512i c[4];
    for (int j = 0; j < 4; ++j) c[j] = _mm512_loadu_si512(crow + 16 * j);
    const std::uint8_t* arow = a.v[static_cast<std::size_t>(r)].data();
    for (int q = 0; q < quads; ++q) {
      const __m512i av =
          _mm512_set1_epi32(static_cast<int>(load_u32(arow + 4 * q)));
      for (int j = 0; j < 4; ++j) {
        c[j] = kASigned ? _mm512_dpbusd_epi32(c[j], bq[4 * q + j], av)
                        : _mm512_dpbusd_epi32(c[j], av, bq[4 * q + j]);
      }
    }
    if (flip) {
      const __m512i corr = sign_correction(
          a.prefix[static_cast<std::size_t>(r)]
                  [static_cast<std::size_t>(quads - 1)],
          kASigned);
      for (int j = 0; j < 4; ++j) c[j] = _mm512_add_epi32(c[j], corr);
    }
    for (int j = 0; j < 4; ++j) _mm512_storeu_si512(crow + 16 * j, c[j]);
  }
}

/// Horizontal int32 sum of a zmm, mod 2^32.
inline std::uint32_t hsum(__m512i v) {
  __m256i x = _mm256_add_epi32(_mm512_castsi512_si256(v),
                               _mm512_extracti64x4_epi64(v, 1));
  __m128i y = _mm_add_epi32(_mm256_castsi256_si128(x),
                            _mm256_extracti128_si256(x, 1));
  y = _mm_add_epi32(y, _mm_shuffle_epi32(y, 0x4e));
  y = _mm_add_epi32(y, _mm_shuffle_epi32(y, 0xb1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(y));
}

// Dot operands: a 64-byte header (word 0: signed flag, word 1: element
// sum) followed by the elements as bytes, zero-padded to whole zmm.
constexpr std::size_t kDotHeaderWords = 16;

}  // namespace

void pack_panel_b(const std::uint8_t* const* rows, int k_count, bool int4,
                  bool b_signed, unsigned a_signs, PanelB& out) {
  int kept = 0;  // one past the last present row
  for (int k = 0; k < k_count; ++k) {
    if (rows[k] != nullptr) kept = k + 1;
  }
  const int quads = (kept + 3) / 4;
  out.k = 4 * quads;
  out.flags = b_signed ? kBSigned : 0;
  // Variant 0 (signed A) needs B as u8: flip a signed B. Variant 1
  // (unsigned A) needs B as s8: flip an unsigned B.
  const __m512i flip_mask = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i v0_xor = b_signed ? flip_mask : _mm512_setzero_si512();
  const __m512i v1_xor = b_signed ? _mm512_setzero_si512() : flip_mask;
  const bool want0 = (a_signs & kPanelASigned) != 0;
  const bool want1 = (a_signs & kPanelAUnsigned) != 0;
  if (want0) out.flags |= kVariantSigned;
  if (want1) out.flags |= kVariantUnsigned;
  __m512i* v0 = variant_base(out, 0);
  __m512i* v1 = variant_base(out, 1);
  for (int q = 0; q < quads; ++q) {
    __m512i quad[4];
    pack_quad(rows + 4 * q, int4, b_signed, quad);
    for (int j = 0; j < 4; ++j) {
      if (want0) _mm512_store_si512(v0 + 4 * q + j, quad[j] ^ v0_xor);
      if (want1) _mm512_store_si512(v1 + 4 * q + j, quad[j] ^ v1_xor);
    }
  }
}

void mma_panel_n64(std::uint32_t* acc, const PanelA& a, const PanelB& b,
                   int rows) {
  const int quads = b.k / 4;
  if (quads == 0) return;
  const bool b_signed = (b.flags & kBSigned) != 0;
  const bool flip = a.is_signed == b_signed;
  if (a.is_signed) {
    mac_rows<true>(acc, a, variant_base(b, 0), quads, rows, flip);
  } else {
    mac_rows<false>(acc, a, variant_base(b, 1), quads, rows, flip);
  }
}

void panel_colsum(const PanelB& b, std::int64_t* colsum) {
  const bool b_signed = (b.flags & kBSigned) != 0;
  const bool use_v0 = (b.flags & kVariantSigned) != 0;
  const __m512i* bq = variant_base(b, use_v0 ? 0 : 1);
  // Sum the stored bytes against a ones vector, in whichever role the
  // variant's domain allows, then remove the flip offset of every row
  // (padded rows included: they store the domain's zero).
  const __m512i ones = _mm512_set1_epi8(1);
  __m512i cs[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                   _mm512_setzero_si512(), _mm512_setzero_si512()};
  for (int q = 0; q < b.k / 4; ++q) {
    for (int j = 0; j < 4; ++j) {
      cs[j] = use_v0 ? _mm512_dpbusd_epi32(cs[j], bq[4 * q + j], ones)
                     : _mm512_dpbusd_epi32(cs[j], ones, bq[4 * q + j]);
    }
  }
  std::int32_t offset = 0;
  if (use_v0 && b_signed) offset = -128 * b.k;   // stored B + 128
  if (!use_v0 && !b_signed) offset = 128 * b.k;  // stored B - 128
  const __m512i off = _mm512_set1_epi32(offset);
  for (int j = 0; j < 4; ++j) {
    const __m512i s = _mm512_add_epi32(cs[j], off);
    std::int64_t* dst = colsum + 16 * j;
    const __m512i lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(s));
    const __m512i hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(s, 1));
    _mm512_storeu_si512(dst, _mm512_add_epi64(_mm512_loadu_si512(dst), lo));
    _mm512_storeu_si512(dst + 8,
                        _mm512_add_epi64(_mm512_loadu_si512(dst + 8), hi));
  }
}

void fused_decode_mma_n64(std::uint32_t* acc, const PanelA& a,
                          const std::uint8_t* const* rows, int k_count,
                          bool int4, bool b_signed, int active_rows) {
  PanelB panel;
  // Parenthesized names: this flavor's kernels, not the dispatched
  // simt:: entry points that argument-dependent lookup would also find.
  (pack_panel_b)(rows, k_count, int4, b_signed,
                 a.is_signed ? kPanelASigned : kPanelAUnsigned, panel);
  (mma_panel_n64)(acc, a, panel, active_rows);
}

std::size_t dot_operand_words(std::size_t k) {
  return kDotHeaderWords + (k + 63) / 64 * 16;
}

void pack_dot_operand(const std::uint8_t* src, std::size_t k, bool int4,
                      bool is_signed, std::int32_t* dst) {
  __m512i* out = reinterpret_cast<__m512i*>(dst + kDotHeaderWords);
  const __m512i ones = _mm512_set1_epi8(1);
  __m512i sum = _mm512_setzero_si512();
  for (std::size_t e = 0; e < k; e += 64) {
    const std::size_t n = k - e < 64 ? k - e : 64;  // elements this zmm
    __m512i v;
    if (int4) {
      const __mmask32 m =
          n == 64 ? ~__mmask32{0}
                  : static_cast<__mmask32>((1ull << (n / 2)) - 1);
      v = expand_nibbles(_mm256_maskz_loadu_epi8(m, src + e / 2), is_signed);
    } else {
      const __mmask64 m = n == 64 ? ~__mmask64{0} : (1ull << n) - 1;
      v = _mm512_maskz_loadu_epi8(m, src + e);
    }
    _mm512_storeu_si512(out + e / 64, v);
    sum = is_signed ? _mm512_dpbusd_epi32(sum, ones, v)
                    : _mm512_dpbusd_epi32(sum, v, ones);
  }
  dst[0] = is_signed ? 1 : 0;
  dst[1] = static_cast<std::int32_t>(hsum(sum));
  for (std::size_t w = 2; w < kDotHeaderWords; ++w) dst[w] = 0;
}

std::int32_t dot_packed(const std::int32_t* a, const std::int32_t* b,
                        std::size_t k) {
  const bool a_signed = a[0] != 0;
  const bool flip = a_signed == (b[0] != 0);
  const __m512i* av = reinterpret_cast<const __m512i*>(a + kDotHeaderWords);
  const __m512i* bv = reinterpret_cast<const __m512i*>(b + kDotHeaderWords);
  const __m512i bx =
      flip ? _mm512_set1_epi8(static_cast<char>(0x80)) : _mm512_setzero_si512();
  __m512i acc = _mm512_setzero_si512();
  const std::size_t zmms = (k + 63) / 64;
  for (std::size_t i = 0; i < zmms; ++i) {
    const __m512i x = _mm512_loadu_si512(av + i);
    const __m512i y = _mm512_loadu_si512(bv + i) ^ bx;
    acc = a_signed ? _mm512_dpbusd_epi32(acc, y, x)
                   : _mm512_dpbusd_epi32(acc, x, y);
  }
  std::uint32_t total = hsum(acc);
  if (flip) {
    // a's zero padding meets b's flipped padding as 0 * (+-128) = 0, so the
    // correction covers exactly the k real elements.
    const std::uint32_t c = static_cast<std::uint32_t>(a[1]) * 128u;
    total += a_signed ? 0u - c : c;
  }
  return static_cast<std::int32_t>(total);
}

}  // namespace magicube::simt::panel_detail::avx512vnni

#pragma GCC diagnostic pop

#endif
