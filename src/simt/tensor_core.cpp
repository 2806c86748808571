#include "simt/tensor_core.hpp"

#include <vector>

#include "simt/panel_flavors.hpp"

namespace magicube::simt {

namespace {

// Decodes element `idx` of a lane register holding packed `bits`-wide values.
std::int32_t decode(std::uint32_t reg, int idx, int bits, bool is_signed) {
  const std::uint32_t raw = (reg >> (idx * bits)) & ((1u << bits) - 1u);
  return is_signed ? magicube::sign_extend(raw, bits)
                   : static_cast<std::int32_t>(raw);
}

// Shared implementation: e = elements per lane register (4 for int8, 8 for
// int4); the reduction dimension is k = 4 * e.
template <int kElems, int kBits>
void mma_impl(AccumFrag& d, const WarpReg& a, const WarpReg& b,
              const AccumFrag& c, bool a_signed, bool b_signed) {
  // a_val(i, k): lane i*4 + k/e, element k%e.   (A row-major 8 x 4e)
  // b_val(k, j): lane j*4 + k/e, element k%e.   (B col-major 4e x 8)
  for (int lane = 0; lane < 32; ++lane) {
    const int row = lane / 4;
    const int col0 = 2 * (lane % 4);
    for (int cc = 0; cc < 2; ++cc) {
      const int col = col0 + cc;
      std::int64_t acc = c.c[lane][cc];
      for (int k = 0; k < 4 * kElems; ++k) {
        const std::int32_t av =
            decode(a[row * 4 + k / kElems], k % kElems, kBits, a_signed);
        const std::int32_t bv =
            decode(b[col * 4 + k / kElems], k % kElems, kBits, b_signed);
        acc += static_cast<std::int64_t>(av) * bv;
      }
      // Hardware accumulates in int32 with wraparound semantics.
      d.c[lane][cc] = static_cast<std::int32_t>(acc);
    }
  }
}

}  // namespace

void mma_m8n8k16(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters) {
  mma_impl<4, 8>(d, a, b, c, a_signed, b_signed);
  counters.mma_int8 += 1;
}

void mma_m8n8k32(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters) {
  mma_impl<8, 4>(d, a, b, c, a_signed, b_signed);
  counters.mma_int4 += 1;
}

// ---- Block-panel micro-kernel ---------------------------------------------

#if defined(MAGICUBE_SIMD) && MAGICUBE_SIMD && \
    (defined(__GNUC__) || defined(__clang__))
#define MAGICUBE_SIMD_ACTIVE 1
#else
#define MAGICUBE_SIMD_ACTIVE 0
#endif

// The kernel bodies live in panel_kernels.inc, instantiated here at the
// build's baseline ISA and again per wide ISA in its own TU:
// tensor_core_avx2.cpp under -mavx2, tensor_core_avx512.cpp under
// -mavx512{f,bw,dq,vl} (both x86-64 only; SSE2 has no 32-bit vector
// multiply, which the MAC kernel lives on), and tensor_core_neon.cpp on
// AArch64 where Advanced SIMD is architecturally guaranteed.
// tensor_core_avx512vnni.cpp adds the byte-operand kernels on vpdpbusd and
// borrows the rest of its flavor from the AVX-512 instantiation. Every
// flavor is a row of the table below; dispatch picks the first row the
// host supports, once per process (widest first: avx512vnni -> avx512 ->
// avx2 -> base on x86-64, neon -> base on AArch64).
namespace panel_detail {

// Forward declarations shared by every wide-ISA namespace (each TU defines
// the same .inc surface under its own target flags).
#define MAGICUBE_PANEL_DECLS                                                  \
  MAGICUBE_PANEL_BYTE_DECLS                                                   \
  void epilogue_combine(std::int32_t* out, const std::uint32_t* acc_row,      \
                        std::int64_t weight, std::size_t n);                  \
  void epilogue_combine_biased(std::int32_t* out,                             \
                               const std::uint32_t* acc_row,                  \
                               const std::int64_t* colsum, std::int64_t bias, \
                               std::int64_t weight, std::size_t n);           \
  std::int32_t dot_wrap(const std::int32_t* a, const std::int32_t* b,         \
                        std::size_t k, std::int32_t acc);                     \
  void decode_span_int8(const std::uint8_t* src, std::size_t count,           \
                        bool is_signed, std::int32_t* dst);                   \
  void decode_span_int4(const std::uint8_t* src, std::size_t count,           \
                        bool is_signed, std::int32_t* dst);                   \
  void decode_span_int8_biased(const std::uint8_t* src, std::size_t count,    \
                               std::int32_t* dst);                            \
  void decode_span_int4_biased(const std::uint8_t* src, std::size_t count,    \
                               std::int32_t* dst);                            \
  void load_panel_a_row(const std::uint8_t* src, bool int4, bool biased,      \
                        int row, PanelA& out);

// The byte-operand kernels, the part of a flavor that owns the PanelB and
// dot-operand layouts.
#define MAGICUBE_PANEL_BYTE_DECLS                                             \
  void pack_panel_b(const std::uint8_t* const* rows, int k_count, bool int4,  \
                    bool b_signed, unsigned a_signs, PanelB& out);            \
  void mma_panel_n64(std::uint32_t* acc, const PanelA& a, const PanelB& b,    \
                     int rows);                                               \
  void panel_colsum(const PanelB& b, std::int64_t* colsum);                   \
  void fused_decode_mma_n64(std::uint32_t* acc, const PanelA& a,              \
                            const std::uint8_t* const* rows, int k_count,     \
                            bool int4, bool b_signed, int active_rows);       \
  std::size_t dot_operand_words(std::size_t k);                               \
  void pack_dot_operand(const std::uint8_t* src, std::size_t k, bool int4,    \
                        bool is_signed, std::int32_t* dst);                   \
  std::int32_t dot_packed(const std::int32_t* a, const std::int32_t* b,       \
                          std::size_t k);

namespace base {
#define MAGICUBE_PANEL_VEC MAGICUBE_SIMD_ACTIVE
#define MAGICUBE_PANEL_VEC512 0
#include "simt/panel_kernels.inc"
#undef MAGICUBE_PANEL_VEC
#undef MAGICUBE_PANEL_VEC512
}  // namespace base

#if MAGICUBE_SIMD_ACTIVE && defined(__x86_64__)
#define MAGICUBE_PANEL_X86 1
namespace avx2 {
// Defined in tensor_core_avx2.cpp (compiled with -mavx2).
MAGICUBE_PANEL_DECLS
}  // namespace avx2
namespace avx512 {
// Defined in tensor_core_avx512.cpp (compiled with -mavx512{f,bw,dq,vl}).
MAGICUBE_PANEL_DECLS
}  // namespace avx512
namespace avx512vnni {
// Defined in tensor_core_avx512vnni.cpp (-mavx512{f,bw,dq,vl,vnni}).
MAGICUBE_PANEL_BYTE_DECLS
}  // namespace avx512vnni

bool has_avx512() {
  // The 512-bit instantiation leans on F (64-byte vectors), BW/DQ (byte and
  // dword lane ops in the decode paths) and VL (mixed-width epilogues), so
  // all four must be present — Skylake-SP and later server parts.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}
#else
#define MAGICUBE_PANEL_X86 0
#endif

#if MAGICUBE_SIMD_ACTIVE && defined(__aarch64__)
#define MAGICUBE_PANEL_NEON 1
namespace neon {
// Defined in tensor_core_neon.cpp. AArch64 mandates Advanced SIMD, so the
// instantiation is selected unconditionally — no runtime probe.
MAGICUBE_PANEL_DECLS
}  // namespace neon
#else
#define MAGICUBE_PANEL_NEON 0
#endif

#undef MAGICUBE_PANEL_DECLS
#undef MAGICUBE_PANEL_BYTE_DECLS

// One table row; `bytes` names the namespace of the byte-operand kernels,
// `rest` the namespace of everything else.
#define MAGICUBE_PANEL_FLAVOR(label, host_ok, rest, bytes)                   \
  PanelFlavor {                                                              \
    label, host_ok, bytes::pack_panel_b, bytes::mma_panel_n64,               \
        bytes::panel_colsum, bytes::fused_decode_mma_n64,                    \
        bytes::dot_operand_words, bytes::pack_dot_operand, bytes::dot_packed, \
        rest::epilogue_combine, rest::epilogue_combine_biased,               \
        rest::dot_wrap, rest::decode_span_int8, rest::decode_span_int4,      \
        rest::decode_span_int8_biased, rest::decode_span_int4_biased,        \
        rest::load_panel_a_row                                               \
  }

std::vector<PanelFlavor> make_flavors() {
  std::vector<PanelFlavor> flavors;
#if MAGICUBE_PANEL_X86
  const bool avx512 = has_avx512();
  flavors.push_back(MAGICUBE_PANEL_FLAVOR(
      "avx512vnni", avx512 && __builtin_cpu_supports("avx512vnni") != 0,
      avx512, avx512vnni));
  flavors.push_back(MAGICUBE_PANEL_FLAVOR("avx512", avx512, avx512, avx512));
  flavors.push_back(MAGICUBE_PANEL_FLAVOR(
      "avx2", __builtin_cpu_supports("avx2") != 0, avx2, avx2));
#endif
#if MAGICUBE_PANEL_NEON
  flavors.push_back(MAGICUBE_PANEL_FLAVOR("neon", true, neon, neon));
#endif
  flavors.push_back(MAGICUBE_PANEL_FLAVOR("base", true, base, base));
  return flavors;
}

#undef MAGICUBE_PANEL_FLAVOR

const std::vector<PanelFlavor>& flavor_table() {
  static const std::vector<PanelFlavor> table = make_flavors();
  return table;
}

/// The dispatched flavor: the widest one the host supports. Every flavor
/// is bit-exact mod 2^32 with the scalar fallback, so the choice is purely
/// a throughput decision.
const PanelFlavor& active() {
  static const PanelFlavor& chosen = [] () -> const PanelFlavor& {
    for (const PanelFlavor& f : flavor_table()) {
      if (f.supported) return f;
    }
    return flavor_table().back();
  }();
  return chosen;
}

}  // namespace panel_detail

std::span<const PanelFlavor> panel_flavors() {
  return panel_detail::flavor_table();
}

const char* panel_isa_name() { return panel_detail::active().name; }

bool simd_enabled() { return MAGICUBE_SIMD_ACTIVE != 0; }

void load_panel_a_row(const std::uint8_t* src, bool int4, bool biased,
                      int row, PanelA& out) {
  MAGICUBE_DCHECK(row >= 0 && row < 8 && out.k % 16 == 0 && out.k <= 32);
  panel_detail::active().load_panel_a_row(src, int4, biased, row, out);
}

void pack_panel_b(const std::uint8_t* const* rows, int k_count, bool int4,
                  bool b_signed, unsigned a_signs, PanelB& out) {
  MAGICUBE_DCHECK(k_count >= 0 && k_count <= 32 && k_count % 4 == 0);
  panel_detail::active().pack_panel_b(rows, k_count, int4, b_signed, a_signs,
                                      out);
}

void mma_panel_n64(std::uint32_t* acc, const PanelA& a, const PanelB& b,
                   int rows) {
  MAGICUBE_DCHECK(rows > 0 && rows <= 8);
  panel_detail::active().mma_panel_n64(acc, a, b, rows);
}

void panel_colsum(const PanelB& b, std::int64_t* colsum) {
  panel_detail::active().panel_colsum(b, colsum);
}

void fused_decode_mma_n64(std::uint32_t* acc, const PanelA& a,
                          const std::uint8_t* const* rows, int k_count,
                          bool int4, bool b_signed, int active_rows) {
  MAGICUBE_DCHECK(k_count == a.k && k_count % 4 == 0 && k_count <= 32);
  MAGICUBE_DCHECK(active_rows > 0 && active_rows <= 8);
  panel_detail::active().fused_decode_mma_n64(acc, a, rows, k_count, int4,
                                              b_signed, active_rows);
}

std::size_t dot_operand_words(std::size_t k) {
  return panel_detail::active().dot_operand_words(k);
}

void pack_dot_operand(const std::uint8_t* src, std::size_t k, bool int4,
                      bool is_signed, std::int32_t* dst) {
  MAGICUBE_DCHECK(!int4 || k % 2 == 0);
  panel_detail::active().pack_dot_operand(src, k, int4, is_signed, dst);
}

std::int32_t dot_packed(const std::int32_t* a, const std::int32_t* b,
                        std::size_t k) {
  return panel_detail::active().dot_packed(a, b, k);
}

void epilogue_combine(std::int32_t* out, const std::uint32_t* acc_row,
                      std::int64_t weight, std::size_t n) {
  panel_detail::active().epilogue_combine(out, acc_row, weight, n);
}

void epilogue_combine_biased(std::int32_t* out, const std::uint32_t* acc_row,
                             const std::int64_t* colsum, std::int64_t bias,
                             std::int64_t weight, std::size_t n) {
  panel_detail::active().epilogue_combine_biased(out, acc_row, colsum, bias,
                                                 weight, n);
}

std::int32_t dot_wrap(const std::int32_t* a, const std::int32_t* b,
                      std::size_t k, std::int32_t acc) {
  return panel_detail::active().dot_wrap(a, b, k, acc);
}

WarpReg make_a_frag_int8(const Matrix<std::uint8_t>& a) {
  MAGICUBE_CHECK(a.rows() == 8 && a.cols() == 16);
  WarpReg frag{};
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t row = static_cast<std::size_t>(lane / 4);
    const std::size_t c0 = static_cast<std::size_t>(4 * (lane % 4));
    std::uint32_t reg = 0;
    for (int e = 0; e < 4; ++e) {
      reg |= static_cast<std::uint32_t>(a(row, c0 + static_cast<std::size_t>(e)))
             << (8 * e);
    }
    frag[lane] = reg;
  }
  return frag;
}

WarpReg make_b_frag_int8(const Matrix<std::uint8_t>& b) {
  MAGICUBE_CHECK(b.rows() == 16 && b.cols() == 8);
  WarpReg frag{};
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t col = static_cast<std::size_t>(lane / 4);
    const std::size_t r0 = static_cast<std::size_t>(4 * (lane % 4));
    std::uint32_t reg = 0;
    for (int e = 0; e < 4; ++e) {
      reg |= static_cast<std::uint32_t>(b(r0 + static_cast<std::size_t>(e), col))
             << (8 * e);
    }
    frag[lane] = reg;
  }
  return frag;
}

WarpReg make_a_frag_int4(const Matrix<std::uint8_t>& a) {
  MAGICUBE_CHECK(a.rows() == 8 && a.cols() == 32);
  WarpReg frag{};
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t row = static_cast<std::size_t>(lane / 4);
    const std::size_t c0 = static_cast<std::size_t>(8 * (lane % 4));
    std::uint32_t reg = 0;
    for (int e = 0; e < 8; ++e) {
      reg |= (static_cast<std::uint32_t>(
                  a(row, c0 + static_cast<std::size_t>(e))) &
              0xfu)
             << (4 * e);
    }
    frag[lane] = reg;
  }
  return frag;
}

WarpReg make_b_frag_int4(const Matrix<std::uint8_t>& b) {
  MAGICUBE_CHECK(b.rows() == 32 && b.cols() == 8);
  WarpReg frag{};
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t col = static_cast<std::size_t>(lane / 4);
    const std::size_t r0 = static_cast<std::size_t>(8 * (lane % 4));
    std::uint32_t reg = 0;
    for (int e = 0; e < 8; ++e) {
      reg |= (static_cast<std::uint32_t>(
                  b(r0 + static_cast<std::size_t>(e), col)) &
              0xfu)
             << (4 * e);
    }
    frag[lane] = reg;
  }
  return frag;
}

Matrix<std::int32_t> accum_to_matrix(const AccumFrag& frag) {
  Matrix<std::int32_t> m(8, 8);
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t row = static_cast<std::size_t>(lane / 4);
    const std::size_t c0 = static_cast<std::size_t>(2 * (lane % 4));
    m(row, c0) = frag.c[lane][0];
    m(row, c0 + 1) = frag.c[lane][1];
  }
  return m;
}

AccumFrag matrix_to_accum(const Matrix<std::int32_t>& m) {
  MAGICUBE_CHECK(m.rows() == 8 && m.cols() == 8);
  AccumFrag frag;
  for (int lane = 0; lane < 32; ++lane) {
    const std::size_t row = static_cast<std::size_t>(lane / 4);
    const std::size_t c0 = static_cast<std::size_t>(2 * (lane % 4));
    frag.c[lane][0] = m(row, c0);
    frag.c[lane][1] = m(row, c0 + 1);
  }
  return frag;
}

WarpReg shfl_xor(const WarpReg& v, int lane_mask, KernelCounters& counters) {
  WarpReg out{};
  for (int lane = 0; lane < 32; ++lane) out[lane] = v[lane ^ lane_mask];
  counters.shfl_ops += 1;
  return out;
}

}  // namespace magicube::simt
