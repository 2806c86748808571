#pragma once
// Bit-exact warp-level Matrix Multiply-Accumulate (mma) primitives.
//
// Implements the two integer shapes Magicube uses (paper Table III,
// smallest-shape choices highlighted there):
//
//   mma.m8n8k16  — int8 operands, 8x16 (row-major A) * 16x8 (col-major B)
//                  accumulated into 8x8 int32.
//   mma.m8n8k32  — int4 operands, 8x32 * 32x8 into 8x8 int32.
//
// Fragment ownership matches PTX / the paper's Fig. 1 exactly:
//   A: lane t holds row t/4, elements e*(t%4) .. e*(t%4)+e-1  (e = 4 or 8)
//   B: lane t holds col t/4, rows    e*(t%4) .. e*(t%4)+e-1
//   C: lane t holds row t/4, cols    2*(t%4) .. 2*(t%4)+1     (int32 each)
// where each lane's A/B elements are packed into one 32-bit register,
// element 0 in the least-significant byte/nibble.
//
// Signed x unsigned operand combinations are supported, as on the hardware
// (PTX allows .s8/.u8 and .s4/.u4 independently per operand); the mixed-
// precision emulation of §IV-D depends on this.

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/matrix.hpp"
#include "common/packed.hpp"
#include "simt/counters.hpp"

namespace magicube::simt {

/// One 32-bit register per lane of a warp.
using WarpReg = std::array<std::uint32_t, 32>;

/// Accumulator fragment: two int32 per lane (8x8 tile).
struct AccumFrag {
  std::array<std::array<std::int32_t, 2>, 32> c{};

  void fill(std::int32_t v) {
    for (auto& lane : c) lane = {v, v};
  }
  friend bool operator==(const AccumFrag&, const AccumFrag&) = default;
};

/// D = A(8x16 int8) * B(16x8 int8) + C. Counts one int8 mma issue.
void mma_m8n8k16(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters);

/// D = A(8x32 int4) * B(32x8 int4) + C. Counts one int4 mma issue.
void mma_m8n8k32(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters);

// ---- Block-panel micro-kernels (execution-plan replay) -------------------
//
// ExecMode::fast trades the per-fragment register dance for plain
// blocked-GEMM loops: one A tile (8 x K) multiplies a B *panel* spanning
// the 8 adjacent 8-column mma tiles of a 64-column block in one pass,
// accumulating straight into a row-major C panel. All arithmetic is
// mod-2^32 (unsigned wraparound), which is bit-exact with any chaining of
// the counted mma issues it replaces: truncation mod 2^32 is a ring
// homomorphism, so the grouping of the k reduction and the per-issue
// truncations cannot change the stored accumulator bits.
//
// The kernels come in per-ISA flavors (simt/panel_flavors.hpp), dispatched
// once per process to the widest flavor the host supports. When the
// MAGICUBE_SIMD build option is on, explicit GCC/Clang vector-extension
// and intrinsic flavors are compiled in; the scalar fallback produces
// identical bits on any toolchain.

/// Whether the explicit SIMD micro-kernel specializations are compiled in
/// (the MAGICUBE_SIMD CMake option on a GCC/Clang toolchain).
bool simd_enabled();

// ---- Byte-operand bucket kernels (64-column blocks) ----------------------
//
// The plan builder classifies every block row into a kernel bucket, and
// the replay calls the kernels below for it. It hands them operands at
// byte width, the width the tensor core consumes: A as a PanelA
// (ISA-neutral, loaded once per block row) and B as a PanelB whose layout
// belongs to the dispatched flavor. The vector-extension flavors widen to
// 32-bit lanes; the AVX-512-VNNI flavor keeps bytes and multiplies with
// vpdpbusd (u8 x s8, exact 4-way sums, wrapping int32 accumulation). A
// PanelB must only be read by the flavor that packed it, which the
// dispatched entry points guarantee (the dispatch choice is fixed for the
// life of the process).

/// One replay step's A operand for one plane group: 8 panel rows x k
/// elements (k = 16 or 32) as bytes, two's complement when `is_signed`,
/// unsigned otherwise (stacked raw chunks and bias-encoded top planes run
/// unsigned, §IV-D). `prefix[r][q]` is the exact sum of row r's first
/// 4 * (q + 1) values, which the VNNI flavor needs for its sign correction
/// over however many 4-deep k groups a step keeps.
struct PanelA {
  std::array<std::array<std::uint8_t, 32>, 8> v{};
  std::array<std::array<std::int32_t, 8>, 8> prefix{};
  int k = 16;
  bool is_signed = true;
};

/// Loads row `row` of `out` (out.k elements, in the domain out.is_signed
/// names) from packed plane bytes, as PanelFlavor::decode_span_int8/int4
/// read them, or as decode_span_*_biased when `biased`; nullptr loads a zero
/// row. Also sets the row's prefix sums.
void load_panel_a_row(const std::uint8_t* src, bool int4, bool biased,
                      int row, PanelA& out);

/// The B rows of one replay step (k <= 32 rows x 64 columns), packed in the
/// dispatched flavor's layout. Opaque to callers.
struct PanelB {
  // Scratch storage: each flavor writes what it later reads and nothing
  // reads the rest, so it is deliberately left uninitialized (a zeroing
  // pass would cost as much as packing a step).
  alignas(64) std::array<std::int32_t, 32 * 64> data;
  std::array<std::int8_t, 32> k_src{};  // flavor bookkeeping
  int k = 0;
  int flags = 0;
};

/// A-operand byte domains a packed B panel must serve (bit set).
inline constexpr unsigned kPanelASigned = 1;
inline constexpr unsigned kPanelAUnsigned = 2;

/// Packs one replay step's B rows: `rows[k]` points at the packed bytes of
/// reduction row k's 64-column span, nullptr for a padded slot (a zero
/// row). k_count <= 32. `int4`/`b_signed` describe the bytes as
/// PanelFlavor::decode_span_int4/int8 read them; `a_signs` names the A
/// domains (kPanelASigned | kPanelAUnsigned) that will multiply this panel.
void pack_panel_b(const std::uint8_t* const* rows, int k_count, bool int4,
                  bool b_signed, unsigned a_signs, PanelB& out);

/// C[r][0..64) += sum_k A[r][k] * B[k][0..64) mod 2^32 for the first `rows`
/// panel rows (1..8); rows past the limit are untouched. The active rows of
/// a plane group always form a prefix (rr = lp * V + rb), so the row limit
/// is the entire tail handling. `b` was packed from a.k rows with a's
/// domain in its a_signs. Bit-exact with the counted mma chain over the
/// panel's 8 column tiles.
void mma_panel_n64(std::uint32_t* acc, const PanelA& a, const PanelB& b,
                   int rows);

/// colsum[c] += sum_k B[k][c] for the 64 columns of a packed panel — the
/// bias-correction column sums. Exact integer arithmetic.
void panel_colsum(const PanelB& b, std::int64_t* colsum);

/// Fused pack + mma over one reduction step — the dominant
/// single-group/single-plane bucket: pack_panel_b for a's domain followed
/// by mma_panel_n64 over the first `active_rows` rows, with no panel arena
/// in the caller. Flavors may skip padded (null) rows outright.
void fused_decode_mma_n64(std::uint32_t* acc, const PanelA& a,
                          const std::uint8_t* const* rows, int k_count,
                          bool int4, bool b_signed, int active_rows);

// SDDMM dot operands: one A row or one B column of k packed elements,
// packed once into the dispatched flavor's layout (32-bit lanes, or bytes
// plus their sum for VNNI) in dot_operand_words(k) words of storage.

/// Storage words one packed dot operand of k elements needs.
std::size_t dot_operand_words(std::size_t k);
/// Packs k elements (the PackedBuffer byte layout, low nibble first on the
/// int4 path) into a dot operand.
void pack_dot_operand(const std::uint8_t* src, std::size_t k, bool int4,
                      bool is_signed, std::int32_t* dst);
/// sum_i a[i] * b[i] mod 2^32 over two operands packed with the same k —
/// the SDDMM panel dot, bit-exact with dot_wrap over the decoded values.
std::int32_t dot_packed(const std::int32_t* a, const std::int32_t* b,
                        std::size_t k);

/// Name of the panel-kernel flavor dispatch picked on this host:
/// "avx512vnni", "avx512", "avx2", "neon" or "base".
const char* panel_isa_name();

/// out[c] += weight * (int32)acc_row[c] mod 2^32 over `n` columns — the
/// panel epilogue's weighted fold of one plane group's partial products
/// straight into the int32 output row. The output is int32, so folding
/// mod 2^32 stores the same bits as an exact sum truncated once.
void epilogue_combine(std::int32_t* out, const std::uint32_t* acc_row,
                      std::int64_t weight, std::size_t n);

/// out[c] += weight * ((int32)acc_row[c] - bias * colsum[c]) mod 2^32 —
/// the signed-LHS bias-corrected variant of epilogue_combine.
void epilogue_combine_biased(std::int32_t* out, const std::uint32_t* acc_row,
                             const std::int64_t* colsum, std::int64_t bias,
                             std::int64_t weight, std::size_t n);

/// Wrapping dot product over `k` decoded elements: returns
/// acc + sum_i a[i] * b[i] mod 2^32 — the 32-bit-lane flavors' SDDMM dot
/// (under dot_packed), bit-exact with chaining counted mma issues over the
/// stride tiles of one output.
std::int32_t dot_wrap(const std::int32_t* a, const std::int32_t* b,
                      std::size_t k, std::int32_t acc);

// ---- Fragment <-> logical-matrix converters (tests, kernel epilogues) ----

/// Builds the A fragment of m8n8k16 from a logical 8x16 matrix of raw bytes.
WarpReg make_a_frag_int8(const Matrix<std::uint8_t>& a8x16);
/// Builds the B fragment of m8n8k16 from a logical 16x8 matrix of raw bytes.
WarpReg make_b_frag_int8(const Matrix<std::uint8_t>& b16x8);
/// Builds the A fragment of m8n8k32 from a logical 8x32 matrix of raw nibbles.
WarpReg make_a_frag_int4(const Matrix<std::uint8_t>& a8x32);
/// Builds the B fragment of m8n8k32 from a logical 32x8 matrix of raw nibbles.
WarpReg make_b_frag_int4(const Matrix<std::uint8_t>& b32x8);

/// Expands an accumulator fragment into the logical 8x8 int32 tile.
Matrix<std::int32_t> accum_to_matrix(const AccumFrag& frag);
/// Packs a logical 8x8 int32 tile into an accumulator fragment.
AccumFrag matrix_to_accum(const Matrix<std::int32_t>& m8x8);

// ---- Warp shuffle -------------------------------------------------------

/// __shfl_xor_sync over a full warp: lane i receives the value of lane
/// i ^ lane_mask. Counts one shuffle instruction.
WarpReg shfl_xor(const WarpReg& v, int lane_mask, KernelCounters& counters);

}  // namespace magicube::simt
