#pragma once
// Every compiled flavor of the panel micro-kernels, as a table.
//
// The free functions in tensor_core.hpp dispatch to the first flavor in
// this table the host supports (avx512vnni -> avx512 -> avx2 -> base on
// x86-64, neon -> base on AArch64). The table itself is a test seam: the
// property suites iterate it so every flavor the host can run is checked
// against the scalar description, not just the one dispatch picks. It is
// not a knob — nothing selects a flavor by name.

#include <cstddef>
#include <cstdint>
#include <span>

#include "simt/tensor_core.hpp"

namespace magicube::simt {

struct PanelFlavor {
  const char* name;
  bool supported;  // the host CPU can run this flavor

  void (*pack_panel_b)(const std::uint8_t* const* rows, int k_count,
                       bool int4, bool b_signed, unsigned a_signs,
                       PanelB& out);
  void (*mma_panel_n64)(std::uint32_t* acc, const PanelA& a,
                        const PanelB& b, int rows);
  void (*panel_colsum)(const PanelB& b, std::int64_t* colsum);
  void (*fused_decode_mma_n64)(std::uint32_t* acc, const PanelA& a,
                               const std::uint8_t* const* rows, int k_count,
                               bool int4, bool b_signed, int active_rows);
  std::size_t (*dot_operand_words)(std::size_t k);
  void (*pack_dot_operand)(const std::uint8_t* src, std::size_t k, bool int4,
                           bool is_signed, std::int32_t* dst);
  std::int32_t (*dot_packed)(const std::int32_t* a, const std::int32_t* b,
                             std::size_t k);
  void (*epilogue_combine)(std::int32_t* out, const std::uint32_t* acc_row,
                           std::int64_t weight, std::size_t n);
  void (*epilogue_combine_biased)(std::int32_t* out,
                                  const std::uint32_t* acc_row,
                                  const std::int64_t* colsum,
                                  std::int64_t bias, std::int64_t weight,
                                  std::size_t n);
  std::int32_t (*dot_wrap)(const std::int32_t* a, const std::int32_t* b,
                           std::size_t k, std::int32_t acc);
  // The decodes under the 32-bit-lane pack_panel_b / pack_dot_operand:
  // `count` packed 8-bit elements (the PackedBuffer byte layout) or 4-bit
  // elements (low nibble first, count % 2 == 0) to int32, sign-extended
  // when `is_signed`. The _biased variants decode the stacked signed top
  // plane (§IV-D) to its excess-2^(b-1) form: raw ^ msb read unsigned,
  // i.e. signed value + 2^(b-1).
  void (*decode_span_int8)(const std::uint8_t* src, std::size_t count,
                           bool is_signed, std::int32_t* dst);
  void (*decode_span_int4)(const std::uint8_t* src, std::size_t count,
                           bool is_signed, std::int32_t* dst);
  void (*decode_span_int8_biased)(const std::uint8_t* src, std::size_t count,
                                  std::int32_t* dst);
  void (*decode_span_int4_biased)(const std::uint8_t* src, std::size_t count,
                                  std::int32_t* dst);
  void (*load_panel_a_row)(const std::uint8_t* src, bool int4, bool biased,
                           int row, PanelA& out);
};

/// Every flavor compiled into this build, widest first; the last entry is
/// always the baseline-ISA flavor (supported everywhere).
std::span<const PanelFlavor> panel_flavors();

}  // namespace magicube::simt
