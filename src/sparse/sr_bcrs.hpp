#pragma once
// SR-BCRS — Strided Row-major Block Compressed Row Storage (paper §IV-A).
//
// The format difference from BCRS is the storage order of the dense 1-D
// blocks: vectors of a vector row are grouped into *strides* of length equal
// to the mma reduction dimension (16 for int8, 32 for int4), and within a
// stride the V x stride tile is stored row-major. A warp can then load the
// LHS fragment of an mma with consecutive addresses — the layout requirement
// of Fig. 1 is met for free. Rows whose vector count is not a multiple of
// the stride are zero-padded, and their column indices padded with an
// invalid marker (the "*" of Fig. 2).
//
// Two row pointers per vector row (2M total, §IV-A) delimit the padded
// region: [first_ptr[r], end_ptr[r]) in slot units, end - first always a
// multiple of the stride.
//
// For the int4 kernels the format is additionally "shuffled": column indices
// (and, consistently, the stored value columns) are permuted block-of-8-wise
// by {0,2,4,6,1,3,5,7} so that the nibble-level register transpose of Fig. 7
// lands results in natural order using only int32-granularity bit ops.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/packed.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "sparse/pattern.hpp"

namespace magicube::sparse {

/// The block-of-8 shuffle order: stored position p holds original slot
/// kShuffleOrder[p] of each aligned group of 8 slots.
inline constexpr std::array<int, 8> kShuffleOrder = {0, 2, 4, 6, 1, 3, 5, 7};

struct SrBcrs {
  std::size_t rows = 0;
  std::size_t cols = 0;
  int vector_length = 1;  // V <= 8
  int stride = 16;        // mma reduction dimension (16: int8, 32: int4)
  bool shuffled = false;

  std::vector<std::uint32_t> first_ptr;  // per vector row, in slots
  std::vector<std::uint32_t> end_ptr;    // one past the padded last slot
  std::vector<std::uint32_t> col_idx;    // one per slot, kInvalidCol = pad
  PackedBuffer values;                   // slot_count * V elements

  std::size_t vector_rows() const {
    return rows / static_cast<std::size_t>(vector_length);
  }
  std::size_t slot_count() const { return col_idx.size(); }
  /// Valid (unpadded) vectors in row r. With shuffling, padded slots may be
  /// interleaved; this counts non-invalid columns.
  std::size_t valid_vectors_in_row(std::size_t r) const;
  /// Strides (accumulation steps) in row r.
  std::size_t strides_in_row(std::size_t r) const {
    return (end_ptr[r] - first_ptr[r]) / static_cast<std::size_t>(stride);
  }
  /// Total nonzero scalars (excludes padding).
  std::size_t nnz() const;

  /// Flat value index of (slot, row-in-block). Slots are global; the stride
  /// group is derived from the slot's offset within its row, so the caller
  /// passes the row's first_ptr-aligned group base.
  std::size_t value_index(std::size_t slot_base_of_group,
                          std::size_t offset_in_group,
                          std::size_t row_in_block) const {
    return slot_base_of_group * static_cast<std::size_t>(vector_length) +
           row_in_block * static_cast<std::size_t>(stride) + offset_in_group;
  }

  /// Structural invariants (pointer monotonicity, stride alignment, padding
  /// discipline: invalid columns carry zero values).
  void validate() const;

  /// Expands to a dense matrix (padding contributes nothing).
  Matrix<std::int32_t> to_dense() const;
};

/// The SR-BCRS structure of `pattern` at `stride`: row pointers and padded
/// column indices, unshuffled. `values` is left empty for the caller to
/// size and fill through write_sr_bcrs_values.
SrBcrs build_sr_bcrs_structure(const BlockPattern& pattern, int stride);

/// The SR-BCRS value layout, written in one place. Values arrive per
/// vector in pattern order — `value(r, i, rb)` is row rb of the pattern's
/// i-th vector, which lies in vector row r — which is the layout the SDDMM
/// writes its output in, so the §IV-C hand-off indexes it directly and a
/// dense matrix is a gather (`dense(r * V + rb, pattern.col_idx[i])`).
/// Each stride tile row goes to `sink(first, values, n)` as one contiguous
/// span of flat value indices [first, first + n); padding is never written
/// (value buffers start zeroed). `sr` must be `pattern`'s structure.
template <class Value, class Sink>
void write_sr_bcrs_values(const SrBcrs& sr, const BlockPattern& pattern,
                          Value&& value, Sink&& sink) {
  MAGICUBE_CHECK(sr.vector_length == pattern.vector_length &&
                 sr.first_ptr.size() == pattern.vector_rows());
  const std::size_t v = static_cast<std::size_t>(sr.vector_length);
  const std::size_t st = static_cast<std::size_t>(sr.stride);
  std::array<std::int32_t, 32> span{};
  for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
    const std::size_t row_first = pattern.row_ptr[r];
    const std::size_t n = pattern.vectors_in_row(r);
    MAGICUBE_CHECK(sr.end_ptr[r] - sr.first_ptr[r] >= n);
    for (std::size_t j0 = 0; j0 < n; j0 += st) {
      const std::size_t base = sr.first_ptr[r] + j0;
      const std::size_t count = std::min(st, n - j0);
      for (std::size_t rb = 0; rb < v; ++rb) {
        for (std::size_t o0 = 0; o0 < count; o0 += span.size()) {
          const std::size_t m = std::min(span.size(), count - o0);
          for (std::size_t o = 0; o < m; ++o) {
            span[o] = value(r, row_first + j0 + o0 + o, rb);
          }
          sink(sr.value_index(base, o0, rb), span.data(), m);
        }
      }
    }
  }
}

/// Builds SR-BCRS from a pattern and a dense value matrix (values outside
/// the pattern are ignored; values inside must fit `type`): a gather into
/// write_sr_bcrs_values.
SrBcrs build_sr_bcrs(const BlockPattern& pattern,
                     const Matrix<std::int32_t>& dense, Scalar type,
                     int stride);

/// Builds SR-BCRS with uniform random values over the full range of `type`.
SrBcrs build_sr_bcrs_random(const BlockPattern& pattern, Scalar type,
                            int stride, Rng& rng);

/// Applies the block-of-8 column shuffle to an unshuffled matrix (column
/// indices and value columns permuted consistently); returns a copy with
/// `shuffled = true`. Requires stride % 8 == 0.
SrBcrs shuffle_columns(const SrBcrs& in);

}  // namespace magicube::sparse
