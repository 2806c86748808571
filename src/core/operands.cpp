#include "core/operands.hpp"

#include <algorithm>

namespace magicube::core {

std::size_t SparseOperand::footprint_bytes() const {
  std::size_t bytes = sizeof(SparseOperand);
  bytes += 4 * (structure.first_ptr.size() + structure.end_ptr.size() +
                structure.col_idx.size());
  bytes += structure.values.byte_size();
  for (const auto& p : planes) bytes += p.values.byte_size();
  return bytes;
}

std::size_t DenseOperand::footprint_bytes() const {
  std::size_t bytes = sizeof(DenseOperand);
  for (const auto& p : planes) bytes += p.values.byte_size();
  return bytes;
}

SparseOperand spmm_lhs_layout(const sparse::BlockPattern& pattern,
                              PrecisionPair precision, bool shuffle) {
  SparseOperand out;
  out.logical_type = precision.lhs;
  out.structure =
      sparse::build_sr_bcrs_structure(pattern, stride_for(precision));
  if (shuffle) {
    out.structure = sparse::shuffle_columns(out.structure);
  }
  const std::size_t count =
      out.structure.slot_count() *
      static_cast<std::size_t>(pattern.vector_length);
  out.structure.values = PackedBuffer(count, precision.lhs);
  out.planes =
      quant::make_planes(precision.lhs, lhs_chunk_bits(precision), count);
  return out;
}

SparseOperand prepare_spmm_lhs(const sparse::BlockPattern& pattern,
                               const Matrix<std::int32_t>& dense_values,
                               PrecisionPair precision, bool shuffle) {
  MAGICUBE_CHECK(dense_values.rows() == pattern.rows &&
                 dense_values.cols() == pattern.cols);
  const std::size_t v = static_cast<std::size_t>(pattern.vector_length);
  return prepare_spmm_lhs_from(
      pattern, precision, shuffle,
      [&](std::size_t r, std::size_t i, std::size_t rb) {
        return dense_values(r * v + rb, pattern.col_idx[i]);
      });
}

DenseOperand prepare_dense(const Matrix<std::int32_t>& values, Scalar type,
                           bool row_major, int chunk_bits_if_emulated) {
  DenseOperand out;
  out.rows = values.rows();
  out.cols = values.cols();
  out.row_major = row_major;
  out.logical_type = type;
  out.planes = quant::make_planes(type, chunk_bits_if_emulated, values.size());
  if (row_major) {
    quant::encode_planes(out.planes, chunk_bits_if_emulated, 0,
                         values.data(), values.size());
    return out;
  }
  // Column-major: transpose a block of columns at a time, then encode each
  // column as one span.
  constexpr std::size_t kColumns = 16;
  std::vector<std::int32_t> block(kColumns * out.rows);
  for (std::size_t c0 = 0; c0 < out.cols; c0 += kColumns) {
    const std::size_t w = std::min(kColumns, out.cols - c0);
    for (std::size_t r = 0; r < out.rows; ++r) {
      const std::int32_t* row = values.data() + r * out.cols + c0;
      for (std::size_t j = 0; j < w; ++j) block[j * out.rows + r] = row[j];
    }
    for (std::size_t j = 0; j < w; ++j) {
      quant::encode_planes(out.planes, chunk_bits_if_emulated,
                           (c0 + j) * out.rows, block.data() + j * out.rows,
                           out.rows);
    }
  }
  return out;
}

DenseOperand prepare_spmm_rhs(const Matrix<std::int32_t>& values,
                              PrecisionPair precision) {
  // Only L16-R16 actually decomposes; the rest are single-plane.
  return prepare_dense(values, precision.rhs, /*row_major=*/true,
                       rhs_chunk_bits(precision));
}

SparseOperandHandle prepare_spmm_lhs_shared(
    const sparse::BlockPattern& pattern,
    const Matrix<std::int32_t>& dense_values, PrecisionPair precision,
    bool shuffle) {
  return std::make_shared<const SparseOperand>(
      prepare_spmm_lhs(pattern, dense_values, precision, shuffle));
}

DenseOperandHandle prepare_dense_shared(const Matrix<std::int32_t>& values,
                                        Scalar type, bool row_major,
                                        int chunk_bits_if_emulated) {
  return std::make_shared<const DenseOperand>(
      prepare_dense(values, type, row_major, chunk_bits_if_emulated));
}

DenseOperandHandle prepare_spmm_rhs_shared(const Matrix<std::int32_t>& values,
                                           PrecisionPair precision) {
  return std::make_shared<const DenseOperand>(
      prepare_spmm_rhs(values, precision));
}

Matrix<std::int32_t> random_values(std::size_t rows, std::size_t cols,
                                   Scalar type, Rng& rng) {
  Matrix<std::int32_t> m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        static_cast<std::int32_t>(rng.next_in(min_value(type), max_value(type)));
  }
  return m;
}

}  // namespace magicube::core
