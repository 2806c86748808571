// Operand-preparation suite (`unit` CTest label): the bulk PackedBuffer
// codecs against the bit-serial set_raw/get_raw description, the one-pass
// plane split against decompose_value, and the SpMM LHS built from
// per-vector values against the dense-matrix gather and the scalar
// descriptions (to_dense, per-element recomposition).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/packed.hpp"
#include "common/rng.hpp"
#include "core/operands.hpp"
#include "core/spmm.hpp"
#include "quant/decompose.hpp"
#include "sparse/pattern.hpp"

namespace magicube {
namespace {

const std::vector<Scalar>& integer_scalars() {
  static const std::vector<Scalar> all = {
      Scalar::u4,  Scalar::s4,  Scalar::u8,  Scalar::s8,
      Scalar::s12, Scalar::u12, Scalar::s16, Scalar::u16};
  return all;
}

/// Lengths 0, 1, 2, odd and tail-leaving spans, each at an even and an odd
/// first element (sub-byte widths pair elements from even indices).
struct Span {
  std::size_t first, n;
};
const std::vector<Span>& spans() {
  static const std::vector<Span> all = {
      {0, 0}, {3, 0}, {0, 1}, {5, 1}, {0, 2}, {7, 2},
      {0, 7}, {1, 7}, {2, 33}, {3, 33}, {0, 64}, {9, 255}};
  return all;
}

std::vector<std::int32_t> random_in_range(std::size_t n, Scalar type,
                                          Rng& rng) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int32_t>(
        rng.next_in(min_value(type), max_value(type)));
  }
  return v;
}

/// A buffer whose bytes are random, so a codec that touches a neighbour
/// of its span shows as a byte difference.
PackedBuffer garbage_buffer(std::size_t count, Scalar type, Rng& rng) {
  PackedBuffer buf(count, type);
  for (std::size_t i = 0; i < buf.byte_size(); ++i) {
    buf.data()[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return buf;
}

TEST(PreparationCodecs, BulkEncodeIsByteEqualToSetRaw) {
  for (const Scalar type : integer_scalars()) {
    for (const Span& s : spans()) {
      Rng rng(0xc0de + static_cast<std::uint64_t>(type) * 131 + s.first * 7 +
              s.n);
      const std::vector<std::int32_t> src = random_in_range(s.n, type, rng);
      const PackedBuffer start = garbage_buffer(s.first + s.n + 3, type, rng);
      PackedBuffer described = start, bulk = start;
      for (std::size_t i = 0; i < s.n; ++i) {
        described.set_raw(s.first + i,
                          encode_twos_complement(src[i], bits_of(type)));
      }
      bulk.encode(s.first, src.data(), s.n);
      EXPECT_TRUE(bulk == described)
          << to_string(type) << " first " << s.first << " n " << s.n;
    }
  }
}

TEST(PreparationCodecs, BulkDecodeMatchesGet) {
  for (const Scalar type : integer_scalars()) {
    for (const Span& s : spans()) {
      Rng rng(0xdec0 + static_cast<std::uint64_t>(type) * 131 + s.first * 7 +
              s.n);
      const PackedBuffer buf = garbage_buffer(s.first + s.n + 3, type, rng);
      std::vector<std::int32_t> out(s.n + 1, 0x7eadbeef);
      buf.decode(s.first, s.n, out.data());
      for (std::size_t i = 0; i < s.n; ++i) {
        EXPECT_EQ(out[i], buf.get(s.first + i))
            << to_string(type) << " first " << s.first << " i " << i;
      }
      EXPECT_EQ(out[s.n], 0x7eadbeef) << "decode wrote past its span";
    }
  }
}

TEST(PreparationCodecs, OnePassPlaneSplitMatchesDecomposeValue) {
  for (const Scalar type : integer_scalars()) {
    for (const int chunk : {4, 8}) {
      if (bits_of(type) % chunk != 0 && chunk != 4) continue;
      for (const Span& s : spans()) {
        Rng rng(0x5b1 + static_cast<std::uint64_t>(type) * 131 +
                static_cast<std::uint64_t>(chunk) + s.first * 7 + s.n);
        const std::vector<std::int32_t> src = random_in_range(s.n, type, rng);
        std::vector<quant::Plane> planes =
            quant::make_planes(type, chunk, s.first + s.n);
        quant::encode_planes(planes, chunk, s.first, src.data(), s.n);
        const bool native = bits_of(type) <= chunk;
        ASSERT_EQ(planes.size(),
                  native ? 1u
                         : static_cast<std::size_t>(
                               quant::plane_count(type, chunk)));
        for (std::size_t e = 0; e < s.n; ++e) {
          if (native) {
            EXPECT_EQ(planes[0].values.get(s.first + e), src[e]);
            continue;
          }
          std::int32_t chunks[8];
          quant::decompose_value(src[e], type, chunk, chunks);
          for (std::size_t p = 0; p < planes.size(); ++p) {
            EXPECT_EQ(planes[p].values.get(s.first + e), chunks[p])
                << to_string(type) << " chunk " << chunk << " plane " << p
                << " element " << s.first + e;
          }
        }
        // Elements outside the span stay zero.
        for (const auto& p : planes) {
          for (std::size_t e = 0; e < s.first; ++e) {
            EXPECT_EQ(p.values.get(e), 0);
          }
        }
      }
    }
  }
}

/// The SpMM LHS built from per-vector values in pattern order equals the
/// dense-matrix build, and both agree with the scalar descriptions.
TEST(PreparationLayout, LhsFromVectorValuesEqualsDenseBuild) {
  const PrecisionPair pairs[] = {precision::L8R8,  precision::L16R8,
                                 precision::L4R4,  precision::L8R4,
                                 precision::L12R4, precision::L16R4};
  for (const int v : {1, 2, 8}) {
    for (const PrecisionPair prec : pairs) {
      for (const bool shuffle : {false, true}) {
        Rng rng(0x1a7 + static_cast<std::uint64_t>(v) * 17 +
                static_cast<std::uint64_t>(bits_of(prec.lhs)) * 3 +
                static_cast<std::uint64_t>(bits_of(prec.rhs)) + shuffle);
        const auto pattern =
            sparse::make_uniform_pattern(8 * 6, 80, v, 0.55, rng);
        const Matrix<std::int32_t> dense =
            core::random_values(pattern.rows, pattern.cols, prec.lhs, rng);
        // The same values, per vector in pattern order (the SDDMM output
        // layout).
        const std::size_t vl = static_cast<std::size_t>(v);
        std::vector<std::int32_t> vectors(pattern.vector_count() * vl);
        for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
          for (std::uint32_t i = pattern.row_ptr[r]; i < pattern.row_ptr[r + 1];
               ++i) {
            for (std::size_t rb = 0; rb < vl; ++rb) {
              vectors[i * vl + rb] = dense(r * vl + rb, pattern.col_idx[i]);
            }
          }
        }
        const std::string where = to_string(prec) + " V" + std::to_string(v) +
                                  (shuffle ? " shuffled" : "");

        const core::SparseOperand from_dense =
            core::prepare_spmm_lhs(pattern, dense, prec, shuffle);
        const core::SparseOperand from_vectors = core::prepare_spmm_lhs_from(
            pattern, prec, shuffle,
            [&](std::size_t, std::size_t i, std::size_t rb) {
              return vectors[i * vl + rb];
            });

        const sparse::SrBcrs& a = from_vectors.structure;
        const sparse::SrBcrs& b = from_dense.structure;
        EXPECT_EQ(a.stride, core::stride_for(prec)) << where;
        EXPECT_EQ(a.shuffled, shuffle) << where;
        EXPECT_EQ(a.first_ptr, b.first_ptr) << where;
        EXPECT_EQ(a.end_ptr, b.end_ptr) << where;
        EXPECT_EQ(a.col_idx, b.col_idx) << where;
        EXPECT_TRUE(a.values == b.values) << where;
        ASSERT_EQ(from_vectors.planes.size(), from_dense.planes.size());
        for (std::size_t p = 0; p < from_vectors.planes.size(); ++p) {
          EXPECT_TRUE(from_vectors.planes[p].values ==
                      from_dense.planes[p].values)
              << where << " plane " << p;
          EXPECT_EQ(from_vectors.planes[p].weight,
                    from_dense.planes[p].weight);
          EXPECT_EQ(from_vectors.planes[p].is_signed,
                    from_dense.planes[p].is_signed);
        }

        // Scalar descriptions: the structure expands back to the masked
        // dense matrix, and the planes recompose every stored value.
        Matrix<std::int32_t> masked(pattern.rows, pattern.cols, 0);
        const Matrix<std::uint8_t> mask = sparse::pattern_to_dense_mask(pattern);
        for (std::size_t i = 0; i < masked.size(); ++i) {
          if (mask.data()[i]) masked.data()[i] = dense.data()[i];
        }
        EXPECT_EQ(a.to_dense(), masked) << where;
        for (std::size_t e = 0; e < a.values.size(); ++e) {
          std::int64_t sum = 0;
          for (const auto& p : from_vectors.planes) {
            sum += p.weight * p.values.get(e);
          }
          ASSERT_EQ(sum, a.values.get(e)) << where << " element " << e;
        }
      }
    }
  }
}

TEST(PreparationLayout, DenseColumnMajorMatchesDescription) {
  for (const Scalar type : {Scalar::s4, Scalar::s8, Scalar::s16}) {
    Rng rng(0xc01 + static_cast<std::uint64_t>(type));
    const Matrix<std::int32_t> m = core::random_values(37, 19, type, rng);
    for (const bool row_major : {true, false}) {
      const int chunk = 8;
      const core::DenseOperand d =
          core::prepare_dense(m, type, row_major, type == Scalar::s4 ? 4 : chunk);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
          ASSERT_EQ(d.value_at(r, c), m(r, c))
              << to_string(type) << (row_major ? " row" : " col") << "-major ("
              << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(PreparationLayout, ValidateRejectsNonzeroPadding) {
  Rng rng(0x9ad);
  const auto pattern = sparse::make_uniform_pattern(16, 40, 8, 0.75, rng);
  const Matrix<std::int32_t> dense =
      core::random_values(pattern.rows, pattern.cols, Scalar::s8, rng);
  for (const bool shuffle : {false, true}) {
    sparse::SrBcrs sr = sparse::build_sr_bcrs(pattern, dense, Scalar::s8, 16);
    if (shuffle) sr = sparse::shuffle_columns(sr);
    EXPECT_NO_THROW(sr.validate());
    // The last slot of row 0 is padding (40 columns at 0.75 sparsity leave
    // fewer than 16 vectors per row).
    ASSERT_LT(pattern.vectors_in_row(0), 16u);
    const std::size_t pad = sr.value_index(sr.first_ptr[0], 15, 3);
    sr.values.set(pad, 1);
    EXPECT_THROW(sr.validate(), Error) << (shuffle ? "shuffled" : "natural");
  }
}

}  // namespace
}  // namespace magicube
