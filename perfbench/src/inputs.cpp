#include "inputs.hpp"

#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/operands.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "dlmc/dlmc.hpp"

namespace perfbench {

namespace mc = magicube;
using mc::Matrix;
using mc::PrecisionPair;
using mc::Rng;

const char* precision_name(PrecisionPair p) {
  const int l = mc::bits_of(p.lhs), r = mc::bits_of(p.rhs);
  if (l == 8 && r == 8) return "L8R8";
  if (l == 8 && r == 4) return "L8R4";
  if (l == 4 && r == 4) return "L4R4";
  if (l == 16 && r == 8) return "L16R8";
  return "other";
}

namespace {

IntMatrix random_matrix(std::size_t rows, std::size_t cols, mc::Scalar type,
                        std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<const Matrix<std::int32_t>>(
      mc::core::random_values(rows, cols, type, rng));
}

/// The DLMC matrix at `sparsity` whose V-dilated nonzero count is closest
/// to `target_nnz` (first wins ties). Seed-independent: the seed only
/// re-places its nonzeros.
mc::dlmc::MatrixSpec pick_dlmc(double sparsity, int v, double target_nnz) {
  const auto specs = mc::dlmc::collection(sparsity);
  std::size_t best = 0;
  double best_err = 1e300;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double per_row =
        std::max(1.0, std::round((1.0 - sparsity) *
                                 static_cast<double>(specs[i].cols)));
    const double nnz = per_row * static_cast<double>(specs[i].rows * v);
    const double err = std::fabs(std::log(nnz / target_nnz));
    if (err < best_err - 1e-12) {
      best_err = err;
      best = i;
    }
  }
  return specs[best];
}

constexpr double kMixTargetNnz = 32768.0;
constexpr std::size_t kMixSddmmDepth = 64;

}  // namespace

std::vector<MixEntry> make_kernel_mix(std::uint64_t seed,
                                      std::size_t max_entries) {
  std::vector<MixEntry> mix;
  std::uint64_t tag = 0;
  const auto full = [&] { return mix.size() >= max_entries; };
  for (const double s : {0.7, 0.9, 0.98}) {
    for (const int v : {2, 8}) {
      if (full()) return mix;
      mc::dlmc::MatrixSpec spec = pick_dlmc(s, v, kMixTargetNnz);
      spec.seed = derive_seed(seed, ++tag);
      const auto pattern = std::make_shared<const mc::sparse::BlockPattern>(
          mc::dlmc::instantiate(spec, v));
      for (const PrecisionPair p :
           {mc::precision::L8R8, mc::precision::L8R4, mc::precision::L4R4,
            mc::precision::L16R8}) {
        if (full()) return mix;
        const IntMatrix lhs = random_matrix(pattern->rows, pattern->cols,
                                            p.lhs, derive_seed(seed, ++tag));
        for (const std::size_t n : {128, 256}) {
          if (full()) return mix;
          MixEntry e;
          e.precision = p;
          e.v = v;
          e.sparsity = s;
          e.width = n;
          e.pattern = pattern;
          e.lhs = lhs;
          e.rhs = random_matrix(pattern->cols, n, p.rhs,
                                derive_seed(seed, ++tag));
          e.useful_ops = mc::core::spmm_useful_ops(*pattern, n);
          e.label = "spmm " + std::string(precision_name(p)) + " V" +
                    std::to_string(v) + " s" + std::to_string(s).substr(0, 4) +
                    " " + std::to_string(pattern->rows) + "x" +
                    std::to_string(pattern->cols) + " N" + std::to_string(n);
          mix.push_back(std::move(e));
        }
      }
    }
  }
  for (const double s : {0.7, 0.9, 0.98}) {
    // Sequence length whose mask holds about the target nonzeros.
    const auto l = static_cast<std::size_t>(
        64 * std::lround(std::sqrt(kMixTargetNnz / (1.0 - s)) / 64.0));
    for (const int v : {2, 8}) {
      if (full()) return mix;
      Rng rng(derive_seed(seed, ++tag));
      const auto mask = std::make_shared<const mc::sparse::BlockPattern>(
          mc::sparse::make_attention_mask_pattern(l, v, s, rng));
      for (const PrecisionPair p : {mc::precision::L8R8, mc::precision::L4R4}) {
        if (full()) return mix;
        MixEntry e;
        e.sddmm = true;
        e.precision = p;
        e.v = v;
        e.sparsity = s;
        e.width = kMixSddmmDepth;
        e.pattern = mask;
        e.lhs = random_matrix(l, kMixSddmmDepth, p.lhs, derive_seed(seed, ++tag));
        e.rhs = random_matrix(kMixSddmmDepth, l, p.rhs, derive_seed(seed, ++tag));
        e.useful_ops = mc::core::sddmm_useful_ops(*mask, kMixSddmmDepth);
        e.label = "sddmm " + std::string(precision_name(p)) + " V" +
                  std::to_string(v) + " s" + std::to_string(s).substr(0, 4) +
                  " L" + std::to_string(l) + " K" +
                  std::to_string(kMixSddmmDepth);
        mix.push_back(std::move(e));
      }
    }
  }
  return mix;
}

MixEntry make_giant(std::uint64_t seed) {
  constexpr std::size_t kRows = 65536, kCols = 64, kN = 64;
  const PrecisionPair p = mc::precision::L8R8;
  Rng rng(derive_seed(seed, 1001));
  MixEntry e;
  e.precision = p;
  e.v = 2;
  e.sparsity = 0.95;
  e.width = kN;
  e.pattern = std::make_shared<const mc::sparse::BlockPattern>(
      mc::sparse::make_uniform_pattern(kRows, kCols, e.v, e.sparsity, rng));
  e.lhs = random_matrix(kRows, kCols, p.lhs, derive_seed(seed, 1002));
  e.rhs = random_matrix(kCols, kN, p.rhs, derive_seed(seed, 1003));
  e.useful_ops = mc::core::spmm_useful_ops(*e.pattern, kN);
  e.label = "giant spmm L8R8 V2 s0.95 65536x64 N64";
  return e;
}

// ---- attention_stream -----------------------------------------------------

mc::transformer::AttentionScheme stream_scheme(std::size_t client) {
  using S = mc::transformer::AttentionScheme;
  static const S kSchemes[kStreamClients] = {
      S::magicube_8b_8b, S::magicube_16b_8b, S::magicube_8b_4b,
      S::magicube_8b_8b};
  return kSchemes[client % kStreamClients];
}

PatternPtr make_stream_mask(std::uint64_t seed, std::size_t client,
                            std::size_t round) {
  Rng rng(derive_seed(seed, (1ull << 40) | (client << 32) | round));
  return std::make_shared<const mc::sparse::BlockPattern>(
      mc::sparse::make_attention_mask_pattern(kStreamMaxLen, kStreamV,
                                              kStreamSparsity, rng));
}

StepRows make_stream_rows(std::uint64_t seed, std::size_t client,
                          std::size_t round, std::size_t step) {
  Rng rng(derive_seed(seed, (2ull << 60) | (client << 52) | (round << 12) |
                                step));
  StepRows r{Matrix<float>(kStreamV, kStreamDk), Matrix<float>(kStreamV, kStreamDk),
             Matrix<float>(kStreamV, kStreamDk)};
  for (Matrix<float>* m : {&r.q, &r.k, &r.v}) {
    for (std::size_t i = 0; i < m->size(); ++i) {
      m->data()[i] = static_cast<float>(rng.next_normal());
    }
  }
  return r;
}

// ---- fingerprints ---------------------------------------------------------

namespace {

struct Hasher {
  std::uint64_t h = 0x6a09e667f3bcc909ull;
  void add(std::uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 31;
  }
  void add(const Matrix<std::int32_t>& m) { add(content_hash(m)); }
};

}  // namespace

std::uint64_t fingerprint(const mc::sparse::BlockPattern& p) {
  Hasher h;
  h.add(p.rows);
  h.add(p.cols);
  h.add(static_cast<std::uint64_t>(p.vector_length));
  for (const std::uint32_t x : p.row_ptr) h.add(x);
  for (const std::uint32_t x : p.col_idx) h.add(x);
  return h.h;
}

std::uint64_t fingerprint(const std::vector<MixEntry>& mix) {
  Hasher h;
  for (const MixEntry& e : mix) {
    h.add(fingerprint(*e.pattern));
    h.add(*e.lhs);
    h.add(*e.rhs);
    h.add(e.width);
  }
  return h.h;
}

std::uint64_t fingerprint(const StepRows& rows) {
  Hasher h;
  for (const Matrix<float>* m : {&rows.q, &rows.k, &rows.v}) {
    for (std::size_t i = 0; i < m->size(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &m->data()[i], sizeof(bits));
      h.add(bits);
    }
  }
  return h.h;
}

}  // namespace perfbench
