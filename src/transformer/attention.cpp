#include "transformer/attention.hpp"

#include <cmath>

#include "baselines/dense_gemm.hpp"
#include "baselines/vector_sparse_like.hpp"
#include "core/api.hpp"
#include "quant/quantizer.hpp"
#include "serve/operand_cache.hpp"
#include "transformer/ops.hpp"

namespace magicube::transformer {

AttentionPlanContext::AttentionPlanContext(
    std::shared_ptr<serve::OperandCache> cache_in,
    const sparse::BlockPattern& mask_in)
    : cache(std::move(cache_in)),
      mask(std::make_shared<const sparse::BlockPattern>(mask_in)) {
  MAGICUBE_CHECK_MSG(cache != nullptr,
                     "AttentionPlanContext needs an operand cache");
}

const char* to_string(AttentionScheme s) {
  switch (s) {
    case AttentionScheme::dense_fp16: return "PyTorch(cuDNN,fp16)";
    case AttentionScheme::vector_sparse_fp16: return "vectorSparse(fp16)";
    case AttentionScheme::magicube_16b_8b: return "Magicube(16b-8b)";
    case AttentionScheme::magicube_8b_8b: return "Magicube(8b-8b)";
    case AttentionScheme::magicube_8b_4b: return "Magicube(8b-4b)";
    case AttentionScheme::magicube_4b_4b: return "Magicube(4b-4b)";
  }
  return "?";
}

bool is_magicube(AttentionScheme s) {
  return s != AttentionScheme::dense_fp16 &&
         s != AttentionScheme::vector_sparse_fp16;
}

int softmax_bits(AttentionScheme s) {
  switch (s) {
    case AttentionScheme::magicube_16b_8b: return 16;
    case AttentionScheme::magicube_8b_8b:
    case AttentionScheme::magicube_8b_4b: return 8;
    case AttentionScheme::magicube_4b_4b: return 4;
    default: return 16;
  }
}

int qkv_bits(AttentionScheme s) {
  switch (s) {
    case AttentionScheme::magicube_16b_8b:
    case AttentionScheme::magicube_8b_8b: return 8;
    case AttentionScheme::magicube_8b_4b:
    case AttentionScheme::magicube_4b_4b: return 4;
    default: return 16;
  }
}

namespace {

Scalar scalar_for_bits(int bits) {
  switch (bits) {
    case 4: return Scalar::s4;
    case 8: return Scalar::s8;
    default: return Scalar::s16;
  }
}

Matrix<half> to_half(const Matrix<float>& m) {
  Matrix<half> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = half(m.data()[i]);
  return out;
}

/// The attention-weights x V SpMM of a Magicube scheme (Lx-Ry).
core::SpmmConfig spmm_config(AttentionScheme scheme) {
  core::SpmmConfig cfg;
  cfg.precision = PrecisionPair{scalar_for_bits(softmax_bits(scheme)),
                                scalar_for_bits(qkv_bits(scheme))};
  return cfg;
}

Matrix<std::int32_t> quantize_to_int(const Matrix<float>& m,
                                     const quant::QuantParams& p) {
  Matrix<std::int32_t> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.data()[i] = quant::quantize_value(m.data()[i], p);
  }
  return out;
}

Matrix<float> dense_fp16_attention(const Matrix<float>& q,
                                   const Matrix<float>& k,
                                   const Matrix<float>& v,
                                   const sparse::BlockPattern& mask,
                                   std::vector<simt::KernelRun>* runs) {
  const std::size_t l = q.rows(), dk = q.cols();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Matrix<float> scores = matmul_transposed_b(q, k);
  const auto mask_dense = sparse::pattern_to_dense_mask(mask);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      scores(i, j) = mask_dense(i, j)
                         ? float(half(scores(i, j) * scale))
                         : -3.0e4f;  // masked out (finite in fp16)
    }
  }
  softmax_rows(scores, /*round_fp16=*/true);
  Matrix<half> attn = to_half(scores);
  const auto out = baselines::dense_gemm_fp16(attn, to_half(v));
  if (runs) {
    runs->push_back(baselines::dense_gemm_fp16_estimate(l, l, dk));
    runs->push_back(elementwise_kernel(l * l, 2.0, 6.0));  // mask+scale
    runs->push_back(softmax_kernel(l * l, 2));
    runs->push_back(baselines::dense_gemm_fp16_estimate(l, dk, l));
  }
  Matrix<float> result(l, dk);
  for (std::size_t i = 0; i < result.size(); ++i) {
    result.data()[i] = float(out.c.data()[i]);
  }
  return result;
}

Matrix<float> vector_sparse_attention(const Matrix<float>& q,
                                      const Matrix<float>& k,
                                      const Matrix<float>& v,
                                      const sparse::BlockPattern& mask,
                                      std::vector<simt::KernelRun>* runs) {
  const std::size_t l = q.rows(), dk = q.cols();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));

  // SDDMM in fp16: B is K^T (dk x l).
  Matrix<half> kt(dk, l);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t d = 0; d < dk; ++d) kt(d, i) = half(k(i, d));
  }
  auto sddmm = baselines::vs_sddmm(to_half(q), kt, mask);

  sparse::Bcrs<float> scores;
  scores.rows = sddmm.c.rows;
  scores.cols = sddmm.c.cols;
  scores.vector_length = sddmm.c.vector_length;
  scores.row_ptr = sddmm.c.row_ptr;
  scores.col_idx = sddmm.c.col_idx;
  scores.values.resize(sddmm.c.values.size());
  for (std::size_t i = 0; i < scores.values.size(); ++i) {
    scores.values[i] = float(sddmm.c.values[i]) * scale;
  }
  softmax_sparse_rows(scores, /*round_fp16=*/true);

  sparse::Bcrs<half> attn;
  attn.rows = scores.rows;
  attn.cols = scores.cols;
  attn.vector_length = scores.vector_length;
  attn.row_ptr = scores.row_ptr;
  attn.col_idx = scores.col_idx;
  attn.values.resize(scores.values.size());
  for (std::size_t i = 0; i < attn.values.size(); ++i) {
    attn.values[i] = half(scores.values[i]);
  }
  auto spmm = baselines::vs_spmm(attn, to_half(v));
  if (runs) {
    runs->push_back(sddmm.run);
    runs->push_back(softmax_kernel(mask.nnz(), 2));
    runs->push_back(spmm.run);
  }
  Matrix<float> result(l, dk);
  for (std::size_t i = 0; i < result.size(); ++i) {
    result.data()[i] = float(spmm.c.data()[i]);
  }
  return result;
}

Matrix<float> magicube_attention(const Matrix<float>& q,
                                 const Matrix<float>& k,
                                 const Matrix<float>& v,
                                 const sparse::BlockPattern& mask,
                                 AttentionScheme scheme,
                                 std::vector<simt::KernelRun>* runs,
                                 AttentionPlanContext* plans) {
  AttentionArena arena;
  arena.scheme = scheme;
  // Without a plan context the mask stays caller-owned for the duration of
  // the call: a non-owning alias keeps the stage bodies uniform.
  arena.mask = plans ? plans->mask
                     : std::shared_ptr<const sparse::BlockPattern>(
                           std::shared_ptr<const void>(), &mask);
  serve::OperandCache* cache = plans ? plans->cache.get() : nullptr;

  AttentionStageFlags f1, f3;
  attention_stage_sddmm(arena, q, k, v, cache, cache, &f1);
  if (plans) {
    (f1.lhs_cache_hit ? plans->operand_hits : plans->operand_preps) += 1;
    (f1.rhs_cache_hit ? plans->operand_hits : plans->operand_preps) += 1;
    (f1.plan_cache_hit ? plans->plan_replays : plans->plan_builds) += 1;
  }
  attention_stage_softmax_quantize(arena);
  attention_stage_spmm(arena, cache, cache, /*cache_lhs=*/false, &f3);
  if (plans) {
    (f3.rhs_cache_hit ? plans->operand_hits : plans->operand_preps) += 1;
    (f3.plan_cache_hit ? plans->plan_replays : plans->plan_builds) += 1;
  }

  if (runs) {
    runs->push_back(
        elementwise_kernel(3 * arena.l * arena.dk, 2.0, 5.0));  // quant QKV
    runs->push_back(arena.sddmm.run);
    runs->push_back(softmax_kernel(mask.nnz(), 2));
    runs->push_back(arena.spmm.run);
  }
  return attention_stage_output(arena);
}

}  // namespace

void attention_stage_sddmm(AttentionArena& arena, const Matrix<float>& q,
                           const Matrix<float>& k, const Matrix<float>& v,
                           serve::OperandCache* operands,
                           serve::OperandCache* plans,
                           AttentionStageFlags* flags) {
  MAGICUBE_CHECK_MSG(arena.mask != nullptr,
                     "attention arena needs its mask set before stage 1");
  const sparse::BlockPattern& mask = *arena.mask;
  const std::size_t l = q.rows(), dk = q.cols();
  arena.l = l;
  arena.dk = dk;
  arena.scale = 1.0f / std::sqrt(static_cast<float>(dk));
  const Scalar qkv_type = scalar_for_bits(qkv_bits(arena.scheme));

  // Quantize Q, K, V (fused with the projection epilogue on device).
  const auto pq = quant::choose_symmetric(q.data(), q.size(), qkv_type);
  const auto pk = quant::choose_symmetric(k.data(), k.size(), qkv_type);
  const auto pv = quant::choose_symmetric(v.data(), v.size(), qkv_type);
  arena.pq = pq;
  arena.pk = pk;
  arena.pv = pv;
  arena.qi = quantize_to_int(q, pq);
  arena.ki = quantize_to_int(k, pk);
  arena.vi = quantize_to_int(v, pv);

  // SDDMM at Ly-Ry, dequantize fused into the epilogue.
  const PrecisionPair sddmm_prec{qkv_type, qkv_type};
  const int chunk = bits_of(qkv_type) <= 4 ? 4 : 8;
  arena.kt = Matrix<std::int32_t>(dk, l);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t d = 0; d < dk; ++d) arena.kt(d, i) = arena.ki(i, d);
  }
  core::SddmmConfig sddmm_cfg;
  sddmm_cfg.precision = sddmm_prec;
  AttentionStageFlags local;
  // Serve the prepared operands from the cache, keyed by a content probe of
  // the quantized values: repeated calls over unchanged activations skip
  // the O(L·dk) re-prepare entirely. The probe-keyed path uses the probe
  // itself as identity (bijectively remapped), so changed values miss
  // cleanly and no probe value — 0 included — can alias two distinct
  // operands onto one id.
  core::DenseOperandHandle a_op, b_op;
  if (operands) {
    a_op = operands->get_or_prepare_probed(serve::OperandKind::sddmm_lhs,
                                           arena.qi, sddmm_prec,
                                           &local.lhs_cache_hit);
    b_op = operands->get_or_prepare_probed(serve::OperandKind::sddmm_rhs,
                                           arena.kt, sddmm_prec,
                                           &local.rhs_cache_hit);
  }
  if (plans) {
    // Build once per layer, replay per token: the plan is served from the
    // cache and validated against the mask at replay time.
    arena.stage_plans.sddmm = plans->get_or_build_sddmm_plan(
        arena.mask, dk, sddmm_cfg, 0, &local.plan_cache_hit);
    if (!a_op) {
      a_op = core::prepare_dense_shared(arena.qi, qkv_type,
                                        /*row_major=*/true, chunk);
      b_op = core::prepare_dense_shared(arena.kt, qkv_type,
                                        /*row_major=*/false, chunk);
    }
    arena.sddmm =
        core::sddmm(a_op, b_op, mask, sddmm_cfg, arena.stage_plans.sddmm);
  } else if (operands) {
    arena.sddmm = core::sddmm(a_op, b_op, mask, sddmm_cfg);
  } else {
    const auto a_val = core::prepare_dense(arena.qi, qkv_type,
                                           /*row_major=*/true, chunk);
    const auto b_val = core::prepare_dense(arena.kt, qkv_type,
                                           /*row_major=*/false, chunk);
    arena.sddmm = core::sddmm(a_val, b_val, mask, sddmm_cfg);
  }
  if (flags) *flags = local;
}

void attention_stage_softmax_quantize(AttentionArena& arena) {
  const Scalar sm_type = scalar_for_bits(softmax_bits(arena.scheme));
  sparse::Bcrs<float>& scores = arena.scores;
  scores.rows = arena.sddmm.c.rows;
  scores.cols = arena.sddmm.c.cols;
  scores.vector_length = arena.sddmm.c.vector_length;
  scores.row_ptr = arena.sddmm.c.row_ptr;
  scores.col_idx = arena.sddmm.c.col_idx;
  scores.values.resize(arena.sddmm.c.values.size());
  const float deq = arena.pq.scale * arena.pk.scale * arena.scale;
  for (std::size_t i = 0; i < scores.values.size(); ++i) {
    scores.values[i] = static_cast<float>(arena.sddmm.c.values[i]) * deq;
  }
  // fp16 softmax with fused x-bit quantization of the output.
  softmax_sparse_rows(scores, /*round_fp16=*/true);
  arena.pa = quant::choose_symmetric(scores.values.data(),
                                     scores.values.size(), sm_type);

  // §IV-C hand-off: the SDDMM output is vector-major in the mask's pattern
  // order, so each quantized weight goes straight to its SR-BCRS slot.
  const std::size_t vl = static_cast<std::size_t>(scores.vector_length);
  const core::SpmmConfig cfg = spmm_config(arena.scheme);
  arena.attn = std::make_shared<const core::SparseOperand>(
      core::prepare_spmm_lhs_from(
          *arena.mask, cfg.precision, core::needs_shuffle(cfg),
          [&](std::size_t, std::size_t i, std::size_t rb) {
            return quant::quantize_value(scores.values[i * vl + rb],
                                         arena.pa);
          }));
}

void attention_stage_spmm(AttentionArena& arena,
                          serve::OperandCache* operands,
                          serve::OperandCache* plans, bool cache_lhs,
                          AttentionStageFlags* flags) {
  MAGICUBE_CHECK_MSG(arena.attn != nullptr,
                     "attention arena needs stage 2 before stage 3");
  MAGICUBE_CHECK_MSG(!cache_lhs,
                     "the attention weights are an arena intermediate and "
                     "never enter the operand cache");
  const core::SpmmConfig cfg = spmm_config(arena.scheme);
  AttentionStageFlags local;
  // V is stable across decode steps over a fixed context: the cache turns
  // its re-prepare into a lookup.
  const core::DenseOperandHandle rhs =
      operands ? operands->get_or_prepare_probed(serve::OperandKind::spmm_rhs,
                                                 arena.vi, cfg.precision,
                                                 &local.rhs_cache_hit)
               : core::prepare_spmm_rhs_shared(arena.vi, cfg.precision);
  if (plans) {
    arena.stage_plans.spmm = plans->get_or_build_spmm_plan(
        arena.mask, arena.dk, cfg, 0, &local.plan_cache_hit);
    arena.spmm = core::spmm(arena.attn, rhs, cfg, arena.stage_plans.spmm);
  } else {
    arena.spmm = core::spmm(arena.attn, rhs, cfg);
  }
  if (flags) *flags = local;
}

Matrix<float> attention_stage_output(const AttentionArena& arena) {
  Matrix<float> result(arena.l, arena.dk);
  const float deq_out = arena.pa.scale * arena.pv.scale;
  for (std::size_t i = 0; i < arena.l; ++i) {
    for (std::size_t d = 0; d < arena.dk; ++d) {
      result(i, d) = static_cast<float>(arena.spmm.c(i, d)) * deq_out;
    }
  }
  return result;
}

Matrix<float> attention_forward(const Matrix<float>& q,
                                const Matrix<float>& k,
                                const Matrix<float>& v,
                                const sparse::BlockPattern& mask,
                                AttentionScheme scheme,
                                std::vector<simt::KernelRun>* run_out,
                                AttentionPlanContext* plans) {
  MAGICUBE_CHECK(q.rows() == k.rows() && q.cols() == k.cols());
  MAGICUBE_CHECK(v.rows() == q.rows());
  MAGICUBE_CHECK(mask.rows == q.rows() && mask.cols == q.rows());
  if (plans) {
    // Cheap shape identity; full structural equality is enforced slot for
    // slot by the plan validation inside the kernels.
    MAGICUBE_CHECK_MSG(plans->mask->rows == mask.rows &&
                           plans->mask->cols == mask.cols &&
                           plans->mask->vector_length == mask.vector_length &&
                           plans->mask->vector_count() == mask.vector_count(),
                       "attention plan context built for a different mask");
  }
  switch (scheme) {
    case AttentionScheme::dense_fp16:
      return dense_fp16_attention(q, k, v, mask, run_out);
    case AttentionScheme::vector_sparse_fp16:
      return vector_sparse_attention(q, k, v, mask, run_out);
    default:
      return magicube_attention(q, k, v, mask, scheme, run_out, plans);
  }
}

}  // namespace magicube::transformer
