#include "serve/graph.hpp"

#include <utility>

#include "common/check.hpp"
#include "core/api.hpp"
#include "transformer/ops.hpp"

namespace magicube::serve {

namespace {

Scalar scalar_for_bits(int bits) {
  switch (bits) {
    case 4: return Scalar::s4;
    case 8: return Scalar::s8;
    default: return Scalar::s16;
  }
}

void validate_graph(const GraphRequest& g) {
  MAGICUBE_CHECK_MSG(g.q && g.k && g.v && g.mask,
                     "graph request is missing operands or mask");
  MAGICUBE_CHECK_MSG(transformer::is_magicube(g.scheme),
                     "graph requests serve the Magicube schemes only");
  MAGICUBE_CHECK(g.q->rows() == g.k->rows() && g.q->cols() == g.k->cols());
  MAGICUBE_CHECK(g.v->rows() == g.q->rows() && g.v->cols() == g.q->cols());
  MAGICUBE_CHECK_MSG(
      g.mask->rows == g.q->rows() && g.mask->cols == g.q->rows(),
      "graph mask must be L x L for L x dk activations");
}

core::SddmmConfig graph_sddmm_cfg(transformer::AttentionScheme scheme) {
  const Scalar qkv = scalar_for_bits(transformer::qkv_bits(scheme));
  core::SddmmConfig cfg;
  cfg.precision = PrecisionPair{qkv, qkv};
  return cfg;
}

core::SpmmConfig graph_spmm_cfg(transformer::AttentionScheme scheme) {
  core::SpmmConfig cfg;
  cfg.precision =
      PrecisionPair{scalar_for_bits(transformer::softmax_bits(scheme)),
                    scalar_for_bits(transformer::qkv_bits(scheme))};
  return cfg;
}

/// The fused DAG's merged run: quant-QKV + SDDMM + softmax + SpMM under one
/// roofline (max-of-sums across resources — the modeled fusion win over the
/// per-stage sum-of-maxes). The sparse softmax(+quantize) is fused into the
/// SDDMM epilogue on device (§IV-C: the SDDMM writes SR-BCRS directly), so
/// its traffic is merged but its kernel launch disappears. Used identically
/// by pricing and execution, keeping estimate-equals-execute exact.
simt::KernelRun assemble_fused_run(std::size_t l, std::size_t dk,
                                   std::uint64_t mask_nnz,
                                   const simt::KernelRun& sddmm_run,
                                   const simt::KernelRun& spmm_run) {
  simt::KernelRun run =
      transformer::elementwise_kernel(3 * l * dk, 2.0, 5.0);  // quant QKV
  run.merge(sddmm_run);
  const simt::KernelRun sm = transformer::softmax_kernel(mask_nnz, 2);
  run.pipeline.total_steps += sm.pipeline.total_steps;
  run.counters += sm.counters;  // launch folded into the SDDMM epilogue
  run.merge(spmm_run);
  return run;
}

/// Stage-plan runs from the plan cache when resident, closed-form
/// estimates otherwise (the two are equal by construction — estimates ARE
/// the plans' analytic runs).
simt::KernelRun sddmm_run_for(const GraphRequest& g, OperandCache& plans) {
  const core::SddmmConfig cfg = graph_sddmm_cfg(g.scheme);
  const std::uint64_t fp = plans.pattern_identity(g.mask);
  const CachedOperand hit =
      plans.find(sddmm_plan_key(fp, g.q->cols(), cfg));
  return hit ? hit.sddmm_plan->run
             : core::sddmm_estimate(*g.mask, g.q->cols(), cfg);
}

simt::KernelRun spmm_run_for(const GraphRequest& g, OperandCache& plans) {
  const core::SpmmConfig cfg = graph_spmm_cfg(g.scheme);
  const std::uint64_t fp = plans.pattern_identity(g.mask);
  const CachedOperand hit = plans.find(spmm_plan_key(fp, g.q->cols(), cfg));
  return hit ? hit.spmm_plan->run
             : core::spmm_estimate(*g.mask, g.q->cols(), cfg);
}

}  // namespace

Request make_graph_request(std::shared_ptr<const GraphRequest> graph,
                           int priority, double deadline_seconds) {
  MAGICUBE_CHECK_MSG(graph != nullptr, "make_graph_request needs a graph");
  validate_graph(*graph);
  Request req;
  // The DAG's first stage: keeps the wrapper's placement affinity in the
  // SDDMM identity domain so a stream's steps land near their cached
  // operands and plans.
  req.op = OpKind::sddmm;
  const Scalar qkv = scalar_for_bits(transformer::qkv_bits(graph->scheme));
  req.precision = PrecisionPair{qkv, qkv};
  req.pattern = graph->mask;
  req.lhs_id = graph->session_id;
  req.priority = priority;
  req.deadline_seconds = deadline_seconds;
  req.graph = std::move(graph);
  return req;
}

simt::KernelRun price_graph_request(const GraphRequest& g,
                                    OperandCache& plans) {
  validate_graph(g);
  return assemble_fused_run(g.q->rows(), g.q->cols(), g.mask->nnz(),
                            sddmm_run_for(g, plans), spmm_run_for(g, plans));
}

std::vector<simt::KernelRun> price_staged_graph(const GraphRequest& g,
                                                OperandCache& plans) {
  validate_graph(g);
  const std::size_t l = g.q->rows(), dk = g.q->cols();
  const std::uint64_t nnz = g.mask->nnz();
  std::vector<simt::KernelRun> runs;
  runs.reserve(6);
  runs.push_back(transformer::elementwise_kernel(3 * l * dk, 2.0, 5.0));
  runs.push_back(sddmm_run_for(g, plans));
  // The interlude fusion eliminates (§IV-C): dequantize the sampled scores
  // out of the SDDMM's integer output (read int32 + write fp32 per nnz)...
  runs.push_back(transformer::elementwise_kernel(nnz, 1.0, 8.0));
  runs.push_back(transformer::softmax_kernel(nnz, 2));
  // ...then re-quantize and scatter the attention weights over the dense
  // L x L SpMM LHS image the unfused kernel consumes.
  runs.push_back(transformer::elementwise_kernel(l * l, 1.0, 5.0));
  runs.push_back(spmm_run_for(g, plans));
  return runs;
}

double price_session_step_seconds(const sparse::BlockPattern& mask,
                                  std::size_t dk,
                                  transformer::AttentionScheme scheme,
                                  const simt::DeviceSpec& device) {
  MAGICUBE_CHECK_MSG(mask.rows == mask.cols,
                     "session masks are square (L x L)");
  const std::size_t l = mask.rows;
  const core::SddmmConfig scfg = graph_sddmm_cfg(scheme);
  const core::SpmmConfig pcfg = graph_spmm_cfg(scheme);
  const simt::KernelRun run =
      assemble_fused_run(l, dk, mask.nnz(), core::sddmm_estimate(mask, dk, scfg),
                         core::spmm_estimate(mask, dk, pcfg));
  return simt::estimate_seconds(device, run);
}

Response serve_graph_request(const GraphRequest& g, OperandCache& operands,
                             OperandCache& plans,
                             const simt::DeviceSpec& device) {
  validate_graph(g);
  transformer::AttentionArena arena;
  arena.scheme = g.scheme;
  arena.mask = g.mask;

  // A session step quantizes its whole grown prefix with a fresh scale, so
  // it never presents the same operand twice: its activations skip the
  // operand cache. Plans stay cached — a layer's mask is shared across
  // sessions.
  OperandCache* activations = g.session_id != 0 ? nullptr : &operands;
  transformer::AttentionStageFlags f1, f3;
  attention_stage_sddmm(arena, *g.q, *g.k, *g.v, activations, &plans, &f1);
  attention_stage_softmax_quantize(arena);
  // cache_lhs=false: the quantized attention weights are the DAG's
  // intermediate — prepared straight into the arena, never cached.
  attention_stage_spmm(arena, activations, &plans, /*cache_lhs=*/false, &f3);

  auto result = std::make_shared<GraphResult>();
  result->out = attention_stage_output(arena);

  // Per-stage breakdown: each stage priced on its own (its own launches),
  // for the trace spans and the fusion-win accounting.
  const std::size_t l = arena.l, dk = arena.dk;
  simt::KernelRun s1 = transformer::elementwise_kernel(3 * l * dk, 2.0, 5.0);
  s1.merge(arena.sddmm.run);
  const simt::KernelRun s2 = transformer::softmax_kernel(g.mask->nnz(), 2);
  const simt::KernelRun s3 = arena.spmm.run;
  result->stages.push_back(GraphStage{
      "sddmm", s1, simt::estimate_seconds(device, s1), f1.lhs_cache_hit,
      f1.rhs_cache_hit, f1.plan_cache_hit});
  result->stages.push_back(GraphStage{
      "softmax_quantize", s2, simt::estimate_seconds(device, s2), false,
      false, false});
  result->stages.push_back(GraphStage{
      "spmm", s3, simt::estimate_seconds(device, s3), f3.lhs_cache_hit,
      f3.rhs_cache_hit, f3.plan_cache_hit});

  Response resp;
  resp.op = OpKind::sddmm;  // the wrapper request's op
  resp.lhs_cache_hit = f1.lhs_cache_hit;   // quantized Q
  resp.rhs_cache_hit = f3.rhs_cache_hit;   // quantized V
  resp.plan_cache_hit = f1.plan_cache_hit && f3.plan_cache_hit;
  // The fused estimate: one merged roofline over all stages, the softmax
  // launch folded away. Matches price_graph_request exactly.
  resp.modeled_seconds = simt::estimate_seconds(
      device, assemble_fused_run(l, dk, g.mask->nnz(), arena.sddmm.run,
                                 arena.spmm.run));
  resp.graph = std::move(result);
  return resp;
}

}  // namespace magicube::serve
