#pragma once
// Fused attention-graph serving (paper Fig. 16 as a serving unit).
//
// A GraphRequest names the whole quantized attention DAG —
//
//     SDDMM (sampled QK^T)  ->  sparse softmax + x-bit quantize  ->  SpMM
//
// — and is submitted to the serving engine as ONE request. The pool
// prices it with the merged multi-resource roofline of all three stages
// (max-of-sums across resources: the modeled fusion win over pricing each
// stage's own max), place it whole (stages share one arena, so the DAG is
// never row-sharded), and execute it against an engine-owned
// transformer::AttentionArena: stage intermediates — the quantized score
// matrix, the quantized attention weights — live in the arena, are never
// inserted into the OperandCache and never copied out between stages. Only
// the stable operands (quantized Q, K^T, V) and the two execution plans
// route through the caches, probe-keyed (serve/operand_cache.hpp). A
// session step (session_id != 0) is never admitted to the operand cache:
// each step quantizes its whole grown prefix with a fresh scale, so it
// never presents the same operand twice and every insertion would be dead
// weight in the budget. Its plans are cached like any other graph's — a
// layer's mask is shared across sessions.
//
// GraphRequests ride the existing Request currency via make_graph_request:
// the wrapper carries the mask as `pattern` so placement identity (plan
// affinity, pattern fingerprints) and EDF/deadline machinery work
// unchanged, and the pool branches on Request::graph before touching the
// per-kernel operand slots.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "simt/cost_model.hpp"
#include "sparse/pattern.hpp"
#include "transformer/attention.hpp"

namespace magicube::serve {

/// A fused attention DAG submitted as one serving unit. Operands are
/// shared_ptr-owned like Request's: the engine holds them past submit()
/// without copying.
struct GraphRequest {
  std::shared_ptr<const Matrix<float>> q;  // L x dk activations
  std::shared_ptr<const Matrix<float>> k;  // L x dk
  std::shared_ptr<const Matrix<float>> v;  // L x dk
  /// L x L sampling mask; also the wrapper Request's placement identity.
  std::shared_ptr<const sparse::BlockPattern> mask;
  transformer::AttentionScheme scheme =
      transformer::AttentionScheme::magicube_8b_8b;
  /// Token-stream identity (serve/session.hpp); 0 = one-shot graph. Folded
  /// into the wrapper's lhs_id so placement affinity keeps a stream's
  /// steps together. Nonzero keeps the step's activations out of the
  /// operand cache (plans are still cached).
  std::uint64_t session_id = 0;
  std::uint64_t step = 0;
};

/// One executed stage of a graph response: its analytic kernel run, the
/// modeled duration on the serving device, and its cache interaction. The
/// pool lays these out as per-stage trace spans under the request trace.
struct GraphStage {
  std::string name;     // "sddmm", "softmax_quantize", "spmm"
  simt::KernelRun run;  // merged analytic run of the stage's kernels
  double modeled_seconds = 0.0;
  bool lhs_cache_hit = false;
  bool rhs_cache_hit = false;
  bool plan_cache_hit = false;
};

/// Output of a served graph: the fp32 attention result plus the stage
/// breakdown. Response::modeled_seconds carries the *fused* estimate (one
/// merged run, one launch); the per-stage modeled_seconds sum to more —
/// their difference is the modeled fusion win.
struct GraphResult {
  Matrix<float> out;  // L x dk
  std::vector<GraphStage> stages;
};

/// Wraps a graph into the engine's Request currency. The wrapper's
/// `pattern` is the graph's mask (placement/pricing identity), `op` is
/// sddmm (the DAG's first stage — keeps affinity in the SDDMM domain),
/// `lhs_id` is the session id when streaming, and the operand slots stay
/// null: the engine routes on Request::graph before touching them.
Request make_graph_request(std::shared_ptr<const GraphRequest> graph,
                           int priority = 0, double deadline_seconds = 0.0);

/// Prices the whole DAG without executing: quant-QKV elementwise + SDDMM +
/// sparse softmax + SpMM merged into one run (resident plans' analytic
/// runs when cached in `plans`, closed-form estimates otherwise), with the
/// fused schedule's single kernel launch. Equals the executed graph's
/// modeled run exactly (estimate-equals-execute, as everywhere in the
/// cost model).
simt::KernelRun price_graph_request(const GraphRequest& g,
                                    OperandCache& plans);

/// The same DAG priced as *per-stage* submissions: each stage keeps its own
/// launches and adds the interlude traffic fusion eliminates — the score
/// copy-out (dequantize nnz scores to fp), the quantized attention-weight
/// copy-in (re-quantize + scatter over the L x L image) — per §IV-C, where
/// the on-device SDDMM writes SR-BCRS directly for the SpMM to consume.
/// Returned per kernel (not merged): the staged arm prices as a sum of
/// per-kernel rooflines — sum-of-maxes — which is exactly what fusion
/// beats. bench/graph_soak gates the fused:staged modeled-throughput
/// ratio.
std::vector<simt::KernelRun> price_staged_graph(const GraphRequest& g,
                                                OperandCache& plans);

/// Modeled per-step cost of a session at its full mask/depth on `device` —
/// the admission currency DevicePoolConfig::session_budget_seconds is
/// compared against (serve/session.hpp).
double price_session_step_seconds(const sparse::BlockPattern& mask,
                                  std::size_t dk,
                                  transformer::AttentionScheme scheme,
                                  const simt::DeviceSpec& device);

/// Executes the DAG synchronously against `operands`/`plans` on `device`
/// (`operands` is left untouched for a session step).
/// The response's hit flags summarize the stable operands (lhs = quantized
/// Q, rhs = V, plan = both stage plans); the full per-stage breakdown is
/// in Response::graph->stages. The pool calls this from its workers —
/// direct calls serve without queueing, like serve_request.
Response serve_graph_request(const GraphRequest& g, OperandCache& operands,
                             OperandCache& plans,
                             const simt::DeviceSpec& device);

}  // namespace magicube::serve
