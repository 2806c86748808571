#pragma once
// Per-client token streams over the fused attention graph.
//
// A TokenSession models one decode stream: the client appends token rows
// (multiples of the mask's SR-BCRS vector length) and each step() submits
// ONE fused GraphRequest (serve/graph.hpp) over the stream's grown prefix —
// the full-length mask re-sliced on block-row boundaries to the current
// length L, columns clamped to the visible prefix. Steps from concurrently
// active sessions coalesce in the pool's ordinary linger window and
// dispatch under the existing EDF/deadline machinery: continuous batching
// falls out of the engine rather than being a second scheduler.
//
// Admission control mirrors deadline shedding: a session's cost is its
// modeled *full-length* step (price_session_step_seconds — the ceiling of
// what any of its steps can cost), and open_session throws ShedError once
// the open population's summed cost would exceed
// DevicePoolConfig::session_budget_seconds. Closing (or dropping) the
// session releases its share.
//
// Caching: a step prepares its activations without the operand cache —
// each step quantizes its whole grown prefix with a fresh scale, so no
// prepared operand is ever presented twice — while its two stage plans are
// served from the shared plan cache, where a second session over the same
// mask finds them (serve/graph.hpp).
//
// Replay invariance: a step's GraphRequest is a pure function of the
// appended rows — placement, coalescing and retries never change values —
// so replaying the same token feed across pools of any size is bit-exact
// (tests/test_graph.cpp gates N ∈ {1, 2, 4}).

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "serve/graph.hpp"
#include "sparse/pattern.hpp"
#include "transformer/attention.hpp"

namespace magicube::serve {

class DevicePool;

/// Configuration of one token stream.
struct SessionConfig {
  /// Full-length L_max x L_max mask (square, rows a multiple of its
  /// vector_length). Each step serves its leading L x L re-slice.
  std::shared_ptr<const sparse::BlockPattern> mask;
  /// Head depth dk of the stream's Q/K/V rows (admission pricing needs it
  /// before the first step arrives).
  std::size_t dk = 64;
  transformer::AttentionScheme scheme =
      transformer::AttentionScheme::magicube_8b_8b;
  /// Dispatch priority of every step (Request::priority).
  int priority = 0;
  /// Per-step modeled deadline (Request::deadline_seconds); 0 = none.
  double step_deadline_seconds = 0.0;
};

/// The leading L x L re-slice of a session mask, cut on SR-BCRS block-row
/// boundaries (L must be a multiple of the mask's vector_length) with
/// columns clamped to the visible prefix. Causal masks lose nothing to the
/// clamp; a non-causal mask's future columns simply aren't visible yet.
/// Exposed for the conformance tests' composed references.
std::shared_ptr<const sparse::BlockPattern> slice_session_mask(
    const sparse::BlockPattern& full, std::size_t length);

/// A per-client token stream handle. Move-only; close() (or destruction)
/// releases the session's admission share. Must not outlive its pool. Not
/// thread-safe — one client drives one session (different sessions are
/// independent).
class TokenSession {
 public:
  TokenSession() = default;
  TokenSession(TokenSession&& o) noexcept;
  TokenSession& operator=(TokenSession&& o) noexcept;
  ~TokenSession();

  /// Appends `q_rows.rows()` new token rows (a multiple of the mask's
  /// vector length; Q/K/V row blocks must agree in shape) to the stream
  /// and submits one fused graph over the first L rows under the session's
  /// priority/deadline. Returns the step's future; the response's
  /// Response::graph->out is the L x dk attention output. Throws after
  /// close() or when growth would exceed the full mask.
  std::future<Response> step(const Matrix<float>& q_rows,
                             const Matrix<float>& k_rows,
                             const Matrix<float>& v_rows);

  std::uint64_t id() const { return id_; }
  /// Tokens appended so far (the L the next step would serve from).
  std::size_t length() const { return length_; }
  std::uint64_t steps() const { return steps_; }
  bool open() const { return pool_ != nullptr; }

  /// Releases the session's admission share. Idempotent; step() throws
  /// afterwards. In-flight step futures stay valid.
  void close();

  TokenSession(const TokenSession&) = delete;
  TokenSession& operator=(const TokenSession&) = delete;

 private:
  friend class DevicePool;
  TokenSession(DevicePool* pool, std::uint64_t id, SessionConfig cfg);

  DevicePool* pool_ = nullptr;
  std::uint64_t id_ = 0;
  SessionConfig cfg_;
  std::size_t dk_ = 0;       // pinned by the first step's row block
  std::size_t length_ = 0;   // tokens appended so far
  std::uint64_t steps_ = 0;
  // Grown Q/K/V state, row-major L x dk.
  std::vector<float> q_, k_, v_;
};

}  // namespace magicube::serve
