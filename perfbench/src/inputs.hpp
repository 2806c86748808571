#pragma once
// Seeded input generators of the workloads. Every input is a pure function
// of the run seed: the same seed gives bit-identical patterns and values
// (checked by selftest.cpp). Shapes and mixes are fixed; the seed moves
// only pattern placement and values, so figures from different seeds
// measure the same work.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "sparse/pattern.hpp"
#include "transformer/attention.hpp"

namespace perfbench {

using IntMatrix = std::shared_ptr<const magicube::Matrix<std::int32_t>>;
using PatternPtr = std::shared_ptr<const magicube::sparse::BlockPattern>;

inline constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

const char* precision_name(magicube::PrecisionPair p);

// ---- kernel_mix -----------------------------------------------------------

/// One (op, shape, precision, V, width) of the kernel mix.
struct MixEntry {
  std::string label;
  bool sddmm = false;
  magicube::PrecisionPair precision;
  int v = 8;
  double sparsity = 0.9;
  std::size_t width = 0;  // SpMM: N (RHS columns); SDDMM: K (depth)
  PatternPtr pattern;     // SpMM: M x K weight; SDDMM: L x L mask
  IntMatrix lhs;          // SpMM: dense M x K weight; SDDMM: L x K A
  IntMatrix rhs;          // K x N (SpMM) / K x L (SDDMM)
  std::uint64_t useful_ops = 0;
};

/// The 60-entry mix: SpMM over DLMC matrices at sparsity {0.7, 0.9, 0.98}
/// x V {2, 8} x {L8R8, L8R4, L4R4, L16R8} x N {128, 256}, and SDDMM over
/// attention masks at the same sparsities and V x {L8R8, L4R4}, K = 64.
/// `max_entries` truncates the list (self-tests).
std::vector<MixEntry> make_kernel_mix(std::uint64_t seed,
                                      std::size_t max_entries = kAll);

/// The sharded request of the traced run's serving probes: one SpMM over
/// a 65536 x 64, V = 2, 0.95-sparse L8R8 weight with N = 64. Its modeled
/// cost (~25 us on the A100 spec) exceeds the pool's 20 us default shard
/// threshold, so the pool row-shards it and merges the slices.
MixEntry make_giant(std::uint64_t seed);

// ---- attention_stream -----------------------------------------------------

inline constexpr std::size_t kStreamClients = 4;
inline constexpr std::size_t kStreamMaxLen = 512;
inline constexpr std::size_t kStreamDk = 64;
inline constexpr int kStreamV = 8;
inline constexpr double kStreamSparsity = 0.9;
/// Per-device operand-cache budget of the attention_stream pool (the plan
/// cache gets half).
inline constexpr std::size_t kStreamCacheBytes = 32ull << 20;

/// Round ids of the set-up passes; the timed window's rounds count from 0.
inline constexpr std::size_t kStreamWarmRoundBase = 1u << 21;

/// Scheme of client `c` (fixed: 8b_8b, 16b_8b, 8b_4b, 8b_8b).
magicube::transformer::AttentionScheme stream_scheme(std::size_t client);

/// The full L_max x L_max mask of client `c`'s `round`-th stream (every
/// stream gets a fresh mask, so every step's slice is a new plan).
PatternPtr make_stream_mask(std::uint64_t seed, std::size_t client,
                            std::size_t round);

/// The V new token rows (Q, K, V) of one step of one stream. Distinct
/// (client, round, step) give distinct rows for client < 256, round < 2^40
/// and step < 2^12.
struct StepRows {
  magicube::Matrix<float> q, k, v;
};
StepRows make_stream_rows(std::uint64_t seed, std::size_t client,
                          std::size_t round, std::size_t step);

/// Order-sensitive fingerprints of generated inputs (self-tests).
std::uint64_t fingerprint(const std::vector<MixEntry>& mix);
std::uint64_t fingerprint(const magicube::sparse::BlockPattern& p);
std::uint64_t fingerprint(const StepRows& rows);

}  // namespace perfbench
