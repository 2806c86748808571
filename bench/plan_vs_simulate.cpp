// Plan replay vs lane-accurate simulation: wall-clock comparison of the
// block-panel replay (ExecMode::fast, the one fast path) and
// ExecMode::simulate, plus the one-time plan-build cost, on the Fig. 12
// SpMM shapes (uniform DLMC-style patterns, every precision pair) and the
// Fig. 13 SDDMM pairs.
//
// Bit-exactness and counter equality of the replay against simulate are
// re-asserted inline on every shape before timing (a bench that measured a
// wrong kernel would be worse than no bench). The enforced acceptance gate
// compares the aggregate SpMM panel-vs-simulate speedup against the
// *recorded baseline* JSON in bench/baselines/ (bars rise by re-recording,
// never by editing code). The binary exits nonzero on a miss, so the
// bench-smoke CTest registration turns a fast-path regression into a red
// build. Sanitizer builds report without enforcing (distorted timings).
//
// Timing: every (shape, engine) pair is timed in windows calibrated to at
// least 5 ms of calls (the smoke shapes replay in ~0.05 ms, so a fixed
// call count made a window too short to rise above scheduler noise), for
// 5 rounds with the engines interleaved per round; the per-call median is
// what the gates compare, and the coefficient of variation of each
// engine's rounds is reported beside it.
//
// Like serve_throughput, --smoke is peeled off argv and the rest forwards
// to google-benchmark (--benchmark_out, ...); CI uploads the JSON so the
// BENCH_* perf trajectory populates — once per MAGICUBE_SIMD leg. The
// BM_ReplayComparison entry of that JSON carries the table's aggregates:
// the gated speedup, per-engine CV, aggregate and per-bucket panel GOPS and
// the dispatched panel-kernel flavor.
//
// A second table reports, ungated, what a fresh operand costs next to the
// replay that consumes it: prepare_spmm_lhs, prepare_spmm_rhs and
// build_spmm_plan against one replay, per call, for L8-R8, L4-R4 and
// L16-R8 on the full 512 x 512 shape (also under --smoke: preparation
// cost scales with the operands). Its figures go to the JSON as
// BM_PreparationVsReplay.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"
#include "core/plan.hpp"
#include "simt/tensor_core.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MAGICUBE_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MAGICUBE_BENCH_SANITIZED 1
#endif
#endif
#ifndef MAGICUBE_BENCH_SANITIZED
#define MAGICUBE_BENCH_SANITIZED 0
#endif

#ifndef MAGICUBE_BENCH_BASELINE_DIR
#define MAGICUBE_BENCH_BASELINE_DIR "bench/baselines"
#endif

namespace {

using namespace magicube;
using Clock = std::chrono::steady_clock;

struct Shape {
  std::size_t m = 512, k = 512, n = 512;
  double sparsity = 0.9;
  int v = 8;
};

Shape shape_for(bool smoke) {
  Shape s;
  if (smoke) {
    s.m = 128;
    s.k = 128;
    s.n = 128;
  }
  return s;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMinWindowSeconds = 5e-3;
constexpr int kTimingRounds = 5;

/// Per-call seconds of one engine across the timing rounds.
struct Samples {
  int calls = 1;  // calls per window, calibrated to >= kMinWindowSeconds
  std::vector<double> per_call;

  double median() const {
    std::vector<double> v = per_call;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }
  /// Coefficient of variation (stddev / mean) of the rounds.
  double cv() const {
    double mean = 0;
    for (const double x : per_call) mean += x;
    mean /= static_cast<double>(per_call.size());
    double var = 0;
    for (const double x : per_call) var += (x - mean) * (x - mean);
    var /= static_cast<double>(per_call.size());
    return mean > 0 ? std::sqrt(var) / mean : 0;
  }
};

/// Doubles the window's call count until one window takes at least
/// kMinWindowSeconds (the calls double as warm-up).
template <typename Fn>
Samples calibrate(Fn&& fn) {
  Samples s;
  for (;;) {
    const auto start = Clock::now();
    for (int i = 0; i < s.calls; ++i) fn();
    if (seconds_since(start) >= kMinWindowSeconds) return s;
    s.calls *= 2;
  }
}

/// Times one calibrated window and appends its per-call seconds.
template <typename Fn>
void time_window(Samples& s, Fn&& fn) {
  const auto start = Clock::now();
  for (int i = 0; i < s.calls; ++i) fn();
  s.per_call.push_back(seconds_since(start) / s.calls);
}

/// Calibrates each engine, then runs kTimingRounds rounds with the engines
/// interleaved, one warm window per engine per round — steady-state is what
/// plan replay looks like in serving traffic, and the median over rounds
/// keeps the estimate robust when the bench shares the machine (CTest runs
/// the smoke registration alongside other tests).
std::vector<Samples> time_interleaved(
    const std::vector<std::function<void()>>& engines) {
  std::vector<Samples> samples;
  for (const auto& fn : engines) samples.push_back(calibrate(fn));
  for (int round = 0; round < kTimingRounds; ++round) {
    for (std::size_t i = 0; i < engines.size(); ++i) {
      time_window(samples[i], engines[i]);
    }
  }
  return samples;
}

struct OpTimings {
  Samples simulate, panel;
  double plan_build_s = 0;
  std::uint64_t useful_ops = 0;
  /// Plan-recorded bucket census (which specialized kernel each block row /
  /// block replays through) — surfaced in the table and the JSON artifact.
  std::array<std::uint64_t, simt::kSpmmBucketKinds> spmm_buckets{};
  std::array<std::uint64_t, simt::kSddmmBucketKinds> sddmm_buckets{};
};

OpTimings time_spmm(const Shape& shape, PrecisionPair prec,
                    std::uint64_t seed) {
  Rng rng(seed);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, prec.lhs, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, prec.rhs, rng);

  core::SpmmConfig cfg;
  cfg.precision = prec;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, prec,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, prec);

  OpTimings t;
  auto start = Clock::now();
  const core::SpmmPlanHandle plan = core::build_spmm_plan(a, shape.n, cfg);
  t.plan_build_s = seconds_since(start);
  t.spmm_buckets = plan->run.counters.spmm_bucket_blocks;

  // Correctness anchor before timing: the replay bit-exact with simulate,
  // counters equal.
  core::SpmmConfig sim_cfg = cfg, panel_cfg = cfg;
  sim_cfg.mode = core::ExecMode::simulate;
  panel_cfg.mode = core::ExecMode::fast;
  const core::SpmmResult sim = core::spmm(a, b, sim_cfg);
  const core::SpmmResult panel = core::spmm(a, b, panel_cfg, *plan);
  MAGICUBE_CHECK_MSG(panel.c == sim.c, "panel/simulate result mismatch");
  MAGICUBE_CHECK_MSG(panel.run.counters == sim.run.counters,
                     "fast/simulate counter mismatch");

  const auto s = time_interleaved(
      {[&] { benchmark::DoNotOptimize(core::spmm(a, b, sim_cfg)); },
       [&] { benchmark::DoNotOptimize(core::spmm(a, b, panel_cfg, *plan)); }});
  t.simulate = s[0];
  t.panel = s[1];
  t.useful_ops = core::spmm_useful_ops(pattern, shape.n);
  return t;
}

OpTimings time_sddmm(const Shape& shape, PrecisionPair prec,
                     std::uint64_t seed) {
  Rng rng(seed);
  // K must satisfy the SDDMM alignment on both datapaths.
  const std::size_t k = shape.k;
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.n, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, k, prec.lhs, rng);
  const auto b_vals = core::random_values(k, shape.n, prec.rhs, rng);

  core::SddmmConfig cfg;
  cfg.precision = prec;
  const int chunk = core::rhs_chunk_bits(prec);
  const auto a = core::prepare_dense(a_vals, prec.lhs, true, chunk);
  const auto b = core::prepare_dense(b_vals, prec.rhs, false, chunk);

  OpTimings t;
  auto start = Clock::now();
  const core::SddmmPlanHandle plan = core::build_sddmm_plan(pattern, k, cfg);
  t.plan_build_s = seconds_since(start);
  t.sddmm_buckets = plan->run.counters.sddmm_bucket_blocks;

  core::SddmmConfig sim_cfg = cfg, panel_cfg = cfg;
  sim_cfg.mode = core::ExecMode::simulate;
  panel_cfg.mode = core::ExecMode::fast;
  const core::SddmmResult sim = core::sddmm(a, b, pattern, sim_cfg);
  const core::SddmmResult panel = core::sddmm(a, b, pattern, panel_cfg, *plan);
  MAGICUBE_CHECK_MSG(panel.c.values == sim.c.values,
                     "panel/simulate result mismatch");
  MAGICUBE_CHECK_MSG(panel.run.counters == sim.run.counters,
                     "fast/simulate counter mismatch");

  const auto s = time_interleaved(
      {[&] { benchmark::DoNotOptimize(core::sddmm(a, b, pattern, sim_cfg)); },
       [&] {
         benchmark::DoNotOptimize(
             core::sddmm(a, b, pattern, panel_cfg, *plan));
       }});
  t.simulate = s[0];
  t.panel = s[1];
  t.useful_ops = core::sddmm_useful_ops(pattern, k);
  return t;
}

/// Preparation vs replay of one SpMM pair: per-call medians of the three
/// set-up steps a fresh operand pays and of the replay that consumes it.
struct PrepTimings {
  PrecisionPair precision;
  double lhs_s = 0, rhs_s = 0, plan_s = 0, replay_s = 0;
};

PrepTimings time_preparation(PrecisionPair prec, std::uint64_t seed) {
  const Shape shape = shape_for(/*smoke=*/false);
  Rng rng(seed);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, prec.lhs, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, prec.rhs, rng);
  core::SpmmConfig cfg;
  cfg.precision = prec;
  cfg.mode = core::ExecMode::fast;
  const bool shuffle = core::needs_shuffle(cfg);
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, prec, shuffle);
  const auto b = core::prepare_spmm_rhs(b_vals, prec);
  const auto plan = core::build_spmm_plan(a, shape.n, cfg);

  const auto s = time_interleaved(
      {[&] {
         benchmark::DoNotOptimize(
             core::prepare_spmm_lhs(pattern, a_vals, prec, shuffle));
       },
       [&] { benchmark::DoNotOptimize(core::prepare_spmm_rhs(b_vals, prec)); },
       [&] {
         benchmark::DoNotOptimize(core::build_spmm_plan(a, shape.n, cfg));
       },
       [&] { benchmark::DoNotOptimize(core::spmm(a, b, cfg, *plan)); }});
  return {prec, s[0].median(), s[1].median(), s[2].median(), s[3].median()};
}

std::vector<PrepTimings> g_preparation;

/// The preparation-vs-replay table: reported figures, not gated. Always on
/// the full shape, since preparation cost scales with the operand sizes.
void preparation_table() {
  const Shape shape = shape_for(/*smoke=*/false);
  std::printf("== preparation vs replay: SpMM M=%zu K=%zu N=%zu V=%d, "
              "sparsity %.2f (reported, not gated) ==\n",
              shape.m, shape.k, shape.n, shape.v, shape.sparsity);
  bench::Table table({"precision", "prepare_spmm_lhs (ms)",
                      "prepare_spmm_rhs (ms)", "build_spmm_plan (ms)",
                      "replay (ms)", "prepare / replay"});
  for (const PrecisionPair prec :
       {precision::L8R8, precision::L4R4, precision::L16R8}) {
    const PrepTimings t = time_preparation(
        prec, 0x9e9 + static_cast<unsigned>(bits_of(prec.lhs)));
    g_preparation.push_back(t);
    table.add_row({to_string(prec), bench::fmt(t.lhs_s * 1e3, 3),
                   bench::fmt(t.rhs_s * 1e3, 3), bench::fmt(t.plan_s * 1e3, 3),
                   bench::fmt(t.replay_s * 1e3, 3),
                   bench::fmt((t.lhs_s + t.rhs_s) / t.replay_s, 2) + "x"});
  }
  table.print();
  std::printf("\n");
}

bool g_smoke = false;

/// Aggregates of the comparison table, exported through the
/// BM_ReplayComparison entry of the google-benchmark JSON.
struct Summary {
  double vs_simulate = 0;
  double max_cv_simulate = 0, max_cv_panel = 0;
  /// Useful GOPS of the panel replay over every shape (SpMM and SDDMM):
  /// total useful ops / total panel seconds.
  double panel_ops = 0, panel_seconds = 0;
  /// Useful GOPS of the panel replay per dominant bucket (the bucket most
  /// of a shape's block rows / blocks replay through).
  std::map<std::string, std::pair<double, double>> bucket_ops_seconds;

  double panel_gops() const {
    return panel_seconds > 0 ? panel_ops / panel_seconds / 1e9 : 0;
  }
};
Summary g_summary;

template <std::size_t N>
std::size_t dominant(const std::array<std::uint64_t, N>& census) {
  return static_cast<std::size_t>(
      std::max_element(census.begin(), census.end()) - census.begin());
}

void add_row(bench::Table& table, const char* op, PrecisionPair prec,
             const OpTimings& t, const std::string& bucket) {
  const double sim = t.simulate.median(), panel = t.panel.median();
  table.add_row({op, to_string(prec), bench::fmt(sim * 1e3, 3),
                 bench::fmt(panel * 1e3, 3), bench::fmt(sim / panel, 2) + "x",
                 bench::fmt(100 * t.panel.cv(), 1) + "%",
                 bench::fmt(static_cast<double>(t.useful_ops) / panel / 1e9, 2),
                 bucket, bench::fmt(t.plan_build_s * 1e3, 3)});
  g_summary.max_cv_simulate = std::max(g_summary.max_cv_simulate,
                                       t.simulate.cv());
  g_summary.max_cv_panel = std::max(g_summary.max_cv_panel, t.panel.cv());
  g_summary.panel_ops += static_cast<double>(t.useful_ops);
  g_summary.panel_seconds += panel;
  auto& [ops, seconds] = g_summary.bucket_ops_seconds[std::string(op) + "_" +
                                                      bucket];
  ops += static_cast<double>(t.useful_ops);
  seconds += panel;
}

bool comparison_table(bool smoke) {
  const Shape shape = shape_for(smoke);
  std::printf("== plan replay: panel (ExecMode::fast) vs ExecMode::simulate"
              "%s (SIMD micro-kernel: %s; panel kernel flavor: %s) ==\n",
              smoke ? " [smoke]" : "",
              simt::simd_enabled() ? "on" : "off (scalar fallback)",
              simt::panel_isa_name());
  std::printf("SpMM shapes (Fig. 12): M=%zu K=%zu N=%zu V=%d, sparsity "
              "%.2f; SDDMM (Fig. 13) on the M x N pattern at K=%zu\n",
              shape.m, shape.k, shape.n, shape.v, shape.sparsity, shape.k);
  std::printf("per-call medians of %d rounds, each a window of >= %.0f ms "
              "of calls; cv = coefficient of variation of the panel "
              "rounds; GOPS = useful ops / panel time\n\n",
              kTimingRounds, kMinWindowSeconds * 1e3);

  bench::Table table({"op", "precision", "simulate (ms)", "panel (ms)",
                      "panel vs sim", "panel cv", "panel GOPS", "bucket",
                      "plan build (ms)"});
  double sim_total = 0, panel_total = 0;
  std::array<std::uint64_t, simt::kSpmmBucketKinds> spmm_buckets{};
  std::array<std::uint64_t, simt::kSddmmBucketKinds> sddmm_buckets{};

  const PrecisionPair spmm_pairs[] = {
      precision::L16R16, precision::L16R8, precision::L8R8,
      precision::L16R4,  precision::L12R4, precision::L8R4,
      precision::L4R4};
  for (const PrecisionPair prec : spmm_pairs) {
    const OpTimings t =
        time_spmm(shape, prec, 0x916 + bits_of(prec.lhs) * 8u +
                                   static_cast<unsigned>(bits_of(prec.rhs)));
    sim_total += t.simulate.median();
    panel_total += t.panel.median();
    for (std::size_t i = 0; i < spmm_buckets.size(); ++i) {
      spmm_buckets[i] += t.spmm_buckets[i];
    }
    add_row(table, "spmm", prec, t,
            core::to_string(
                static_cast<core::PanelKernelId>(dominant(t.spmm_buckets))));
  }

  const PrecisionPair sddmm_pairs[] = {precision::L8R8, precision::L4R4,
                                       precision::L16R16};
  for (const PrecisionPair prec : sddmm_pairs) {
    const OpTimings t = time_sddmm(shape, prec, 0x5dd1 + bits_of(prec.lhs));
    for (std::size_t i = 0; i < sddmm_buckets.size(); ++i) {
      sddmm_buckets[i] += t.sddmm_buckets[i];
    }
    add_row(table, "sddmm", prec, t,
            core::to_string(
                static_cast<core::SddmmKernelId>(dominant(t.sddmm_buckets))));
  }
  table.print();

  // Bucket census across all shapes: which specialized replay kernel the
  // plans selected per block row (SpMM) / block (SDDMM).
  std::printf("\nspmm bucket census (block rows x column blocks):");
  for (std::size_t i = 0; i < spmm_buckets.size(); ++i) {
    std::printf(" %s=%llu",
                core::to_string(static_cast<core::PanelKernelId>(i)),
                static_cast<unsigned long long>(spmm_buckets[i]));
  }
  std::printf("\nsddmm bucket census (blocks):");
  for (std::size_t i = 0; i < sddmm_buckets.size(); ++i) {
    std::printf(" %s=%llu",
                core::to_string(static_cast<core::SddmmKernelId>(i)),
                static_cast<unsigned long long>(sddmm_buckets[i]));
  }
  std::printf("\npanel GOPS per dominant bucket:");
  for (const auto& [bucket, ops_s] : g_summary.bucket_ops_seconds) {
    std::printf(" %s=%.2f", bucket.c_str(), ops_s.first / ops_s.second / 1e9);
  }
  std::printf("\naggregate panel GOPS over every shape: %.2f (useful ops / "
              "panel time, on this host)",
              g_summary.panel_gops());
  std::printf("\nmax cv over shapes: simulate %.1f%%, panel %.1f%%\n",
              100 * g_summary.max_cv_simulate, 100 * g_summary.max_cv_panel);

  const double vs_sim = sim_total / panel_total;
  g_summary.vs_simulate = vs_sim;

  const bench::Baselines bars = bench::load_baselines(
      MAGICUBE_BENCH_BASELINE_DIR, "plan_vs_simulate.json");
  // Bars are recorded per shape set and per MAGICUBE_SIMD build flavor (the
  // scalar fallback is a correctness kernel first; its bar only guards
  // against pathological regressions).
  const std::string prefix = std::string(smoke ? "smoke_" : "full_") +
                             (simt::simd_enabled() ? "simd_" : "scalar_");
  bool bars_ok = bars.loaded;
  double sim_bar = 0;
  if (bars.loaded) {
    sim_bar = bars.get(prefix + "spmm_panel_vs_simulate_min", &bars_ok);
  }

  bool gate = true;
  if (!bars_ok) {
    std::printf("\ncannot read recorded baselines from %s — gate FAILED\n",
                bars.path.c_str());
    gate = false;
  } else {
    gate = vs_sim >= sim_bar;
    std::printf("\naggregate SpMM panel-vs-simulate speedup: %.2fx "
                "(recorded bar: >= %.2fx) — %s\n",
                vs_sim, sim_bar, gate ? "PASS" : "FAIL");
    std::printf("(bars recorded in %s; raise them by re-recording, not by "
                "editing the gate)%s\n\n",
                bars.path.c_str(),
                MAGICUBE_BENCH_SANITIZED
                    ? " [sanitized build: gates reported, not enforced]"
                    : "");
  }
  return gate || MAGICUBE_BENCH_SANITIZED;
}

// google-benchmark cases (JSON-artifact surface), smoke-sized in CI.
void BM_SpmmSimulate(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SpmmConfig cfg;
  cfg.mode = core::ExecMode::simulate;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, cfg.precision);
  for (auto _ : state) benchmark::DoNotOptimize(core::spmm(a, b, cfg));
}
BENCHMARK(BM_SpmmSimulate)->Unit(benchmark::kMillisecond);

void BM_SpmmPanelReplay(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SpmmConfig cfg;
  cfg.mode = core::ExecMode::fast;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, cfg.precision);
  const auto plan = core::build_spmm_plan(a, shape.n, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::spmm(a, b, cfg, *plan));
  }
  // Per-bucket kernel-id census into the JSON artifact (BENCH_* trajectory).
  for (std::size_t i = 0; i < simt::kSpmmBucketKinds; ++i) {
    state.counters[std::string("bucket_") +
                   core::to_string(static_cast<core::PanelKernelId>(i))] =
        static_cast<double>(plan->run.counters.spmm_bucket_blocks[i]);
  }
}
BENCHMARK(BM_SpmmPanelReplay)->Unit(benchmark::kMillisecond);

void BM_SpmmPlanBuild(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  core::SpmmConfig cfg;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_spmm_plan(a, shape.n, cfg));
  }
}
BENCHMARK(BM_SpmmPlanBuild)->Unit(benchmark::kMillisecond);

void BM_SddmmPanelReplay(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(2);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.n, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SddmmConfig cfg;
  cfg.mode = core::ExecMode::fast;
  const auto a = core::prepare_dense(a_vals, Scalar::s8, true, 8);
  const auto b = core::prepare_dense(b_vals, Scalar::s8, false, 8);
  const auto plan = core::build_sddmm_plan(pattern, shape.k, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sddmm(a, b, pattern, cfg, *plan));
  }
  for (std::size_t i = 0; i < simt::kSddmmBucketKinds; ++i) {
    state.counters[std::string("bucket_") +
                   core::to_string(static_cast<core::SddmmKernelId>(i))] =
        static_cast<double>(plan->run.counters.sddmm_bucket_blocks[i]);
  }
}
BENCHMARK(BM_SddmmPanelReplay)->Unit(benchmark::kMillisecond);

// The comparison table's aggregates as one JSON entry: the gated speedup,
// the worst per-engine round-to-round CV, aggregate and per-bucket panel
// GOPS, and the dispatched panel-kernel flavor (as a context string).
void BM_ReplayComparison(benchmark::State& state) {
  for (auto _ : state) {
    double vs_simulate = g_summary.vs_simulate;
    benchmark::DoNotOptimize(vs_simulate);
  }
  state.counters["spmm_panel_vs_simulate"] = g_summary.vs_simulate;
  state.counters["cv_max_simulate"] = g_summary.max_cv_simulate;
  state.counters["cv_max_panel"] = g_summary.max_cv_panel;
  state.counters["gops_panel"] = g_summary.panel_gops();
  for (const auto& [bucket, ops_s] : g_summary.bucket_ops_seconds) {
    state.counters["gops_" + bucket] = ops_s.first / ops_s.second / 1e9;
  }
}
BENCHMARK(BM_ReplayComparison)->Iterations(1);

// The preparation-vs-replay table as one JSON entry (milliseconds per call,
// per precision pair).
void BM_PreparationVsReplay(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(g_preparation.size());
  for (const PrepTimings& t : g_preparation) {
    const std::string pair = to_string(t.precision);
    state.counters[pair + "_prepare_spmm_lhs_ms"] = t.lhs_s * 1e3;
    state.counters[pair + "_prepare_spmm_rhs_ms"] = t.rhs_s * 1e3;
    state.counters[pair + "_build_spmm_plan_ms"] = t.plan_s * 1e3;
    state.counters[pair + "_replay_ms"] = t.replay_s * 1e3;
  }
}
BENCHMARK(BM_PreparationVsReplay)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  // Forwards unrecognized flags (--benchmark_out, ...) to google-benchmark,
  // so it peels --smoke off itself instead of using bench::parse_args.
  std::vector<char*> fwd = {argv[0]};
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      if (std::strcmp(argv[i], "--help") == 0 ||
          std::strcmp(argv[i], "-h") == 0) {
        help = true;
      }
      fwd.push_back(argv[i]);
    }
  }
  bool gate_passed = true;
  if (help) {
    std::printf("usage: %s [--smoke] [--benchmark_* flags]\n"
                "  --smoke  tiny shapes, a few seconds\n"
                "  other flags forward to google-benchmark (below)\n\n",
                argv[0]);
  } else {
    gate_passed = comparison_table(g_smoke);
    preparation_table();
  }
  int bench_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&bench_argc, fwd.data());
  benchmark::AddCustomContext("panel_isa", simt::panel_isa_name());
  benchmark::RunSpecifiedBenchmarks();
  return gate_passed ? 0 : 1;
}
