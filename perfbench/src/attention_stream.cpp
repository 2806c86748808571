// attention_stream: closed-loop token streams. kStreamClients client
// threads (= the reference host's core count) each drive one TokenSession
// and send the next step only after the previous reply; each step appends
// one V-row block of Q/K/V, growing L by V up to kStreamMaxLen over a
// 0.9-sparse attention mask with dk = 64. When a stream reaches L_max it
// closes and a new stream starts with a fresh mask and fresh tokens, so
// every step is a new mask slice: this workload exercises the write side of
// the plan and operand caches, and is dominated by SDDMM plus
// softmax+quantize on the fused graph path.
//
// The rates are the window's completed steps over the CPU seconds the
// process spent in it: time a thread waited for a core, or its vCPU was
// stolen, is not in them. For every stream round one client is sampled and
// two of its steps are checked against transformer::attention_forward over
// serve::slice_session_mask, outside the timed window.

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/plan.hpp"
#include "inputs.hpp"
#include "serve/device_pool.hpp"
#include "serve/graph.hpp"
#include "serve/operand_cache.hpp"
#include "serve/session.hpp"
#include "simt/cost_model.hpp"
#include "transformer/attention.hpp"

namespace perfbench {

namespace mc = magicube;
namespace sv = magicube::serve;
namespace tf = magicube::transformer;

namespace {

constexpr int kSetupRepeats = 12;
constexpr std::size_t kSteps = kStreamMaxLen / kStreamV;
constexpr std::size_t kSamplesPerRound = 2;
constexpr double kTraceSliceSeconds = 0.25;

/// One served step the verification phase re-checks.
struct Sample {
  std::size_t client = 0, round = 0, step = 0;
  mc::Matrix<float> out;
  double latency_ms = 0.0;
  double modeled_s = 0.0;
};

struct StepTiming {
  double latency_ms = 0.0;
  double useful_ops = 0.0;
  bool traced = false;
};

struct ClientLog {
  std::vector<StepTiming> steps;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  std::size_t streams = 0;
};

/// The sampled client of round `round` and its sampled steps.
std::size_t sampled_client(std::uint64_t seed, std::size_t round) {
  return derive_seed(seed, (3ull << 40) | round) % kStreamClients;
}
bool sampled_step(std::uint64_t seed, std::size_t round, std::size_t step) {
  for (std::size_t i = 0; i < kSamplesPerRound; ++i) {
    if (derive_seed(seed, (4ull << 40) | (round << 4) | i) % kSteps == step) {
      return true;
    }
  }
  return false;
}

/// Nonzeros of the leading L x L re-slice (rows < L, columns < L).
std::size_t prefix_nnz(const mc::sparse::BlockPattern& m, std::size_t l) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < l / static_cast<std::size_t>(m.vector_length);
       ++r) {
    for (std::uint32_t i = m.row_ptr[r]; i < m.row_ptr[r + 1]; ++i) {
      n += m.col_idx[i] < l ? 1 : 0;
    }
  }
  return n * static_cast<std::size_t>(m.vector_length);
}

/// Runs one stream of client `c` from L = V to L_max (or until `stop`).
void run_stream(sv::DevicePool& pool, std::uint64_t seed, std::size_t c,
                std::size_t round, bool sample, Clock::time_point stop,
                Clock::time_point phase_start, bool trace, ClientLog& log) {
  const PatternPtr mask = make_stream_mask(seed, c, round);
  sv::SessionConfig cfg;
  cfg.mask = mask;
  cfg.dk = kStreamDk;
  cfg.scheme = stream_scheme(c);
  sv::TokenSession session;
  try {
    Span s("serve.open_session", round);
    session = pool.open_session(cfg);
  } catch (const std::exception& e) {
    log.errors.push_back(std::string("open_session: ") + e.what());
    return;
  }
  ++log.streams;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (Clock::now() >= stop) break;
    const StepRows rows = make_stream_rows(seed, c, round, step);
    const std::size_t l = (step + 1) * kStreamV;
    const double ops = 4.0 * static_cast<double>(prefix_nnz(*mask, l)) *
                       static_cast<double>(kStreamDk);
    const auto t0 = Clock::now();
    bool traced = false;
    if (trace) {
      traced = static_cast<long>(seconds_since(phase_start, t0) /
                                 kTraceSliceSeconds) % 2 == 1;
      Tracer::get().set_enabled(traced);
    }
    try {
      sv::Response resp;
      {
        std::future<sv::Response> fut;
        {
          Span sub("serve.submit", round * kSteps + step);
          fut = session.step(rows.q, rows.k, rows.v);
        }
        Span wait("serve.wait", round * kSteps + step);
        resp = fut.get();
      }
      const Clock::time_point done = Clock::now();
      const double ms = 1e3 * seconds_since(t0, done);
      if (!resp.graph || resp.graph->out.rows() != l) {
        log.errors.push_back("stream step returned no graph output");
        continue;
      }
      log.steps.push_back({ms, ops, traced});
      if (sample && sampled_step(seed, round, step)) {
        log.samples.push_back({c, round, step, resp.graph->out, ms,
                               resp.modeled_seconds});
      }
    } catch (const std::exception& e) {
      log.errors.push_back(std::string("stream step: ") + e.what());
    }
  }
  session.close();
}

mc::Scalar scalar_for(int bits) {
  return bits == 16 ? mc::Scalar::s16
                    : bits == 4 ? mc::Scalar::s4 : mc::Scalar::s8;
}

/// Q, K, V of a stream's first `step + 1` row blocks.
void grown_rows(std::uint64_t seed, std::size_t c, std::size_t round,
                std::size_t step, mc::Matrix<float>& q, mc::Matrix<float>& k,
                mc::Matrix<float>& v) {
  const std::size_t l = (step + 1) * kStreamV;
  q = mc::Matrix<float>(l, kStreamDk);
  k = mc::Matrix<float>(l, kStreamDk);
  v = mc::Matrix<float>(l, kStreamDk);
  for (std::size_t s = 0; s <= step; ++s) {
    const StepRows r = make_stream_rows(seed, c, round, s);
    for (std::size_t i = 0; i < kStreamV; ++i) {
      for (std::size_t j = 0; j < kStreamDk; ++j) {
        q(s * kStreamV + i, j) = r.q(i, j);
        k(s * kStreamV + i, j) = r.k(i, j);
        v(s * kStreamV + i, j) = r.v(i, j);
      }
    }
  }
}

}  // namespace

Outcome run_attention_stream(const Options& opt) {
  Outcome out;
  const Clock::time_point t_origin = Clock::now();
  sv::DevicePoolConfig pool_cfg;
  pool_cfg.device_count = 4;
  // Budgets small enough that both caches reach steady-state eviction
  // within the first seconds: at the 256 MiB defaults they would still be
  // filling when the window ends, and peak RSS would track how many
  // streams the run happened to complete.
  pool_cfg.cache_capacity_bytes = kStreamCacheBytes;
  pool_cfg.plan_cache_capacity_bytes = kStreamCacheBytes / 2;

  // Set-up: pool start plus one warm round of every client, repeated half
  // before the window and, in the untraced run, half after it, so the
  // median samples the host at both ends of the run. The last pool set up
  // before the window serves it.
  std::unique_ptr<sv::DevicePool> pool;
  std::vector<double> setup_cpu_s;
  const auto set_up = [&](int rep) {
    pool.reset();
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    Tracer::get().set_enabled(opt.trace);
    {
      Span s("serve.pool_start");
      pool = std::make_unique<sv::DevicePool>(pool_cfg);
    }
    Tracer::get().set_enabled(false);
    std::vector<ClientLog> logs(kStreamClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kStreamClients; ++c) {
      clients.emplace_back([&, c] {
        run_stream(*pool, opt.seed, c, kStreamWarmRoundBase + rep, false,
                   Clock::time_point::max(), t0, false, logs[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
    for (const ClientLog& l : logs) {
      out.attempted += l.steps.size() + l.errors.size();
      for (const std::string& e : l.errors) out.mismatch(e);
    }
  };
  for (int rep = 0; rep < kSetupRepeats / 2; ++rep) set_up(rep);

  // Main phase: every client in its own closed loop.
  std::vector<ClientLog> logs(kStreamClients);
  const double window_cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kStreamClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; Clock::now() < stop; ++r) {
        run_stream(*pool, opt.seed, c, r, sampled_client(opt.seed, r) == c,
                   stop, start, opt.trace, logs[c]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Tracer::get().set_enabled(false);
  const double window_wall_s = seconds_since(start, Clock::now());
  const double window_cpu_s = process_cpu_seconds() - window_cpu0;

  std::vector<double> lat, lat_on, lat_off;
  std::vector<Sample> samples;
  std::size_t streams = 0;
  double steps = 0.0, useful_ops = 0.0;
  for (ClientLog& l : logs) {
    streams += l.streams;
    out.attempted += l.steps.size() + l.errors.size();
    for (const std::string& e : l.errors) out.mismatch(e);
    for (Sample& s : l.samples) samples.push_back(std::move(s));
    for (const StepTiming& s : l.steps) {
      lat.push_back(s.latency_ms);
      (s.traced ? lat_on : lat_off).push_back(s.latency_ms);
      steps += 1.0;
      useful_ops += s.useful_ops;
    }
  }
  out.note("attention_stream: " + std::to_string(streams) + " streams, " +
           std::to_string(lat.size()) + " steps with " +
           std::to_string(kStreamClients) + " clients, " +
           std::to_string(samples.size()) + " sampled steps checked");

  // Correctness: every sampled step against the one-shot reference.
  Tracer::get().set_enabled(opt.trace);
  struct StageTimes {
    double sddmm = 0, softmax = 0, spmm = 0, output = 0;
  };
  std::vector<StageTimes> stage_times;
  std::vector<double> graph_ratio;
  double modeled_sum = 0.0, staged_sum = 0.0;
  for (const Sample& s : samples) {
    mc::Matrix<float> q, k, v;
    grown_rows(opt.seed, s.client, s.round, s.step, q, k, v);
    const std::size_t l = q.rows();
    const PatternPtr full = make_stream_mask(opt.seed, s.client, s.round);
    PatternPtr sliced;
    {
      Span sp("serve.slice_mask", s.step);
      sliced = sv::slice_session_mask(*full, l);
    }
    if (sliced->nnz() != prefix_nnz(*full, l)) {
      out.mismatch("useful-op count disagrees with slice_session_mask");
    }
    mc::Matrix<float> ref;
    {
      Span sp("transformer.forward", s.step);
      ref = tf::attention_forward(q, k, v, *sliced, stream_scheme(s.client));
    }
    ++out.attempted;
    if (!(ref == s.out)) {
      out.mismatch("stream step " + std::to_string(s.step) + " of client " +
                   std::to_string(s.client) + " differs from attention_forward");
    }
    if (!opt.trace) continue;
    // Traced run: the same step through the public stage functions with
    // bench-owned caches; the output must equal the served one.
    sv::OperandCache operands, plans;
    tf::AttentionArena arena;
    arena.scheme = stream_scheme(s.client);
    arena.mask = sliced;
    StageTimes t;
    auto timed = [](double& acc, const char* name, auto&& fn) {
      Span sp(name);
      const auto t0 = Clock::now();
      fn();
      acc = 1e6 * seconds_since(t0, Clock::now());
    };
    timed(t.sddmm, "transformer.sddmm_stage", [&] {
      tf::attention_stage_sddmm(arena, q, k, v, &operands, &plans);
    });
    timed(t.softmax, "transformer.softmax_quantize",
          [&] { tf::attention_stage_softmax_quantize(arena); });
    timed(t.spmm, "transformer.spmm_stage", [&] {
      tf::attention_stage_spmm(arena, &operands, &plans, /*cache_lhs=*/false);
    });
    mc::Matrix<float> staged;
    timed(t.output, "transformer.output",
          [&] { staged = tf::attention_stage_output(arena); });
    ++out.attempted;
    if (!(staged == s.out)) {
      out.mismatch("staged attention differs from the served output");
    }
    const double stages_us = t.sddmm + t.softmax + t.spmm + t.output;
    stage_times.push_back(t);
    graph_ratio.push_back(1e3 * s.latency_ms / stages_us);
    modeled_sum += s.modeled_s;
    staged_sum += 1e-6 * stages_us;
  }

  if (!opt.trace) {
    for (int rep = kSetupRepeats / 2; rep < kSetupRepeats; ++rep) set_up(rep);
    out.add("setup_s", median(setup_cpu_s), "s");
    out.add("ops_per_cpu_s", steps / window_cpu_s, "1/s");
    out.add("useful_gops_per_cpu_s", useful_ops / window_cpu_s / 1e9, "GOPS");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    report_wall_figures(out, steps / window_wall_s, lat,
                        "attention_stream steps");
    out.note("set-up repeats " + std::to_string(setup_cpu_s.size()) + "; " +
             describe_cpu(window_cpu_s, window_wall_s));
    return out;
  }

  // ---- traced run: re-plan every step of one stream from outside ----
  {
    const PatternPtr full = make_stream_mask(opt.seed, 0, 0);
    const tf::AttentionScheme scheme = stream_scheme(0);
    const mc::Scalar qkv = scalar_for(tf::qkv_bits(scheme));
    mc::core::SddmmConfig scfg;
    scfg.precision = {qkv, qkv};
    mc::core::SpmmConfig pcfg;
    pcfg.precision = {scalar_for(tf::softmax_bits(scheme)), qkv};
    for (std::size_t step = 0; step < kSteps; ++step) {
      PatternPtr sliced;
      {
        Span sp("serve.slice_mask", step);
        sliced = sv::slice_session_mask(*full, (step + 1) * kStreamV);
      }
      Span sp("core.plan", step);
      (void)mc::core::build_sddmm_plan(*sliced, kStreamDk, scfg);
      (void)mc::core::build_spmm_plan(*sliced, kStreamDk, pcfg);
    }
  }
  add_pool_metrics(out, *pool);
  Tracer::get().set_enabled(false);

  const auto& tr = Tracer::get();
  double plan_s = 0, plan_n = 0;
  for (const auto& [id, s] : tr.durations_of("core.plan")) {
    plan_s += s;
    ++plan_n;
  }
  out.add("core.plan_ms", 1e3 * plan_s, "ms");
  out.add("core.plan_calls", 2 * plan_n, "count");
  std::vector<double> submit_us;
  for (const auto& [id, s] : tr.durations_of("serve.submit")) {
    submit_us.push_back(1e6 * s);
  }
  out.add("serve.submit_us_p50", percentile(submit_us, 50.0), "us");
  out.add("serve.submit_us_p99", percentile(submit_us, 99.0), "us");
  out.add("serve.graph_overhead_ratio", median(graph_ratio), "ratio");
  std::vector<double> sd, sm, sp, so;
  for (const StageTimes& t : stage_times) {
    sd.push_back(t.sddmm);
    sm.push_back(t.softmax);
    sp.push_back(t.spmm);
    so.push_back(t.output);
  }
  out.add("transformer.sddmm_stage_us", median(sd), "us");
  out.add("transformer.softmax_quantize_us", median(sm), "us");
  out.add("transformer.spmm_stage_us", median(sp), "us");
  out.add("transformer.output_us", median(so), "us");
  out.add("simt.modeled_over_measured", modeled_sum / staged_sum, "ratio");
  out.add("trace.overhead_pct",
          100.0 * (median(lat_on) / median(lat_off) - 1.0), "%");
  add_self_time_metrics(out);
  write_spans(opt, out, t_origin);
  return out;
}

}  // namespace perfbench
