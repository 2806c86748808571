// kernel_mix: closed loops that call core::spmm / core::sddmm directly
// with prebuilt plans over the 60-entry DLMC mix. The serving layer is
// bypassed, so this workload moves with replay-kernel changes and should not
// move with serving changes.
//
// kCallers callers, one per core of the reference host, each run as one
// ThreadPool task, so the library's parallel_for runs inline and every call
// is one core's work. Each caller calls every entry once per round, in its
// own seeded order, back to back. The rates are the window's calls over the
// CPU seconds the process spent in it: time a caller waited for a core, or
// its vCPU was stolen, is not in them, and the four callers average over
// four cores of a shared host. Set-up runs in batches of kCallers at once,
// half before the window and half after it. In the traced run, tracing is
// on in alternate 250 ms slices, and the traced calls' median CPU time over
// the untraced calls' is the tracing overhead; the serving probes
// (serve_probe.cpp) follow.

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/operands.hpp"
#include "core/reference.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "inputs.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_spec.hpp"

namespace perfbench {

namespace mc = magicube;

namespace {

constexpr std::size_t kCallers = 4;
constexpr int kSetupBatches = 12;
constexpr int kNestedPasses = 3;
constexpr double kTraceSliceSeconds = 0.25;

/// The prepared, planned form of one mix entry (what set-up builds).
struct Prepared {
  mc::core::SparseOperandHandle a;   // SpMM LHS
  mc::core::DenseOperandHandle da;   // SDDMM A
  mc::core::DenseOperandHandle b;    // RHS
  mc::core::SpmmPlanHandle spmm_plan;
  mc::core::SddmmPlanHandle sddmm_plan;
  std::size_t bytes = 0;             // operands + plan footprint
};

mc::core::SpmmConfig spmm_cfg(const MixEntry& e) {
  mc::core::SpmmConfig cfg;
  cfg.precision = e.precision;
  return cfg;
}

mc::core::SddmmConfig sddmm_cfg(const MixEntry& e) {
  mc::core::SddmmConfig cfg;
  cfg.precision = e.precision;
  return cfg;
}

Prepared prepare(const MixEntry& e, std::uint64_t id) {
  Prepared p;
  if (!e.sddmm) {
    const auto cfg = spmm_cfg(e);
    {
      Span s("core.prepare", id);
      p.a = mc::core::prepare_spmm_lhs_shared(*e.pattern, *e.lhs, e.precision,
                                              mc::core::needs_shuffle(cfg));
      p.b = mc::core::prepare_spmm_rhs_shared(*e.rhs, e.precision);
    }
    Span s("core.plan", id);
    p.spmm_plan = mc::core::build_spmm_plan(*p.a, e.width, cfg);
    p.bytes = p.a->footprint_bytes() + p.b->footprint_bytes() +
              p.spmm_plan->footprint_bytes();
  } else {
    const int chunk = mc::core::chunk_bits(e.precision);
    {
      Span s("core.prepare", id);
      p.da = mc::core::prepare_dense_shared(*e.lhs, e.precision.lhs,
                                            /*row_major=*/true, chunk);
      p.b = mc::core::prepare_dense_shared(*e.rhs, e.precision.rhs,
                                           /*row_major=*/false, chunk);
    }
    Span s("core.plan", id);
    p.sddmm_plan = mc::core::build_sddmm_plan(*e.pattern, e.width, sddmm_cfg(e));
    p.bytes = p.da->footprint_bytes() + p.b->footprint_bytes() +
              p.sddmm_plan->footprint_bytes();
  }
  return p;
}

/// One replay of entry `i`; returns the output's byte size so the call
/// cannot be optimized away.
std::size_t replay(const MixEntry& e, const Prepared& p, std::uint64_t i) {
  if (!e.sddmm) {
    Span s("core.spmm", i);
    return mc::core::spmm(p.a, p.b, spmm_cfg(e), p.spmm_plan).c.size();
  }
  Span s("core.sddmm", i);
  return mc::core::sddmm(p.da, p.b, *e.pattern, sddmm_cfg(e), p.sddmm_plan)
      .c.values.size();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs fn(0) .. fn(n - 1) as n ThreadPool tasks and waits for them all:
/// library calls inside run their parallel_for inline, each on its worker.
template <class F>
void on_cores(std::size_t n, const F& fn) {
  std::vector<std::future<void>> done;
  for (std::size_t c = 0; c < n; ++c) {
    done.push_back(mc::ThreadPool::instance().submit([&fn, c] { fn(c); }));
  }
  for (auto& f : done) f.get();
}

/// Caller `c`'s seeded call order, fixed for the run.
std::vector<std::size_t> call_order(std::uint64_t seed, std::size_t c,
                                    std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  mc::Rng rng(derive_seed(seed, 900 + c));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

/// What one caller of the timed window did.
struct CallerLog {
  std::vector<double> latency_ms;                 // untraced calls, wall
  std::vector<double> traced_cpu_s, plain_cpu_s;  // per call, in the traced run
  double calls = 0.0, useful_ops = 0.0;
  std::uint64_t rounds = 0;
  std::size_t sink = 0;
};

}  // namespace

Outcome run_kernel_mix(const Options& opt) {
  Outcome out;
  const std::vector<MixEntry> mix = make_kernel_mix(opt.seed);
  const Clock::time_point t_origin = Clock::now();

  // Set-up: prepare every operand and build every plan. A batch runs
  // kCallers set-ups at once; its process CPU time over kCallers is one
  // repeat. The first batch's first set-up is the one the window replays.
  // Spans (traced run) cover every set-up.
  std::vector<double> setup_cpu_s;
  std::vector<Prepared> prep;
  const auto set_up_batch = [&] {
    std::vector<std::vector<Prepared>> made(kCallers);
    Tracer::get().set_enabled(opt.trace);
    const double c0 = process_cpu_seconds();
    on_cores(kCallers, [&](std::size_t c) {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        made[c].push_back(prepare(mix[i], i));
      }
    });
    setup_cpu_s.push_back((process_cpu_seconds() - c0) /
                          static_cast<double>(kCallers));
    Tracer::get().set_enabled(false);
    if (prep.empty()) prep = std::move(made[0]);
  };
  for (int b = 0; b < kSetupBatches / 2; ++b) set_up_batch();
  std::size_t working_set = 0, output_bytes = 0;
  std::vector<double> modeled(mix.size());
  Tracer::get().set_enabled(opt.trace);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    working_set += prep[i].bytes;
    output_bytes += 4 * (mix[i].sddmm ? mix[i].pattern->nnz()
                                      : mix[i].pattern->rows * mix[i].width);
    Span s("simt.estimate", i);
    modeled[i] = mc::simt::estimate_seconds(
        mc::simt::a100(), mix[i].sddmm ? prep[i].sddmm_plan->run
                                       : prep[i].spmm_plan->run);
  }
  Tracer::get().set_enabled(false);
  out.note("kernel_mix: " + std::to_string(mix.size()) +
           " entries; prepared operands + plans " +
           std::to_string(working_set >> 20) + " MiB, outputs " +
           std::to_string(output_bytes >> 20) + " MiB");

  // Correctness, once per entry, outside the timed window: the planned
  // replay must equal core/reference.hpp bit for bit. The output hashes
  // are what the serving probes' responses must match.
  std::vector<std::uint64_t> expected(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const MixEntry& e = mix[i];
    ++out.attempted;
    bool ok = false;
    if (!e.sddmm) {
      const auto got = mc::core::spmm(prep[i].a, prep[i].b, spmm_cfg(e),
                                      prep[i].spmm_plan);
      ok = got.c == mc::core::reference_spmm(*e.pattern, *e.lhs, *e.rhs);
      expected[i] = content_hash(got.c);
    } else {
      const auto got = mc::core::sddmm(prep[i].da, prep[i].b, *e.pattern,
                                       sddmm_cfg(e), prep[i].sddmm_plan);
      const auto want = mc::core::reference_sddmm(*e.pattern, *e.lhs, *e.rhs);
      ok = got.c.values == want.values && got.c.col_idx == want.col_idx &&
           got.c.row_ptr == want.row_ptr;
      expected[i] = content_hash(got.c);
    }
    if (!ok) out.mismatch(e.label + " differs from the scalar reference");
  }

  // The timed window: kCallers closed loops of direct calls.
  std::vector<CallerLog> logs(kCallers);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  const double window_cpu0 = process_cpu_seconds();
  on_cores(kCallers, [&](std::size_t c) {
    CallerLog& log = logs[c];
    const std::vector<std::size_t> order = call_order(opt.seed, c, mix.size());
    while (Clock::now() < deadline) {
      for (const std::size_t i : order) {
        const auto t0 = Clock::now();
        bool traced = false;
        if (opt.trace) {
          traced = static_cast<long>(seconds_since(start, t0) /
                                     kTraceSliceSeconds) % 2 == 1;
          Tracer::get().set_enabled(traced);
        }
        double cpu_s = 0.0;
        {
          Span call("bench.call", i);
          const double c0 = thread_cpu_seconds();
          log.sink += replay(mix[i], prep[i], i);
          cpu_s = thread_cpu_seconds() - c0;
        }
        if (opt.trace) {
          (traced ? log.traced_cpu_s : log.plain_cpu_s).push_back(cpu_s);
        } else {
          log.latency_ms.push_back(ms_between(t0, Clock::now()));
        }
        log.calls += 1.0;
        log.useful_ops += static_cast<double>(mix[i].useful_ops);
      }
      ++log.rounds;
    }
  });
  const double window_cpu_s = process_cpu_seconds() - window_cpu0;
  const double window_wall_s = seconds_since(start, Clock::now());
  Tracer::get().set_enabled(false);

  double calls = 0.0, useful_ops = 0.0;
  std::uint64_t rounds = 0;
  std::size_t sink = 0;
  std::vector<double> lat_ms, traced_cpu_s, plain_cpu_s;
  for (const CallerLog& l : logs) {
    calls += l.calls;
    useful_ops += l.useful_ops;
    rounds += l.rounds;
    sink += l.sink;
    lat_ms.insert(lat_ms.end(), l.latency_ms.begin(), l.latency_ms.end());
    traced_cpu_s.insert(traced_cpu_s.end(), l.traced_cpu_s.begin(),
                        l.traced_cpu_s.end());
    plain_cpu_s.insert(plain_cpu_s.end(), l.plain_cpu_s.begin(),
                       l.plain_cpu_s.end());
  }
  out.attempted += static_cast<std::uint64_t>(calls);
  if (sink == 0) out.mismatch("replays produced no output");
  if (!opt.trace) {
    for (int b = kSetupBatches / 2; b < kSetupBatches; ++b) set_up_batch();
    out.add("setup_s", median(setup_cpu_s), "s");
    out.add("ops_per_cpu_s", calls / window_cpu_s, "1/s");
    out.add("useful_gops_per_cpu_s", useful_ops / window_cpu_s / 1e9, "GOPS");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    report_wall_figures(out, calls / window_wall_s, lat_ms, "kernel_mix calls");
    out.note(std::to_string(kCallers) + " callers, " + std::to_string(rounds) +
             " rounds, set-up repeats " + std::to_string(setup_cpu_s.size()) +
             "; " + describe_cpu(window_cpu_s, window_wall_s));
    return out;
  }

  // Nested replay: every entry inside a ThreadPool::submit task against the
  // same entry on the caller thread, interleaved, with span ids tagged
  // apart from the timed loop's.
  constexpr std::uint64_t kDirect = 1ull << 32, kNested = 2ull << 32;
  Tracer::get().set_enabled(true);
  for (int pass = 0; pass < kNestedPasses; ++pass) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      sink += replay(mix[i], prep[i], i | kDirect);
      Span s("common.submit", i);
      sink += mc::ThreadPool::instance()
                  .submit([&] { return replay(mix[i], prep[i], i | kNested); })
                  .get();
    }
  }
  Tracer::get().set_enabled(false);

  // ---- per-layer metrics from the spans ----
  const auto& tr = Tracer::get();
  double prep_s = 0, plan_s = 0;
  const auto prep_spans = tr.durations_of("core.prepare");
  const auto plan_spans = tr.durations_of("core.plan");
  for (const auto& [id, s] : prep_spans) prep_s += s;
  for (const auto& [id, s] : plan_spans) plan_s += s;
  const auto repeats = static_cast<double>(setup_cpu_s.size() * kCallers);
  out.add("core.prepare_ms", 1e3 * prep_s / repeats, "ms");
  out.add("core.prepare_calls",
          static_cast<double>(prep_spans.size()) / repeats, "count");
  out.add("core.plan_ms", 1e3 * plan_s / repeats, "ms");
  out.add("core.plan_calls", static_cast<double>(plan_spans.size()) / repeats,
          "count");

  struct Acc {
    double ops = 0, s = 0;
  };
  std::map<std::string, Acc> acc;
  std::vector<double> replay_us;
  double modeled_sum = 0, measured_sum = 0;
  std::vector<double> direct_us, nested_us;
  for (const char* name : {"core.spmm", "core.sddmm"}) {
    for (const auto& [id, s] : tr.durations_of(name)) {
      if (id & kDirect) direct_us.push_back(1e6 * s);
      if (id & kNested) nested_us.push_back(1e6 * s);
      if (id >> 32) continue;
      const MixEntry& e = mix[id];
      const std::string op = e.sddmm ? "core.sddmm.gops." : "core.spmm.gops.";
      for (const std::string& key :
           {op + precision_name(e.precision),
            e.sddmm ? std::string() : op + "V" + std::to_string(e.v)}) {
        if (key.empty()) continue;
        acc[key].ops += static_cast<double>(e.useful_ops);
        acc[key].s += s;
      }
      replay_us.push_back(1e6 * s);
      modeled_sum += modeled[id];
      measured_sum += s;
    }
  }
  for (const auto& [key, a] : acc) out.add(key, a.ops / a.s / 1e9, "GOPS");
  const double replay_us_p50 = percentile(replay_us, 50.0);
  out.add("core.replay_us_p50", replay_us_p50, "us");
  out.add("common.nested_replay_ratio",
          percentile(nested_us, 50.0) / percentile(direct_us, 50.0), "ratio");
  out.add("simt.modeled_over_measured", modeled_sum / measured_sum, "ratio");
  out.add("trace.overhead_pct",
          100.0 * (median(traced_cpu_s) / median(plain_cpu_s) - 1.0), "%");
  Tracer::get().set_enabled(true);
  run_serve_probes(mix, expected, opt.seed, replay_us_p50, out);
  Tracer::get().set_enabled(false);
  add_self_time_metrics(out);
  write_spans(opt, out, t_origin);
  return out;
}

}  // namespace perfbench
