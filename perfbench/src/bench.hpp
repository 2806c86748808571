#pragma once
// Shared types of the benchmark program: command-line options, the outcome a
// workload reports, and small helpers every workload uses.

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "sparse/bcrs.hpp"
#include "trace.hpp"

namespace magicube::serve {
class DevicePool;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/spans";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted` and `failed` count the
/// workload's operations (a wrong, failed or shed op is failed). `metrics`
/// go into the JSON result line; `reported` metrics (the wall-clock rates
/// and latencies, too unsteady on a shared host to gate on) and notes are
/// printed above it for a human reader.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> reported;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void report(const std::string& name, double value, const std::string& unit) {
    reported.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness failure: the op counts as failed and the run is
  /// marked incorrect.
  void mismatch(const std::string& what) {
    correct = false;
    ++failed;
    note("MISMATCH: " + what);
  }
};

struct MixEntry;

Outcome run_kernel_mix(const Options& opt);
Outcome run_attention_stream(const Options& opt);

/// The traced kernel_mix run's serving probes over a bench-owned
/// DevicePool: pricing, one-in-flight round trips and row-shard + merge of
/// the mix's requests, each output checked against `expected` (the direct
/// replay's content hashes). Adds the serve.* and cache.* metrics;
/// `replay_us_p50` is the direct replay's p50 the overhead ratio divides by.
void run_serve_probes(const std::vector<MixEntry>& mix,
                      const std::vector<std::uint64_t>& expected,
                      std::uint64_t seed, double replay_us_p50, Outcome& out);

/// Runs the benchmark's own arithmetic and determinism checks; returns the
/// number of failed checks (each failure is printed to stderr).
int run_self_tests();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Order-sensitive 64-bit content hash (word-wise multiply-xorshift; fast
/// enough to hash every served output inside the collector).
std::uint64_t content_hash(const magicube::Matrix<std::int32_t>& m);
std::uint64_t content_hash(const magicube::sparse::Bcrs<std::int32_t>& b);

/// Seed of one generated input, derived from the run seed and a stream tag
/// so every input is a pure function of (--seed, tag).
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t tag);

/// Median of a small sample (set-up repetitions, per-round rates).
double median(std::vector<double> v);

/// The per-layer metric names every traced run prints, in order. Workloads
/// fill the ones whose layer they exercise; the rest print 0, which means
/// "no such work in this workload" (see README.md).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// The end-to-end metric names every untraced run prints, with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

/// Per-layer self time of the traced spans under "<layer>.self_ms_per_s":
/// each layer's self time per second of all traced self time (the layer
/// shares, in thousandths), plus the span count.
void add_self_time_metrics(Outcome& out);

/// The pool's counters: `DevicePool::stats()` (serve.sharded_requests,
/// shard_slices) and `OperandCache::stats()` summed over
/// the device caches (hit rates; insertions, bytes and evictions include
/// the plan cache). Each read is a span.
void add_pool_metrics(Outcome& out, magicube::serve::DevicePool& pool);

/// Adds, as reported figures (printed, not in the result line; too
/// unsteady on a shared host to gate on), the ops per wall second and the
/// wall latency p50 and p99 of the window's ops, with their sample count.
void report_wall_figures(Outcome& out, double ops_per_wall_s,
                         const std::vector<double>& latency_ms,
                         const std::string& what);

/// "window C CPU s over W wall s (R cores busy)" for the notes.
std::string describe_cpu(double cpu_s, double wall_s);

/// Fills every per-layer metric the workload did not report with 0 ("no
/// such work in this workload").
void fill_missing_per_layer(Outcome& out);

/// Writes the recorded spans to `<out_dir>/<workload>-seed<seed>.jsonl` and
/// notes the path and span count.
void write_spans(const Options& opt, Outcome& out, Clock::time_point t0);

}  // namespace perfbench
