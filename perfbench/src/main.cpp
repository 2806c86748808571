// perfbench: measured benchmark of the magicube library.
//
//   perfbench --workload <kernel_mix|attention_stream>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --self-test
//
// Generates the workload's inputs from the seed, sets the library up,
// measures for the given number of seconds, checks every output, and prints
// the metrics by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, taken from spans around the library calls.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "serve/device_pool.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::uint64_t hash_words(const void* data, std::size_t bytes,
                         std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h ^ bytes;
}

}  // namespace

std::uint64_t content_hash(const magicube::Matrix<std::int32_t>& m) {
  const std::uint64_t h = m.rows() * 0x10001ull + m.cols();
  return hash_words(m.data(), m.rows() * m.cols() * sizeof(std::int32_t), h);
}

std::uint64_t content_hash(const magicube::sparse::Bcrs<std::int32_t>& b) {
  std::uint64_t h = b.rows * 0x10001ull + b.cols;
  h = hash_words(b.row_ptr.data(), b.row_ptr.size() * 4, h);
  h = hash_words(b.col_idx.data(), b.col_idx.size() * 4, h);
  return hash_words(b.values.data(), b.values.size() * 4, h);
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t tag) {
  std::uint64_t s = run_seed * 0x9e3779b97f4a7c15ull + tag;
  magicube::splitmix64(s);
  return magicube::splitmix64(s);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"ops_per_cpu_s", "1/s"},
      {"useful_gops_per_cpu_s", "GOPS"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

void report_wall_figures(Outcome& out, double ops_per_wall_s,
                         const std::vector<double>& latency_ms,
                         const std::string& what) {
  out.report("ops_per_s", ops_per_wall_s, "1/s");
  out.report("latency_p50_ms", percentile(latency_ms, 50.0), "ms");
  if (samples_beyond(latency_ms.size(), 99.0) < 10) {
    out.note(what + ": n=" + std::to_string(latency_ms.size()) +
             ", too few for a p99");
    return;
  }
  const LatencySummary s = summarize_latency(latency_ms, what);
  out.report("latency_p99_ms", s.p99, "ms");
  out.note(what + ": " + describe(s));
}

std::string describe_cpu(double cpu_s, double wall_s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "window %.1f CPU s over %.1f wall s (%.2f cores busy)", cpu_s,
                wall_s, cpu_s / wall_s);
  return buf;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"core.prepare_ms", "ms"},
      {"core.prepare_calls", "count"},
      {"core.plan_ms", "ms"},
      {"core.plan_calls", "count"},
      {"core.spmm.gops.L8R8", "GOPS"},
      {"core.spmm.gops.L8R4", "GOPS"},
      {"core.spmm.gops.L4R4", "GOPS"},
      {"core.spmm.gops.L16R8", "GOPS"},
      {"core.spmm.gops.V2", "GOPS"},
      {"core.spmm.gops.V8", "GOPS"},
      {"core.sddmm.gops.L8R8", "GOPS"},
      {"core.sddmm.gops.L4R4", "GOPS"},
      {"core.replay_us_p50", "us"},
      {"common.nested_replay_ratio", "ratio"},
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.roundtrip_us_p50", "us"},
      {"serve.overhead_ratio", "ratio"},
      {"serve.price_us", "us"},
      {"serve.shard_merge_us", "us"},
      {"serve.graph_overhead_ratio", "ratio"},
      {"serve.sharded_requests", "count"},
      {"serve.shard_slices", "count"},
      {"cache.operand_hit_rate", "ratio"},
      {"cache.plan_hit_rate", "ratio"},
      {"cache.insertions", "count"},
      {"cache.bytes_inserted", "bytes"},
      {"cache.evictions", "count"},
      {"transformer.sddmm_stage_us", "us"},
      {"transformer.softmax_quantize_us", "us"},
      {"transformer.spmm_stage_us", "us"},
      {"transformer.output_us", "us"},
      {"simt.modeled_over_measured", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"bench.self_ms_per_s", "ms/s"},
      {"core.self_ms_per_s", "ms/s"},
      {"common.self_ms_per_s", "ms/s"},
      {"serve.self_ms_per_s", "ms/s"},
      {"cache.self_ms_per_s", "ms/s"},
      {"transformer.self_ms_per_s", "ms/s"},
      {"simt.self_ms_per_s", "ms/s"},
  };
  return m;
}

void add_self_time_metrics(Outcome& out) {
  const auto self = Tracer::get().self_seconds_by_layer();
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer :
       {"bench", "core", "common", "serve", "cache", "transformer", "simt"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    out.add(std::string(layer) + ".self_ms_per_s",
            total > 0 ? 1e3 * s / total : 0.0, "ms/s");
  }
  out.add("trace.spans", static_cast<double>(Tracer::get().span_count()),
          "count");
}

void add_pool_metrics(Outcome& out, magicube::serve::DevicePool& pool) {
  namespace sv = magicube::serve;
  sv::DevicePoolStats stats;
  sv::CacheStats ops, plans;
  {
    Span s("serve.stats");
    stats = pool.stats();
  }
  {
    Span s("cache.stats");
    for (std::size_t d = 0; d < pool.device_count(); ++d) {
      ops += pool.device_cache(d).stats();
    }
    plans = pool.plan_cache().stats();
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  out.add("serve.sharded_requests", count(stats.sharded_requests), "count");
  out.add("serve.shard_slices", count(stats.shard_slices), "count");
  out.add("cache.operand_hit_rate", ops.hit_rate(), "ratio");
  out.add("cache.plan_hit_rate", plans.hit_rate(), "ratio");
  out.add("cache.insertions", count(ops.insertions + plans.insertions), "count");
  out.add("cache.bytes_inserted",
          count(ops.bytes_inserted + plans.bytes_inserted), "bytes");
  out.add("cache.evictions", count(ops.evictions + plans.evictions), "count");
}

void fill_missing_per_layer(Outcome& out) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    bool have = false;
    for (const Metric& m : out.metrics) have = have || m.name == name;
    if (!have) out.add(name, 0.0, unit);
  }
}

void write_spans(const Options& opt, Outcome& out, Clock::time_point t0) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  if (ec || !Tracer::get().write_jsonl(path, t0)) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  out.note("spans: " + std::to_string(Tracer::get().span_count()) +
           " written to " + path);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kernel_mix|attention_stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --self-test\n",
               why);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Checks that the outcome carries exactly the expected metric names, in
/// the expected units, each a finite number.
void check_metric_set(const Outcome& out, bool trace) {
  const auto& want = trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> seen;
  for (const Metric& m : out.metrics) {
    // A failed op counts as an infinite latency; that is a reportable
    // outcome of an incorrect run, and a program error otherwise.
    if (!std::isfinite(m.value) && out.correct) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    if (!seen.insert(m.name).second) {
      throw std::runtime_error("metric " + m.name + " reported twice");
    }
    bool known = false;
    for (const auto& [name, unit] : want) {
      if (name == m.name) {
        known = true;
        if (unit != m.unit) {
          throw std::runtime_error("metric " + m.name + " has unit " +
                                   m.unit + ", expected " + unit);
        }
      }
    }
    if (!known) throw std::runtime_error("unexpected metric " + m.name);
  }
  if (seen.size() != want.size()) {
    for (const auto& [name, unit] : want) {
      if (!seen.count(name)) {
        throw std::runtime_error("metric " + name + " missing");
      }
    }
  }
}

void print_outcome(const Outcome& out) {
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : out.reported) {
    std::printf("%-34s %16.6g %s (reported, not in the result line)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("%-34s %16.6g %s\n", "error_rate", error_rate, "ratio");
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0 && opt.seconds <= 600;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (self_test) return run_self_tests() == 0 ? 0 : 1;
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (0, 600] and --trace are "
                 "required");
  }
  if (run_self_tests() != 0) {
    std::fprintf(stderr, "perfbench: self-tests failed; not measuring\n");
    return 1;
  }
  try {
    Outcome out;
    if (opt.workload == "kernel_mix") {
      out = run_kernel_mix(opt);
    } else if (opt.workload == "attention_stream") {
      out = run_attention_stream(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace) fill_missing_per_layer(out);
    check_metric_set(out, opt.trace);
    print_outcome(out);
    return out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
