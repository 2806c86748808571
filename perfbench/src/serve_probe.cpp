// Serving probes of the traced kernel_mix run: closed-loop calls into the
// serve layer over the mix's own operands, one request in flight at a
// time, after the timed window. They measure what a request pays on top of
// the direct replay the window times: pricing, the DevicePool round trip
// (submit, dispatch, linger, nested parallel_for) and row-shard + merge.
// Every served output is checked against the direct replay's hash. Called
// with tracing on; spans are reduced by the caller's layer metrics too.

#include <future>
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/operands.hpp"
#include "core/spmm.hpp"
#include "inputs.hpp"
#include "serve/device_pool.hpp"
#include "serve/shard.hpp"
#include "serve/sla.hpp"

namespace perfbench {

namespace mc = magicube;
namespace sv = magicube::serve;

namespace {

// Sequential submissions place round-robin on an idle fleet, so this many
// passes put every operand on every device before the timed passes.
constexpr std::size_t kDevices = 4;
constexpr std::size_t kWarmPasses = kDevices;
constexpr std::size_t kTimedPasses = 3;
constexpr int kShardPasses = 2;  // cold slices, then warm
constexpr int kPooledGiants = 2;

std::uint64_t response_hash(const sv::Response& resp) {
  if (resp.spmm) return content_hash(resp.spmm->c);
  if (resp.sddmm) return content_hash(resp.sddmm->c);
  return 0;
}

std::vector<double> micros(const char* name) {
  std::vector<double> v;
  for (const auto& [id, s] : Tracer::get().durations_of(name)) {
    v.push_back(1e6 * s);
  }
  return v;
}

}  // namespace

void run_serve_probes(const std::vector<MixEntry>& mix,
                      const std::vector<std::uint64_t>& expected,
                      std::uint64_t seed, double replay_us_p50,
                      Outcome& out) {
  // One request per mix entry. SpMM weights are named once per weight
  // matrix, every activation by its entry.
  std::vector<sv::Request> reqs;
  std::map<const void*, std::uint64_t> weight_ids;
  std::uint64_t next_id = 1;
  for (const MixEntry& e : mix) {
    sv::Request r;
    r.op = e.sddmm ? sv::OpKind::sddmm : sv::OpKind::spmm;
    r.precision = e.precision;
    r.pattern = e.pattern;
    r.lhs_values = e.lhs;
    r.rhs_values = e.rhs;
    auto [it, fresh] = weight_ids.try_emplace(e.lhs.get(), next_id);
    if (fresh) ++next_id;
    r.lhs_id = it->second;
    r.rhs_id = next_id++;
    reqs.push_back(std::move(r));
  }

  sv::DevicePoolConfig cfg;
  cfg.device_count = kDevices;
  std::unique_ptr<sv::DevicePool> pool;
  {
    Span s("serve.pool_start");
    pool = std::make_unique<sv::DevicePool>(cfg);
  }
  const auto serve = [&](const sv::Request& r, std::uint64_t want,
                         std::uint64_t id, const std::string& what) {
    ++out.attempted;
    try {
      std::future<sv::Response> fut;
      {
        Span s("serve.submit", id);
        fut = pool->submit(r);
      }
      Span s("serve.wait", id);
      if (response_hash(fut.get()) != want) out.mismatch(what);
    } catch (const std::exception& e) {
      out.mismatch(what + ": " + e.what());
    }
  };
  // Warm-up passes run untraced, so the submit figures are warm ones.
  Tracer::get().set_enabled(false);
  for (std::size_t pass = 0; pass < kWarmPasses; ++pass) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      serve(reqs[i], expected[i], i, "pool warm-up " + mix[i].label);
    }
  }
  Tracer::get().set_enabled(true);
  for (std::size_t pass = 0; pass < kTimedPasses; ++pass) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Span s("serve.roundtrip", i);
      serve(reqs[i], expected[i], i, "pool round trip " + mix[i].label);
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Span s("serve.price", i);
    (void)sv::price_request(reqs[i], pool->plan_cache());
  }

  // The giant: row-shard + merge from outside, then through the pool,
  // which shards it itself. Both must equal the direct replay.
  const MixEntry giant = make_giant(seed);
  mc::core::SpmmConfig gcfg;
  gcfg.precision = giant.precision;
  const auto ga = mc::core::prepare_spmm_lhs_shared(
      *giant.pattern, *giant.lhs, giant.precision,
      mc::core::needs_shuffle(gcfg));
  const auto gb = mc::core::prepare_spmm_rhs_shared(*giant.rhs, giant.precision);
  const std::uint64_t giant_hash = content_hash(
      mc::core::spmm(ga, gb, gcfg, mc::core::build_spmm_plan(*ga, giant.width,
                                                             gcfg))
          .c);
  sv::Request greq;
  greq.precision = giant.precision;
  greq.pattern = giant.pattern;
  greq.lhs_values = giant.lhs;
  greq.rhs_values = giant.rhs;
  greq.lhs_id = next_id++;
  greq.rhs_id = next_id++;
  sv::OperandCache shard_cache;
  const std::uint64_t fp = giant.pattern->fingerprint();
  for (int pass = 0; pass < kShardPasses; ++pass) {
    ++out.attempted;
    Span s("serve.shard_merge", pass);
    const auto slices = sv::plan_row_shards(
        *giant.pattern, mc::core::stride_for(giant.precision), kDevices);
    std::vector<mc::core::SpmmResult> parts;
    for (const sv::RowSlice& sl : slices) {
      const auto sp = std::make_shared<const mc::sparse::BlockPattern>(
          mc::sparse::slice_vector_rows(*giant.pattern, sl.vr_begin,
                                        sl.vr_end));
      const auto plan = shard_cache.get_or_build_spmm_plan(
          sp, giant.width, gcfg, sv::slice_content_id(fp, sl));
      parts.push_back(
          sv::execute_spmm_slice(greq, sp, sl, fp, plan, gb, shard_cache)
              .result);
    }
    const auto merged = sv::merge_row_shards(giant.pattern->rows, giant.width,
                                             giant.pattern->vector_length,
                                             slices, std::move(parts));
    if (content_hash(merged.c) != giant_hash) {
      out.mismatch("shard + merge of the giant");
    }
  }
  for (int g = 0; g < kPooledGiants; ++g) {
    serve(greq, giant_hash, 1u << 20, "pooled giant");
  }
  add_pool_metrics(out, *pool);

  const std::vector<double> submit = micros("serve.submit");
  const double rt_p50 = percentile(micros("serve.roundtrip"), 50.0);
  const std::vector<double> price = micros("serve.price");
  double price_sum = 0.0;
  for (const double u : price) price_sum += u;
  out.add("serve.submit_us_p50", percentile(submit, 50.0), "us");
  out.add("serve.submit_us_p99", percentile(submit, 99.0), "us");
  out.add("serve.roundtrip_us_p50", rt_p50, "us");
  out.add("serve.overhead_ratio", rt_p50 / replay_us_p50, "ratio");
  out.add("serve.price_us", price_sum / static_cast<double>(price.size()),
          "us");
  out.add("serve.shard_merge_us", percentile(micros("serve.shard_merge"), 50.0),
          "us");
  out.note("serve probes: " + std::to_string(kTimedPasses) + " x " +
           std::to_string(reqs.size()) +
           " round trips with one request in flight over a " +
           std::to_string(kDevices) + "-device pool; giant " + giant.label);
}

}  // namespace perfbench
