#include "simt/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace magicube::simt {

int blocks_per_sm(const DeviceSpec& dev, const LaunchConfig& cfg) {
  MAGICUBE_CHECK(cfg.warps_per_block > 0);
  int by_warps = dev.max_warps_per_sm / cfg.warps_per_block;
  int by_smem = cfg.smem_bytes_per_block == 0
                    ? dev.max_blocks_per_sm
                    : static_cast<int>(dev.smem_bytes_per_sm /
                                       cfg.smem_bytes_per_block);
  int bps = std::min({dev.max_blocks_per_sm, by_warps, by_smem});
  return std::max(1, bps);
}

CostBreakdown estimate_cost(const DeviceSpec& dev, const KernelRun& run) {
  const KernelCounters& c = run.counters;
  CostBreakdown out;

  out.blocks_per_sm = blocks_per_sm(dev, run.launch);
  const double device_blocks =
      static_cast<double>(dev.sm_count) * out.blocks_per_sm;
  out.waves = std::max(
      1.0, std::ceil(static_cast<double>(run.launch.grid_blocks) /
                     device_blocks));

  // SM-level resources: total resource-cycles divided over the SMs actually
  // used, inflated by wave quantization (a partially filled last wave leaves
  // SMs idle but still takes a full wave of time for the blocks it runs).
  // Effective parallelism for SM-level resources: blocks spread evenly over
  // SMs, so time = per-block cycles x the largest per-SM block count, i.e.
  // spread = grid / ceil(grid / sm_count). Extra resident blocks (bps > 1)
  // share an SM's throughput, so they improve latency hiding (below) but not
  // the roofline terms.
  const double grid = static_cast<double>(run.launch.grid_blocks);
  const double rounds = std::ceil(grid / dev.sm_count);
  const double spread = std::max(1.0, grid / std::max(1.0, rounds));

  // alu_ops / shfl_ops count warp-level instructions (32 lanes each);
  // fp32_ops counts scalar lane-ops (epilogues are counted element-wise).
  const double mma_cycle_units =
      static_cast<double>(c.mma_int8) * 2048.0 / dev.int8_ops_per_sm_cycle +
      static_cast<double>(c.mma_int4) * 4096.0 / dev.int4_ops_per_sm_cycle +
      static_cast<double>(c.mma_fp16) * 4096.0 / dev.fp16_ops_per_sm_cycle;
  out.mma_cycles = mma_cycle_units / spread;
  out.smem_cycles = static_cast<double>(c.smem_transactions()) / spread;
  // Every memory request costs one warp-wide address-generation/issue
  // instruction on the CUDA cores in addition to the counted data movement.
  const double addr_gen_instrs = static_cast<double>(
      c.smem_load_requests + c.smem_store_requests + c.gmem_load_requests +
      c.gmem_store_requests);
  out.alu_cycles = (static_cast<double>(c.alu_ops) + addr_gen_instrs) * 32.0 /
                   dev.int32_alu_ops_per_sm_cycle / spread;
  out.shfl_cycles = static_cast<double>(c.shfl_ops) * 32.0 /
                    dev.shfl_ops_per_sm_cycle / spread;
  out.fp32_cycles = static_cast<double>(c.fp32_ops) /
                    dev.fp32_ops_per_sm_cycle / spread;

  // Bucket-kernel dispatch: each plan-classified block pays a small
  // per-block selection/setup cost on the issue pipe, weighted by how much
  // control overhead its kernel body retains (plane loops cost more; fused
  // paths branch once). Runs with no bucket counters (kernels that are not
  // plan-replayed) are unaffected.
  static constexpr double kSpmmDispatchCycles[kSpmmBucketKinds] = {
      2.0,  // fixed64: fixed-width panels, runtime plane loops
      3.0,  // stacked: fixed-width panels + short-group tail handling
      1.0,  // fused: single fused decode+mma loop
      1.0,  // empty: early exit
  };
  static constexpr double kSddmmDispatchCycles[kSddmmBucketKinds] = {
      3.0,  // generic: plane cross-product loops
      1.0,  // fused_single: single plane pair, weight applied once
      3.0,  // tail: generic body with the valid bound
  };
  double dispatch_units = 0;
  for (std::size_t i = 0; i < kSpmmBucketKinds; ++i) {
    dispatch_units += static_cast<double>(c.spmm_bucket_blocks[i]) *
                      kSpmmDispatchCycles[i];
  }
  for (std::size_t i = 0; i < kSddmmBucketKinds; ++i) {
    dispatch_units += static_cast<double>(c.sddmm_bucket_blocks[i]) *
                      kSddmmDispatchCycles[i];
  }
  out.dispatch_cycles = dispatch_units / spread;

  // Device-wide memory levels. All counted sectors travel over L2; DRAM sees
  // the compulsory bytes the kernel reported.
  const double l2_bytes = static_cast<double>(c.gmem_sectors()) *
                          dev.gmem_sector_bytes;
  out.l2_cycles = l2_bytes / (dev.l2_bytes_per_sm_cycle() * dev.sm_count);
  out.dram_cycles = static_cast<double>(c.dram_bytes) /
                    (dev.dram_bytes_per_sm_cycle() * dev.sm_count);

  // CUDA-core instructions (ALU, shuffles), shared-memory transaction
  // replays and bucket-dispatch overhead contend for the same SM issue/LSU
  // bandwidth, so they compose additively into one "issue" resource; tensor
  // cores, the fp32 pipe and the memory levels run concurrently with it.
  const double issue_cycles =
      out.smem_cycles + out.alu_cycles + out.shfl_cycles + out.dispatch_cycles;
  const struct {
    const char* name;
    double cycles;
  } resources[] = {
      {"mma", out.mma_cycles},   {"issue", issue_cycles},
      {"fp32", out.fp32_cycles}, {"l2", out.l2_cycles},
      {"dram", out.dram_cycles},
  };
  out.roofline_cycles = 0;
  out.bottleneck = "none";
  for (const auto& r : resources) {
    if (r.cycles > out.roofline_cycles) {
      out.roofline_cycles = r.cycles;
      out.bottleneck = r.name;
    }
  }

  // Exposed dependent-load latency. Each pipeline step issues a global load
  // whose result the same block consumes; concurrent blocks/warps on the SM
  // hide most of it. With prefetching only each block's cold start remains.
  const double resident_warps =
      static_cast<double>(out.blocks_per_sm) * run.launch.warps_per_block;
  const double chains =
      run.pipeline.prefetch
          ? static_cast<double>(run.launch.grid_blocks)  // cold starts
          : static_cast<double>(run.pipeline.total_steps);
  out.latency_cycles = chains * dev.gmem_latency_cycles /
                       std::max(1.0, resident_warps) / spread;

  out.launch_seconds =
      run.kernel_launches * dev.kernel_launch_overhead_us * 1e-6;

  out.total_seconds =
      dev.cycles_to_seconds(out.roofline_cycles + out.latency_cycles) +
      out.launch_seconds;
  return out;
}

double estimate_seconds(const DeviceSpec& dev, const KernelRun& run) {
  return estimate_cost(dev, run).total_seconds;
}

}  // namespace magicube::simt
