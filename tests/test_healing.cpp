// Self-healing fleet suite (`serve` CTest label, TSan CI gate): per-device
// health scoring (fault/success EWMA + completion-drift EWMA), the
// circuit-breaker quarantine with probe-driven reinstatement, hedged
// execution of deadline-threatened whole requests (first finisher on the
// modeled clock wins, bit-exact either way, losers leave no clock or pin
// residue), poison-request isolation (typed PoisonError after faults on
// enough distinct devices) and the retry-budget rule the healing layer
// must respect: pool-initiated re-placements (drain, quarantine, probe
// requeues) never consume max_retries — only genuine fault attempts do.
// Everything reasons on the modeled clock, so winners and counters are
// deterministic functions of the request stream.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/serve.hpp"

namespace magicube::serve {
namespace {

struct Problem {
  OpKind op = OpKind::spmm;
  PrecisionPair precision = precision::L8R8;
  std::shared_ptr<const sparse::BlockPattern> pattern;
  std::shared_ptr<const Matrix<std::int32_t>> lhs;
  std::shared_ptr<const Matrix<std::int32_t>> rhs;
};

Problem make_spmm_problem(std::size_t m, std::size_t k, std::size_t n, int v,
                          double sparsity, PrecisionPair prec,
                          std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.op = OpKind::spmm;
  p.precision = prec;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(m, k, v, sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(m, k, prec.lhs, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(k, n, prec.rhs, rng));
  return p;
}

Problem make_sddmm_problem(std::size_t m, std::size_t k, std::size_t n,
                           int v, double sparsity, PrecisionPair prec,
                           std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.op = OpKind::sddmm;
  p.precision = prec;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(m, n, v, sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(m, k, prec.lhs, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(k, n, prec.rhs, rng));
  return p;
}

Request to_request(const Problem& p, int priority = 0,
                   double deadline_seconds = 0.0) {
  Request req;
  req.op = p.op;
  req.precision = p.precision;
  req.pattern = p.pattern;
  req.lhs_values = p.lhs;
  req.rhs_values = p.rhs;
  req.priority = priority;
  req.deadline_seconds = deadline_seconds;
  return req;
}

Response sequential_reference(const Problem& p) {
  OperandCache cache(256ull << 20);
  return serve_request(to_request(p), cache);
}

void expect_same_result(const Response& got, const Response& want,
                        const char* what) {
  ASSERT_EQ(got.op, want.op) << what;
  if (want.op == OpKind::spmm) {
    ASSERT_TRUE(got.spmm.has_value()) << what;
    EXPECT_EQ(got.spmm->c, want.spmm->c) << what;
  } else {
    ASSERT_TRUE(got.sddmm.has_value()) << what;
    EXPECT_EQ(got.sddmm->c.values, want.sddmm->c.values) << what;
  }
}

/// The request's analytic price on the reference spec — deadline and hedge
/// thresholds in these tests are multiples of it.
double est_on_a100(const Problem& p) {
  OperandCache scratch(16ull << 20);
  return simt::estimate_seconds(simt::a100(),
                                price_request(to_request(p), scratch));
}

const TraceSpan* find_span(const RequestTrace& t, const std::string& name,
                           const std::string& key = "",
                           const std::string& value = "") {
  for (const TraceSpan& s : t.spans) {
    if (s.name != name) continue;
    if (key.empty()) return &s;
    for (const auto& [k, v] : s.attrs) {
      if (k == key && v == value) return &s;
    }
  }
  return nullptr;
}

/// Occupies every ThreadPool worker until release() so work placed by the
/// dispatcher stays queued (tickets registered, not yet claimed) — the
/// window drains, quarantine re-placement and hedge races operate on.
class WorkerJam {
 public:
  WorkerJam() : posted_(ThreadPool::instance().worker_count()) {
    auto& tp = ThreadPool::instance();
    for (std::size_t i = 0; i < posted_; ++i) {
      tp.post([this] {
        blocked_.fetch_add(1);
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [this] { return released_; });
        }
        exited_.fetch_add(1);
      });
    }
    while (blocked_.load() < posted_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  // The destructor must outlive the blockers: a released worker still
  // touches mutex_/cv_ on its way out of the wait.
  ~WorkerJam() {
    release();
    while (exited_.load() < posted_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  const std::size_t posted_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<std::size_t> blocked_{0};
  std::atomic<std::size_t> exited_{0};
};

/// Polls the pool until `pred(stats)` holds (placements run on the
/// dispatcher thread, so a jammed ThreadPool still makes progress here).
template <typename Pred>
void wait_for_stats(const DevicePool& pool, Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred(pool.stats())) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "pool stats never reached the expected state";
}

HealingConfig healing_base() {
  HealingConfig h;
  h.enabled = true;
  h.health_alpha = 1.0;       // health == last outcome: deterministic trips
  h.quarantine_below = 0.5;
  h.min_health_samples = 1;
  h.probe_interval = 100;     // no probes unless a test lowers it
  h.reinstate_after = 2;
  return h;
}

std::uint64_t total_placed(const DevicePoolStats& st) {
  std::uint64_t n = 0;
  for (const DeviceStats& d : st.devices) n += d.placed;
  return n;
}

// ---- Health scoring --------------------------------------------------------

TEST(HealingScore, EwmaTracksOutcomesAndCompletionDrift) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.healing = healing_base();
  cfg.healing.health_alpha = 0.5;
  cfg.healing.quarantine_below = 0.0;  // score only, never trip
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9101);
  const Response want = sequential_reference(p);
  const Response got = pool.submit(to_request(p)).get();
  expect_same_result(got, want, "scored request");
  EXPECT_EQ(got.retries, 1u);  // the genuine fault consumed one retry

  // EWMA over the two outcomes on device 0: fail (1.0 -> 0.5), then the
  // requeued success (0.5 -> 0.75).
  EXPECT_DOUBLE_EQ(pool.device_health(0), 0.75);
  EXPECT_FALSE(pool.device_quarantined(0));

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.quarantines, 0u);
  EXPECT_EQ(st.devices[0].health_samples, 2u);
  // The retried attempt bridged to the failed attempt's modeled end, so
  // its completion/estimate ratio is exactly 2: 0.5*1.0 + 0.5*2.0.
  EXPECT_DOUBLE_EQ(st.devices[0].completion_ratio_ewma, 1.5);
}

TEST(HealingScore, DisabledHealingIsANoOp) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  // healing.enabled stays false (the default).
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9102);
  const Response got = pool.submit(to_request(p)).get();
  expect_same_result(got, sequential_reference(p), "unscored request");

  EXPECT_DOUBLE_EQ(pool.device_health(0), 1.0);
  EXPECT_FALSE(pool.device_quarantined(0));
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.devices[0].health_samples, 0u);
  EXPECT_EQ(st.quarantines + st.probes_placed + st.hedges_placed +
                st.poison_failures,
            0u);
}

TEST(HealingScore, AccessorsCheckBounds) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  DevicePool pool(cfg);
  EXPECT_THROW(pool.device_health(7), Error);
  EXPECT_THROW(pool.device_quarantined(7), Error);
}

TEST(HealingScore, ConfigValidationRejectsBadValues) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.healing = healing_base();
  cfg.healing.health_alpha = 0.0;
  EXPECT_THROW(DevicePool bad(cfg), Error);
  cfg.healing = healing_base();
  cfg.healing.hedge_deadline_fraction = 1.5;
  EXPECT_THROW(DevicePool bad(cfg), Error);
  cfg.healing = healing_base();
  cfg.healing.probe_interval = 0;
  EXPECT_THROW(DevicePool bad(cfg), Error);
  cfg.fault_plan = {};
  cfg.fault_plan.windows.push_back({/*device=*/0, /*probability=*/1.5});
  cfg.healing = {};
  EXPECT_THROW(DevicePool bad(cfg), Error);
}

// ---- Quarantine ------------------------------------------------------------

TEST(HealingQuarantine, TripRemovesDeviceFromPlacement) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.healing = healing_base();
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9201);
  const Response want = sequential_reference(p);

  // The idle A100-class part prices cheapest, takes the request, faults:
  // health drops to 0 (< 0.5 with min_health_samples = 1) and the breaker
  // opens; the retry lands on the edge part and stays bit-exact.
  const Response first = pool.submit(to_request(p)).get();
  expect_same_result(first, want, "tripping request");
  EXPECT_EQ(first.device, 1);
  EXPECT_EQ(first.retries, 1u);
  EXPECT_TRUE(pool.device_quarantined(0));
  EXPECT_DOUBLE_EQ(pool.device_health(0), 0.0);
  ASSERT_TRUE(first.trace != nullptr);
  const TraceSpan* enter =
      find_span(*first.trace, "quarantine", "action", "enter");
  ASSERT_NE(enter, nullptr);
  EXPECT_EQ(enter->device, 0);

  // Every follow-up placement must avoid the quarantined device even
  // though its (empty) modeled backlog would win the argmin.
  for (int i = 0; i < 3; ++i) {
    const Response r = pool.submit(to_request(p)).get();
    expect_same_result(r, want, "post-trip request");
    EXPECT_EQ(r.device, 1);
  }
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.devices[0].placed, 1u);  // only the tripping request
  EXPECT_TRUE(pool.device_quarantined(0));
}

TEST(HealingQuarantine, FullyQuarantinedFleetStillServes) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.healing = healing_base();
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9202);
  const Response want = sequential_reference(p);
  // The only device trips, but the placement scan falls back to
  // quarantined candidates rather than erroring a non-drained pool.
  expect_same_result(pool.submit(to_request(p)).get(), want, "trip");
  EXPECT_TRUE(pool.device_quarantined(0));
  expect_same_result(pool.submit(to_request(p)).get(), want, "degraded");
  EXPECT_EQ(pool.stats().failed, 0u);
}

TEST(HealingQuarantine, TripUnderLoadKeepsStreamBitExact) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 4;
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.healing = healing_base();
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9203);
  const Response want = sequential_reference(p);

  // Both requests of the round place while the workers are jammed (the
  // cheaper device takes the first); releasing the jam lets that first
  // execution fault and trip the breaker while its sibling may still be
  // queued — whichever way the race goes, results stay bit-exact and the
  // trip is counted exactly once.
  WorkerJam jam;
  auto f1 = pool.submit(to_request(p));
  auto f2 = pool.submit(to_request(p));
  wait_for_stats(pool, [](const DevicePoolStats& st) {
    return total_placed(st) == 2;
  });
  EXPECT_GE(pool.stats().devices[0].placed, 1u);
  jam.release();
  expect_same_result(f1.get(), want, "jammed stream");
  expect_same_result(f2.get(), want, "jammed stream");

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.retries, 1u);  // the faulted execution requeued once
  EXPECT_LE(st.replaced, 1u); // the sibling moved iff still queued
  EXPECT_TRUE(pool.device_quarantined(0));
}

// ---- Probes and reinstatement ----------------------------------------------

TEST(HealingProbe, ProbeStreakReinstatesTheDevice) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 2;
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.healing = healing_base();
  cfg.healing.probe_interval = 2;
  cfg.healing.reinstate_after = 2;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9301);
  const Response want = sequential_reference(p);

  // Trip the breaker on device 0.
  expect_same_result(pool.submit(to_request(p)).get(), want, "trip");
  ASSERT_TRUE(pool.device_quarantined(0));

  // Commit 2 ticks the probe clock to the interval: the deadline-free
  // request after it runs as device 0's probe.
  const Response r2 = pool.submit(to_request(p)).get();
  expect_same_result(r2, want, "between probes");
  EXPECT_EQ(r2.device, 1);

  const Response probe1 = pool.submit(to_request(p)).get();
  expect_same_result(probe1, want, "first probe");
  EXPECT_EQ(probe1.device, 0);
  ASSERT_TRUE(probe1.trace != nullptr);
  EXPECT_NE(find_span(*probe1.trace, "probe"), nullptr);
  EXPECT_TRUE(pool.device_quarantined(0));  // streak 1 < reinstate_after

  const Response r4 = pool.submit(to_request(p)).get();
  EXPECT_EQ(r4.device, 1);

  // Second clean probe completes the streak: the breaker closes, health
  // re-arms at 1.0 and the reinstatement is stamped on the probe's trace.
  const Response probe2 = pool.submit(to_request(p)).get();
  expect_same_result(probe2, want, "reinstating probe");
  EXPECT_EQ(probe2.device, 0);
  ASSERT_TRUE(probe2.trace != nullptr);
  EXPECT_NE(find_span(*probe2.trace, "quarantine", "action", "reinstate"),
            nullptr);
  EXPECT_FALSE(pool.device_quarantined(0));
  EXPECT_DOUBLE_EQ(pool.device_health(0), 1.0);

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.reinstatements, 1u);
  EXPECT_EQ(st.probes_placed, 2u);
  EXPECT_EQ(st.probe_successes, 2u);
}

TEST(HealingProbe, FailedProbeRequeuesWithoutConsumingBudget) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 0;  // any budget-consuming retry would fail the request
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/2});
  cfg.healing = healing_base();
  cfg.healing.probe_interval = 2;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9302);
  const Response want = sequential_reference(p);

  // With a zero retry budget the tripping request itself fails cleanly.
  EXPECT_THROW(pool.submit(to_request(p)).get(), Error);
  ASSERT_TRUE(pool.device_quarantined(0));

  const Response r2 = pool.submit(to_request(p)).get();
  EXPECT_EQ(r2.device, 1);

  // The next probe faults (exact nth=2 on device 0). The probe offer
  // promised low risk, so the requeue is budget-free: the request still
  // completes despite max_retries = 0 and reports zero consumed retries.
  const Response probed = pool.submit(to_request(p)).get();
  expect_same_result(probed, want, "failed probe rescued");
  EXPECT_EQ(probed.device, 1);
  EXPECT_EQ(probed.retries, 0u);

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.failed, 1u);  // only the zero-budget tripping request
  EXPECT_EQ(st.probes_placed, 1u);
  EXPECT_EQ(st.probe_successes, 0u);
  EXPECT_EQ(st.poison_failures, 0u);  // probe faults never mark poison
  EXPECT_TRUE(pool.device_quarantined(0));
}

// ---- Hedged execution ------------------------------------------------------

TEST(HealingHedge, PrimaryWinsAndLoserLeavesNoResidue) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  cfg.healing.hedge_deadline_fraction = 0.005;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9401);
  const double e = est_on_a100(p);

  // Idle-pool completion e exceeds 0.005 * (100 e) = 0.5 e: the admission
  // hedges onto the edge part. The duplicate's modeled completion can
  // only be later (the primary was the argmin), so the primary must win
  // regardless of which copy's task claims first.
  const Response got = pool.submit(to_request(p, 0, 100.0 * e)).get();
  expect_same_result(got, sequential_reference(p), "hedged request");
  EXPECT_TRUE(got.hedged);
  EXPECT_EQ(got.device, 0);
  EXPECT_EQ(got.retries, 0u);

  ASSERT_TRUE(got.trace != nullptr);
  const TraceSpan* place = find_span(*got.trace, "hedge", "action", "place");
  ASSERT_NE(place, nullptr);
  EXPECT_EQ(place->device, 1);
  const TraceSpan* cancel =
      find_span(*got.trace, "hedge", "action", "cancel");
  ASSERT_NE(cancel, nullptr);
  EXPECT_EQ(cancel->device, 1);
  EXPECT_NE(find_span(*got.trace, "hedge", "winner", "primary"), nullptr);

  pool.drain();
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.hedges_placed, 1u);
  EXPECT_EQ(st.hedges_won, 0u);
  // The canceled copy rolled fully off the modeled clock and never
  // executed: no placement, busy seconds or completion on the edge part.
  EXPECT_EQ(st.devices[1].placed, 0u);
  EXPECT_EQ(st.devices[1].completed, 0u);
  EXPECT_DOUBLE_EQ(st.devices[1].modeled_busy_seconds, 0.0);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

TEST(HealingHedge, SecondaryWinsWhenDrainDelaysThePrimary) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  cfg.healing.hedge_deadline_fraction = 0.005;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9402);
  const double e = est_on_a100(p);
  const double e_edge = simt::estimate_seconds(
      simt::edge(), [&] {
        OperandCache scratch(16ull << 20);
        return price_request(to_request(p), scratch);
      }());

  // Jam the workers so both hedge copies stay queued, then drain the
  // primary's device: the re-placement pushes the primary behind the
  // secondary on the shared survivor, flipping the modeled race.
  WorkerJam jam;
  auto fut = pool.submit(to_request(p, 0, 100.0 * e));
  wait_for_stats(pool, [](const DevicePoolStats& st) {
    return st.hedges_placed == 1;
  });
  pool.drain_device(0);
  jam.release();

  const Response got = fut.get();
  expect_same_result(got, sequential_reference(p), "drained hedge");
  EXPECT_TRUE(got.hedged);
  EXPECT_EQ(got.device, 1);
  EXPECT_EQ(got.retries, 0u);  // a drain re-placement is never a retry
  ASSERT_TRUE(got.trace != nullptr);
  EXPECT_NE(find_span(*got.trace, "hedge", "winner", "secondary"), nullptr);

  pool.drain();
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.hedges_placed, 1u);
  EXPECT_EQ(st.hedges_won, 1u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.replaced, 1u);
  // The drained device is empty; the survivor holds exactly the winning
  // copy's work — the canceled primary rolled off at decision time.
  EXPECT_EQ(st.devices[0].placed, 0u);
  EXPECT_DOUBLE_EQ(st.devices[0].modeled_busy_seconds, 0.0);
  EXPECT_EQ(st.devices[1].placed, 1u);
  EXPECT_DOUBLE_EQ(st.devices[1].modeled_busy_seconds, e_edge);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

TEST(HealingHedge, NoHedgeWithoutDeadlineOrBelowFraction) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  cfg.healing.hedge_deadline_fraction = 0.9;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9403);
  const double e = est_on_a100(p);
  // Deadline-free request: never hedged.
  const Response r1 = pool.submit(to_request(p)).get();
  EXPECT_FALSE(r1.hedged);
  // Idle completion e is well under 0.9 * 100 e: no drift, no hedge.
  const Response r2 = pool.submit(to_request(p, 0, 100.0 * e)).get();
  EXPECT_FALSE(r2.hedged);
  EXPECT_EQ(pool.stats().hedges_placed, 0u);
}

// Winner sets are a function of the modeled schedule alone: with every
// placement fixed before any execution starts (workers jammed through the
// single dispatch round), repeated runs must produce identical hedged
// flags and identical winning devices, for N = 2 and N = 4.
class HedgeDeterminismTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HedgeDeterminismTest, WinnerSetIdenticalAcrossRuns) {
  const std::size_t devices = GetParam();
  const std::vector<simt::DeviceSpec> kinds = {simt::a100(), simt::edge(),
                                               simt::a100(), simt::edge()};
  constexpr std::size_t kRequests = 16;

  std::vector<Problem> catalogue;
  catalogue.push_back(
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9501));
  catalogue.push_back(
      make_spmm_problem(64, 128, 128, 8, 0.7, precision::L16R8, 9502));
  catalogue.push_back(
      make_spmm_problem(128, 128, 64, 8, 0.8, precision::L4R4, 9503));
  catalogue.push_back(
      make_sddmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 9504));
  std::vector<Response> expected;
  std::vector<double> ests;
  for (const Problem& p : catalogue) {
    expected.push_back(sequential_reference(p));
    ests.push_back(est_on_a100(p));
  }

  std::vector<std::pair<bool, int>> first_run;  // (hedged, device) per index
  for (int run = 0; run < 3; ++run) {
    DevicePoolConfig cfg;
    cfg.devices.assign(kinds.begin(),
                       kinds.begin() + static_cast<std::ptrdiff_t>(devices));
    cfg.shard_threshold_seconds = 0;
    cfg.linger = std::chrono::seconds(2);
    cfg.max_queue_depth = kRequests;
    cfg.healing = healing_base();
    cfg.healing.quarantine_below = 0.0;
    // Threshold est(a100): every deadline request whose placement start is
    // past zero hedges; the very first placement (start == 0, completion
    // == threshold) never does. Deadlines are far too generous to shed.
    cfg.healing.hedge_deadline_fraction = 1e-4;
    DevicePool pool(cfg);

    std::vector<std::future<Response>> futures;
    std::uint64_t expected_hedges = 0;
    {
      WorkerJam jam;
      for (std::size_t i = 0; i < kRequests; ++i) {
        const Problem& p = catalogue[i % catalogue.size()];
        const double deadline =
            i % 2 == 0 ? 1e4 * ests[i % catalogue.size()] : 0.0;
        futures.push_back(pool.submit(to_request(p, 0, deadline)));
      }
      // The dispatch round (and any admission hedges) completes while the
      // jam holds every executor: placements are final before any claim.
      // Placed-minus-hedges counts primaries, so the wait ends when all of
      // them are placed; EDF places the deadline requests (the only ones
      // that hedge) first, and the dispatcher decides each hedge before
      // its next placement, so by then every hedge is placed as well.
      wait_for_stats(pool, [](const DevicePoolStats& st) {
        return total_placed(st) - st.hedges_placed >= kRequests;
      });
      expected_hedges = pool.stats().hedges_placed;
      jam.release();
    }

    std::vector<std::pair<bool, int>> outcome;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Response r = futures[i].get();
      expect_same_result(r, expected[i % catalogue.size()],
                         "determinism stream");
      outcome.emplace_back(r.hedged, r.device);
    }
    pool.drain();

    const DevicePoolStats st = pool.stats();
    EXPECT_EQ(st.hedges_placed, expected_hedges);
    EXPECT_GE(st.hedges_placed, 1u);
    EXPECT_LT(st.hedges_placed, kRequests / 2 + 1);
    // With placements frozen before any claim and no faults or drains,
    // every duplicate's completion trails its primary: the primary always
    // wins and every canceled copy vanished without an execution.
    EXPECT_EQ(st.hedges_won, 0u);
    std::uint64_t executed = 0;
    for (const DeviceStats& d : st.devices) executed += d.completed;
    EXPECT_EQ(executed, kRequests);

    if (run == 0) {
      first_run = outcome;
      std::size_t hedged_count = 0;
      for (const auto& [hedged, dev] : outcome) hedged_count += hedged;
      EXPECT_GE(hedged_count, 1u);
    } else {
      EXPECT_EQ(outcome, first_run) << "winner set diverged on run " << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, HedgeDeterminismTest,
                         ::testing::Values(2u, 4u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// ---- Poison isolation ------------------------------------------------------

TEST(HealingPoison, FailsFastAfterFaultsOnDistinctDevices) {
  DevicePoolConfig cfg;
  cfg.device_count = 3;
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 8;
  cfg.fault_plan.probability = 1.0;  // every execution faults
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  cfg.healing.poison_fault_devices = 2;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9601);
  auto fut = pool.submit(to_request(p));
  // Two faults on two distinct devices: the request is the common factor,
  // so it fails fast as PoisonError instead of burning six more retries.
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const PoisonError& e) {
          EXPECT_NE(std::string(e.what()).find("poison"),
                    std::string::npos);
          throw;
        }
      },
      PoisonError);

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.poison_failures, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.retries, 1u);          // only the first requeue happened
  EXPECT_EQ(st.faults_injected, 2u);  // one per distinct device
}

TEST(HealingPoison, ShardedRequestPoisonsOnce) {
  DevicePoolConfig cfg;
  cfg.device_count = 3;
  cfg.shard_threshold_seconds = 1e-9;  // shard everything shardable
  cfg.wave_floor_blocks = 1;
  cfg.max_retries = 8;
  cfg.fault_plan.probability = 1.0;
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  cfg.healing.poison_fault_devices = 2;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(256, 128, 128, 8, 0.5, precision::L8R8, 9602);
  EXPECT_THROW(pool.submit(to_request(p)).get(), PoisonError);

  // Several slices poison in parallel, but only the one that wins the
  // shard's error slot is counted — the invariant poison_failures <=
  // failed survives sharding.
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.poison_failures, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

TEST(HealingPoison, DisabledPoisonKeepsRetrying) {
  DevicePoolConfig cfg;
  cfg.device_count = 3;
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 4;
  cfg.fault_plan.probability = 1.0;
  // healing disabled: the budget, not the poison rule, ends the request.
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9603);
  try {
    pool.submit(to_request(p)).get();
    FAIL() << "a 100% fault rate with a finite budget must fail";
  } catch (const PoisonError&) {
    FAIL() << "poison isolation fired with healing disabled";
  } catch (const Error&) {
  }
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.poison_failures, 0u);
  EXPECT_EQ(st.retries, 4u);  // the whole budget was spent
}

// ---- Retry budget ----------------------------------------------------------

TEST(HealingRetryBudget, DrainReplacementConsumesNoBudget) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 0;  // any consumed retry would fail the request
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 1;
  cfg.healing = healing_base();
  cfg.healing.quarantine_below = 0.0;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9701);

  WorkerJam jam;
  auto fut = pool.submit(to_request(p));
  wait_for_stats(pool, [](const DevicePoolStats& st) {
    return total_placed(st) == 1;
  });
  pool.drain_device(0);  // re-places the queued ticket onto the edge part
  jam.release();

  const Response got = fut.get();
  expect_same_result(got, sequential_reference(p), "re-placed request");
  EXPECT_EQ(got.device, 1);
  EXPECT_EQ(got.retries, 0u);
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.replaced, 1u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.failed, 0u);
}

// ---- Invariants under churn ------------------------------------------------

class HealingInvariantsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HealingInvariantsTest, CountersConsistentUnderFaultyStream) {
  const std::size_t devices = GetParam();
  const std::vector<simt::DeviceSpec> kinds = {simt::a100(), simt::edge(),
                                               simt::a100(), simt::edge()};

  std::vector<Problem> catalogue;
  catalogue.push_back(
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9801));
  catalogue.push_back(
      make_spmm_problem(64, 128, 128, 8, 0.7, precision::L16R8, 9802));
  catalogue.push_back(
      make_sddmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 9803));
  std::vector<Response> expected;
  std::vector<double> ests;
  for (const Problem& p : catalogue) {
    expected.push_back(sequential_reference(p));
    ests.push_back(est_on_a100(p));
  }

  DevicePoolConfig cfg;
  cfg.devices.assign(kinds.begin(),
                     kinds.begin() + static_cast<std::ptrdiff_t>(devices));
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.max_retries = 8;
  // Heavy early faults on device 0 plus a light background everywhere.
  cfg.fault_plan.probability = 0.05;
  cfg.fault_plan.windows.push_back(
      {/*device=*/0, /*probability=*/0.6, /*from=*/1, /*to=*/30});
  cfg.fault_plan.seed = 0x4ea1 + devices;
  cfg.healing.enabled = true;
  cfg.healing.health_alpha = 0.3;
  cfg.healing.quarantine_below = 0.5;
  cfg.healing.min_health_samples = 4;
  cfg.healing.probe_interval = 4;
  cfg.healing.reinstate_after = 2;
  cfg.healing.hedge_deadline_fraction = 1e-4;
  cfg.healing.poison_fault_devices = 2;
  DevicePool pool(cfg);

  constexpr int kRequests = 60;
  std::vector<std::pair<std::size_t, std::future<Response>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t pick =
        static_cast<std::size_t>(i) % catalogue.size();
    const double deadline = i % 3 == 0 ? 1e4 * ests[pick] : 0.0;
    futures.emplace_back(
        pick, pool.submit(to_request(catalogue[pick], 0, deadline)));
  }

  std::uint64_t poison_caught = 0;
  std::uint64_t clean_failures = 0;
  for (auto& [pick, f] : futures) {
    try {
      expect_same_result(f.get(), expected[pick], "healing stream");
    } catch (const PoisonError&) {
      poison_caught += 1;
    } catch (const Error&) {
      clean_failures += 1;
    }
  }
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, poison_caught + clean_failures);
  // The counter invariants the property tier pins down:
  EXPECT_LE(st.hedges_won, st.hedges_placed);
  EXPECT_LE(st.reinstatements, st.quarantines);
  EXPECT_LE(st.probe_successes, st.probes_placed);
  EXPECT_LE(st.poison_failures, st.failed);
  EXPECT_EQ(st.poison_failures, poison_caught);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
  for (std::size_t d = 0; d < devices; ++d) {
    const double h = pool.device_health(d);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, HealingInvariantsTest,
                         ::testing::Values(2u, 4u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// ---- Chaos soak (TSan lane: MAGICUBE_SOAK_SECONDS extends it) --------------

// The sequential twin of bench/chaos_soak.cpp, sized for the test tier and
// runnable under TSan (the sanitizer lane builds with benches off, so the
// soak regression rides here): sustained faults concentrated on device 0
// must trip the breaker, probes must reinstate it, hedges must fire, and
// every served response stays bit-exact throughout.
TEST(HealingChaosSoak, QuarantineRecoveryAndHedgingUnderSustainedFaults) {
  double soak_seconds = 0.0;
  if (const char* e = std::getenv("MAGICUBE_SOAK_SECONDS")) {
    soak_seconds = std::atof(e);
    ASSERT_GT(soak_seconds, 0.0) << "MAGICUBE_SOAK_SECONDS must be positive";
  }

  std::vector<Problem> catalogue;
  catalogue.push_back(
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9901));
  catalogue.push_back(
      make_spmm_problem(64, 64, 128, 8, 0.7, precision::L16R8, 9902));
  catalogue.push_back(
      make_sddmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 9903));
  std::vector<Response> expected;
  std::vector<double> ests;
  for (const Problem& p : catalogue) {
    expected.push_back(sequential_reference(p));
    ests.push_back(est_on_a100(p));
  }

  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge(), simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(1);
  cfg.max_retries = 8;
  cfg.trace_capacity = 64;
  cfg.fault_plan.probability = 0.01;
  cfg.fault_plan.windows.push_back(
      {/*device=*/0, /*probability=*/0.5, /*from=*/1, /*to=*/25});
  cfg.fault_plan.seed = 0xc4a0;
  cfg.healing.enabled = true;
  cfg.healing.health_alpha = 0.3;
  cfg.healing.quarantine_below = 0.6;
  cfg.healing.min_health_samples = 4;
  cfg.healing.probe_interval = 4;
  cfg.healing.reinstate_after = 3;
  cfg.healing.hedge_deadline_fraction = 0.02;
  cfg.healing.poison_fault_devices = 2;
  DevicePool pool(cfg);

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::size_t served = 0, failed = 0;
  std::size_t i = 0;
  constexpr std::size_t kBaseRequests = 300;
  while (true) {
    const bool more_time = soak_seconds > 0.0 && elapsed() < soak_seconds;
    if (i >= kBaseRequests && !more_time) {
      const DevicePoolStats st = pool.stats();
      if (st.reinstatements >= 1 || i >= 4 * kBaseRequests) break;
      // Keep going until the recovery arc completes (bounded overall).
    }
    const std::size_t pick = i % catalogue.size();
    double deadline = 0.0;
    if (i % 4 == 3) {
      // A generous deadline relative to the observed backlog: admits
      // cleanly but sits far enough past the hedge fraction to duplicate.
      double max_busy = 0.0;
      for (const DeviceStats& d : pool.stats().devices) {
        max_busy = std::max(max_busy, d.modeled_busy_seconds);
      }
      deadline = max_busy + 10.0 * ests[pick];
    }
    try {
      const Response r =
          pool.submit(to_request(catalogue[pick], 0, deadline)).get();
      expect_same_result(r, expected[pick], "chaos soak");
      served += 1;
    } catch (const Error&) {
      failed += 1;  // poison / exhaustion / shed: clean, counted
    }
    i += 1;
  }
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_GE(st.quarantines, 1u) << "sustained faults never tripped the "
                                   "breaker";
  EXPECT_GE(st.reinstatements, 1u) << "no probe-driven recovery happened";
  EXPECT_GE(st.probes_placed, st.reinstatements);
  EXPECT_GE(st.hedges_placed, 1u);
  EXPECT_LE(st.hedges_won, st.hedges_placed);
  EXPECT_LE(st.poison_failures, st.failed);
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, static_cast<std::uint64_t>(failed));
  // Goodput floor: the healing layer keeps the fleet serving through the
  // fault storm.
  EXPECT_GE(static_cast<double>(served) / static_cast<double>(served +
                                                              failed),
            0.9);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

}  // namespace
}  // namespace magicube::serve
