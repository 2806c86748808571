// The benchmark's own checks: the percentile rule, span self-time
// arithmetic, and seed -> identical inputs. They
// run at the start of every benchmark run (and alone with --self-test); a
// failure stops the run before anything is measured.

#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test failed: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_rule() {
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 99.0) == 9, "999 samples leave 9 beyond p99");
  expect(highest_supported_percentile(19) == 0.0, "19 samples support nothing");
  expect(highest_supported_percentile(20) == 50.0, "20 samples support p50");
  expect(highest_supported_percentile(999) == 90.0, "999 samples support p90");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples support p99");
  expect(highest_supported_percentile(10000) == 99.9,
         "10000 samples support p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile_sorted(v, 50.0) == 500.0, "nearest-rank p50 of 1..1000");
  expect(percentile_sorted(v, 99.0) == 990.0, "nearest-rank p99 of 1..1000");
  const LatencySummary s = summarize_latency(v, "self-test");
  expect(s.n == 1000 && s.windows == 1 && s.p99 == 990.0 && s.top_pct == 99.0,
         "summary carries its sample count and top percentile");
  // Three windows; a burst in the middle one does not move the p99.
  std::vector<double> w;
  for (int k = 0; k < 3; ++k) {
    for (int i = 1; i <= 1000; ++i) w.push_back(k == 1 ? 1e6 : i + k);
  }
  const LatencySummary ws = summarize_latency(w, "self-test");
  expect(ws.windows == 3 && ws.p99 == 992.0,
         "the p99 is the median of the window p99s");
  bool threw = false;
  try {
    v.pop_back();
    summarize_latency(v, "self-test");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "a p99 from 999 samples is refused");
}

void self_time_arithmetic() {
  // Parent [0, 100]; children overlap and one sticks out of the parent.
  expect(near(self_time(0, 100, {{10, 30}, {20, 50}, {60, 70}}), 50.0),
         "self time is the parent minus the union of its children");
  expect(near(self_time(0, 100, {{90, 130}}), 90.0),
         "children are clipped to the parent");
  expect(near(self_time(0, 100, {}), 100.0), "a leaf's self time is its span");
  expect(near(self_time(0, 100, {{0, 100}, {10, 20}}), 0.0),
         "a fully covered parent has no self time");

  // Recorded spans reduce the same way, per layer.
  Tracer& t = Tracer::get();
  auto& buf = t.buffer();
  const std::size_t base = buf.spans.size();
  const Clock::time_point z{};
  auto at = [&](int ms) { return z + std::chrono::milliseconds(ms); };
  buf.spans.push_back({"bench.round", -1, 0, at(0), at(100)});
  buf.spans.push_back({"core.spmm", static_cast<std::int64_t>(base), 0, at(10),
                       at(40)});
  buf.spans.push_back({"simt.estimate", static_cast<std::int64_t>(base) + 1, 0,
                       at(20), at(25)});
  const auto self = t.self_seconds_by_layer();
  expect(near(self.at("bench"), 0.070) && near(self.at("core"), 0.025) &&
             near(self.at("simt"), 0.005),
         "per-layer self time of nested spans");
  buf.spans.resize(base);
}

void seed_determinism() {
  const auto a = make_kernel_mix(7, 3), b = make_kernel_mix(7, 3),
             c = make_kernel_mix(8, 3);
  expect(a.size() == 3 && fingerprint(a) == fingerprint(b),
         "kernel_mix inputs repeat for one seed");
  expect(fingerprint(a) != fingerprint(c), "kernel_mix inputs move with the seed");
  const MixEntry g1 = make_giant(7), g2 = make_giant(7), g3 = make_giant(8);
  expect(fingerprint({g1}) == fingerprint({g2}), "the giant repeats for one seed");
  expect(fingerprint({g1}) != fingerprint({g3}), "the giant moves with the seed");
  expect(fingerprint(*make_stream_mask(7, 1, 2)) ==
                 fingerprint(*make_stream_mask(7, 1, 2)) &&
             fingerprint(make_stream_rows(7, 1, 2, 3)) ==
                 fingerprint(make_stream_rows(7, 1, 2, 3)),
         "attention_stream inputs repeat for one seed");
  expect(fingerprint(make_stream_rows(7, 1, 2, 3)) !=
             fingerprint(make_stream_rows(8, 1, 2, 3)),
         "attention_stream inputs move with the seed");
  // Every (client, round, step) gets its own rows, set-up rounds included.
  std::set<std::uint64_t> rows;
  std::size_t made = 0;
  for (const std::size_t client : {0, 1, 2, 3}) {
    for (const std::size_t round : {std::size_t{0}, std::size_t{1},
                                    kStreamWarmRoundBase,
                                    kStreamWarmRoundBase + 1}) {
      for (const std::size_t step : {0, 63}) {
        rows.insert(fingerprint(make_stream_rows(7, client, round, step)));
        ++made;
      }
    }
  }
  expect(rows.size() == made, "stream rows are distinct per client, round and step");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentile_rule();
  self_time_arithmetic();
  seed_determinism();
  return failures;
}

}  // namespace perfbench
