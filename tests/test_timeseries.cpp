// Observability layer: SeriesRecorder window algebra, sweep time-series
// determinism, tracer purity, and the Chrome trace export.
//
// The time series and the tracer are *pure observers* — the tests here pin
// the three properties that make them safe to leave on in CI:
//   1. the per-window deltas obey the documented per-kind algebra (window
//      sums reconstruct the run delta bit-exactly),
//   2. series and reports are bit-identical for any worker count,
//      and telemetry fingerprints do not move when tracing is armed,
//   3. recording is bounded (full rings count drops, never grow).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/sweep.hpp"
#include "sim/simulation.hpp"
#include "stats/metric_set.hpp"
#include "stats/time_series.hpp"
#include "stats/trace.hpp"

namespace metro {
namespace {

using scenario::SeriesWindow;
using scenario::ShardResult;
using scenario::ShardSeries;

// --- SeriesRecorder window algebra (synthetic registry) ---------------------

/// A registry with one metric of every kind, mutated by hand between
/// manual sample() calls so each window's expected delta is known exactly.
struct SyntheticMetrics {
  stats::MetricSet set;
  std::uint64_t hits = 0;
  double level = 0.0;
  stats::Summary& lat;
  stats::Histogram& hist;

  SyntheticMetrics()
      : lat(set.summary("lat_us")), hist(set.histogram("lat_hist", 1.0, 50.0)) {
    set.attach_counter("hits", hits);
    set.attach_gauge("level", level);
  }

  void record(std::uint64_t n, double value) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ++hits;
      lat.add(value);
      hist.add(value);
    }
    level = value;
  }
};

TEST(SeriesRecorderTest, WindowDeltasObeyThePerKindAlgebra) {
  SyntheticMetrics m;
  stats::SeriesConfig cfg;
  cfg.interval = 1000;
  cfg.capacity = 8;
  stats::SeriesRecorder rec(m.set, cfg);

  rec.prime(0);
  m.record(10, 3.0);
  rec.sample(1000);
  m.record(25, 7.0);
  rec.sample(2000);
  m.record(5, 42.0);
  rec.finish(2500);  // partial tail window still closes

  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.window(0).t_end, 1000);
  EXPECT_EQ(rec.window(1).t_end, 2000);
  EXPECT_EQ(rec.window(2).t_end, 2500);

  // Counters: exact per-window deltas that sum to the run delta.
  EXPECT_EQ(rec.window(0).delta.counter("hits"), 10u);
  EXPECT_EQ(rec.window(1).delta.counter("hits"), 25u);
  EXPECT_EQ(rec.window(2).delta.counter("hits"), 5u);

  // Gauges: a level, not a total — each window reports the value at its
  // close, and the last window is the final level.
  EXPECT_DOUBLE_EQ(rec.window(0).delta.gauge("level"), 3.0);
  EXPECT_DOUBLE_EQ(rec.window(1).delta.gauge("level"), 7.0);
  EXPECT_DOUBLE_EQ(rec.window(2).delta.gauge("level"), 42.0);

  // Summaries: count and sum are window-exact (moment subtraction).
  std::uint64_t sum_count = 0;
  double sum_sum = 0.0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    sum_count += rec.window(i).delta.summary("lat_us").count();
    sum_sum += rec.window(i).delta.summary("lat_us").sum();
  }
  EXPECT_EQ(sum_count, m.lat.count());
  EXPECT_DOUBLE_EQ(sum_sum, m.lat.sum());
  EXPECT_EQ(rec.window(1).delta.summary("lat_us").count(), 25u);
  EXPECT_DOUBLE_EQ(rec.window(1).delta.summary("lat_us").sum(), 25 * 7.0);
  EXPECT_DOUBLE_EQ(rec.window(1).delta.summary("lat_us").mean(), 7.0);

  // Histograms: bin-wise exact subtraction — summing every window's bins
  // reconstructs the run histogram bin for bin.
  const stats::Histogram& run = m.hist;
  for (std::size_t b = 0; b < run.n_bins(); ++b) {
    std::uint64_t windows_sum = 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
      windows_sum += rec.window(i).delta.histogram("lat_hist").bin_count(b);
    }
    ASSERT_EQ(windows_sum, run.bin_count(b)) << "bin " << b;
  }
  EXPECT_EQ(rec.window(2).delta.histogram("lat_hist").count(), 5u);

  // Each window's precomputed fingerprint is the fingerprint of its delta.
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(rec.window(i).fingerprint, rec.window(i).delta.fingerprint()) << i;
  }
  EXPECT_NE(rec.window(0).fingerprint, rec.window(1).fingerprint)
      << "different window contents must fingerprint differently";
}

TEST(SeriesRecorderTest, FinishClosesATailOnlyWhenSomethingHappened) {
  SyntheticMetrics m;
  stats::SeriesRecorder rec(m.set, {1000, 4});
  rec.prime(0);
  m.record(3, 1.0);
  rec.sample(1000);
  rec.finish(1000);  // nothing since the last edge: no empty tail window
  EXPECT_EQ(rec.size(), 1u);

  // Same-timestamp work after the last sample still lands in a window: a
  // periodic tick fires before other events sharing its fire time, so the
  // tail must close on "registry moved", not just "time elapsed".
  stats::SeriesRecorder rec2(m.set, {1000, 4});
  rec2.prime(0);
  m.record(2, 1.0);
  rec2.sample(1000);
  m.record(4, 1.0);
  rec2.finish(1000);
  ASSERT_EQ(rec2.size(), 2u);
  EXPECT_EQ(rec2.window(1).delta.counter("hits"), 4u);
  EXPECT_EQ(rec2.window(1).t_end, 1000);
}

TEST(SeriesRecorderTest, FullRingCountsDropsInsteadOfGrowing) {
  SyntheticMetrics m;
  stats::SeriesRecorder rec(m.set, {1000, 2});
  rec.prime(0);
  for (int i = 1; i <= 5; ++i) {
    m.record(1, 1.0);
    rec.sample(i * 1000);
  }
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.capacity(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  // The surviving windows are the first two, untouched by the overflow.
  EXPECT_EQ(rec.window(0).t_end, 1000);
  EXPECT_EQ(rec.window(1).t_end, 2000);
}

TEST(SeriesRecorderTest, RejectsDegenerateConfig) {
  SyntheticMetrics m;
  EXPECT_THROW(stats::SeriesRecorder(m.set, {0, 8}), std::invalid_argument);
  EXPECT_THROW(stats::SeriesRecorder(m.set, {-5, 8}), std::invalid_argument);
  EXPECT_THROW(stats::SeriesRecorder(m.set, {1000, 0}), std::invalid_argument);
}

TEST(SeriesRecorderTest, ArmedSamplingTicksOnTheKernel) {
  SyntheticMetrics m;
  sim::Simulation sim;
  struct Bump {
    sim::Simulation* sim;
    SyntheticMetrics* m;
    void operator()() const {
      m->record(1, 2.0);
      sim->schedule_after(100, *this);
    }
  };
  sim.schedule_after(100, Bump{&sim, &m});

  stats::SeriesRecorder rec(m.set, {1000, 16});
  rec.arm(sim);
  EXPECT_TRUE(rec.armed());
  sim.run_until(10 * 1000);
  rec.finish(sim.now());
  EXPECT_FALSE(rec.armed());

  // 10 periodic windows, plus the same-timestamp tail: the bump sharing
  // the final tick's fire time lands after the tick, so finish() closes
  // one more window at the same t_end to keep the sum identity.
  ASSERT_EQ(rec.size(), 11u);
  EXPECT_EQ(rec.window(9).t_end, rec.window(10).t_end);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    total += rec.window(i).delta.counter("hits");
  }
  EXPECT_EQ(total, m.hits) << "armed windows sum to the run total";

  // Disarm is final: further kernel time adds no windows.
  sim.run_until(20 * 1000);
  EXPECT_EQ(rec.size(), 11u);
}

// --- sweep integration: series determinism, tracer purity -------------------

apps::ExperimentConfig series_config() {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 3;
  cfg.met.n_threads = 3;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 12.0;
  cfg.workload.n_flows = 256;
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 5 * sim::kMillisecond;
  cfg.seed = 1234;
  cfg.series_interval = sim::kMillisecond;
  return cfg;
}

/// Two seeds of the series point: two shards whose windows line up.
std::vector<scenario::Shard> series_shards() {
  auto other = series_config();
  other.seed = 1235;
  return {{"series_point", series_config()}, {"series_point_2", other}};
}

void expect_same_series(const ShardSeries& a, const ShardSeries& b, const char* what) {
  ASSERT_EQ(a.interval, b.interval) << what;
  ASSERT_EQ(a.dropped_windows, b.dropped_windows) << what;
  ASSERT_EQ(a.windows.size(), b.windows.size()) << what;
  for (std::size_t k = 0; k < a.windows.size(); ++k) {
    const SeriesWindow& x = a.windows[k];
    const SeriesWindow& y = b.windows[k];
    EXPECT_EQ(x.t_end, y.t_end) << what << " window " << k;
    EXPECT_EQ(x.fingerprint, y.fingerprint) << what << " window " << k;
    EXPECT_EQ(x.rx, y.rx) << what << " window " << k;
    EXPECT_EQ(x.tx, y.tx) << what << " window " << k;
    EXPECT_EQ(x.dropped, y.dropped) << what << " window " << k;
    EXPECT_EQ(x.latency_count, y.latency_count) << what << " window " << k;
    EXPECT_EQ(x.latency_sum_us, y.latency_sum_us) << what << " window " << k;
    EXPECT_EQ(x.wakeups, y.wakeups) << what << " window " << k;
  }
}

TEST(SweepSeriesTest, SeriesAndReportIdenticalAcrossWorkerCounts) {
  const auto shards = series_shards();
  const auto serial = scenario::SweepRunner(1).run(shards);
  const auto parallel = scenario::SweepRunner(4).run(shards);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].failed) << serial[i].error;
    EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint) << "shard " << i;
    ASSERT_GT(serial[i].series.windows.size(), 2u) << "series recorded";
    expect_same_series(serial[i].series, parallel[i].series,
                       ("shard " + std::to_string(i)).c_str());
  }
  EXPECT_EQ(scenario::report_json(shards, serial, false),
            scenario::report_json(shards, parallel, false))
      << "timeseries blocks must not break report byte-identity";
}

TEST(SweepSeriesTest, WindowsSumToTheShardsMeasurementTotals) {
  const auto shards = series_shards();
  const auto results = scenario::SweepRunner(2).run(shards);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    ASSERT_FALSE(r.failed) << r.error;
    ASSERT_EQ(r.series.dropped_windows, 0u) << "shard " << i;
    std::uint64_t rx = 0, tx = 0, dropped = 0, lat = 0, wakeups = 0;
    for (const SeriesWindow& w : r.series.windows) {
      rx += w.rx;
      tx += w.tx;
      dropped += w.dropped;
      lat += w.latency_count;
      wakeups += w.wakeups;
    }
    // The series covers the measurement window, so it must reconstruct
    // the measurement-window totals exactly — not the whole-run counters
    // (those include warmup).
    EXPECT_EQ(rx, r.result.rx_packets) << "shard " << i;
    EXPECT_EQ(tx, r.result.tx_packets) << "shard " << i;
    EXPECT_EQ(dropped, r.result.dropped_packets) << "shard " << i;
    EXPECT_EQ(lat, r.latency_count) << "shard " << i;
    EXPECT_GT(wakeups, 0u) << "shard " << i << ": Metronome wake-ups sampled";
  }
}

TEST(SweepSeriesTest, TracingIsAPureObserver) {
  const auto shards = series_shards();
  scenario::SweepRunner plain(2);
  scenario::SweepRunner traced(2);
  traced.set_tracing(1u << 14);
  const auto off = plain.run(shards);
  const auto on = traced.run(shards);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    // The full telemetry fingerprint and every per-window fingerprint are
    // bit-identical with tracing on or off: recording never feeds back.
    EXPECT_EQ(off[i].fingerprint, on[i].fingerprint) << "shard " << i;
    expect_same_series(off[i].series, on[i].series, "traced vs untraced");
    EXPECT_EQ(off[i].trace, nullptr);
    ASSERT_NE(on[i].trace, nullptr);
    EXPECT_GT(on[i].trace->size(), 0u) << "shard " << i << " recorded events";
    // The ring opens with the measurement window: attached any earlier,
    // warm-up would fill a small ring before the window it is read for.
    EXPECT_GE(on[i].trace->event(0).ts, shards[i].config.warmup) << "shard " << i;
    // The Metronome instrumentation fired: sleep spans exist in every shard.
    EXPECT_GT(on[i].trace->count(trace::id::kMetSleep), 0u) << "shard " << i;
    EXPECT_GT(on[i].trace->count(trace::id::kRxBurst), 0u) << "shard " << i;
  }
  // Wall lanes exist per worker while tracing; they are wall-clock only
  // and never part of the deterministic comparisons above.
  EXPECT_EQ(traced.wall_tracers().size(), 2u);
  EXPECT_TRUE(plain.wall_tracers().empty());
}

// --- tracer ring and Chrome export ------------------------------------------

TEST(TracerTest, FullRingDropsInsteadOfGrowing) {
  trace::Tracer t(4);
  for (int i = 0; i < 10; ++i) t.instant(trace::id::kKernelFire, i * 100, i);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.event(0).ts, 0);
  EXPECT_EQ(t.event(3).ts, 300);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, ChromeExportStructure) {
  trace::Tracer t(16);
  t.instant(trace::id::kKernelFire, 1500, 42);
  t.span(trace::id::kMetSleep, 2000, 500, 12345, /*tid=*/1, /*arg2=*/0);
  const std::uint32_t custom = t.intern("test", "custom_event", "payload");
  t.instant(custom, 3000, 7);

  std::ostringstream os;
  trace::write_chrome_trace(os, {{"lane-a", &t}});
  const std::string json = os.str();

  // Structure: one traceEvents array, a process_name metadata record, the
  // three events with their categories, phases and µs timestamps.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"lane-a\""), std::string::npos);
  EXPECT_NE(json.find("\"fire\""), std::string::npos);
  EXPECT_NE(json.find("\"sleep\""), std::string::npos);
  EXPECT_NE(json.find("\"custom_event\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"met\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << "span phase";
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos) << "instant phase";
  EXPECT_NE(json.find("1.5"), std::string::npos) << "1500 ns -> 1.5 us";
  // Balanced braces/brackets: the writer closed everything it opened.
  std::ptrdiff_t braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace metro
