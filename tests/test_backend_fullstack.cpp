// App-level cross-store determinism: every cross-store assertion above
// the kernel lives here.
//
// The kernel guarantees bit-identical *event traces* on either event
// store (test_determinism.cpp), and the whole app stack — Core,
// SleepService, rings, Port, drivers, Metronome, feeder, Testbed — runs
// on whichever store its Simulation was built with, so the same guarantee
// must hold one level up: an identical ExperimentConfig run on Testbed
// (the heap) and BasicTestbed<WheelSimulation> must produce identical
// packet counters, identical driver statistics and an identical latency
// histogram, bin for bin — for every arrival model, under faults, window
// by window of a telemetry series, and for an external pcap. The sweeps
// and figure benches run on the heap alone; the wheel stays for the kernel
// bench and metrobench, which compare the stores — provided the wheel
// spellings really do run the wheel, which the last test pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "net/pcap.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "stats/trace.hpp"
#include "tgen/trace.hpp"

namespace metro::apps {
namespace {

struct FullstackFingerprint {
  // Full-telemetry digest: every registered metric of every layer, in one
  // order-sensitive value (stats::MetricSet::fingerprint).
  std::uint64_t telemetry = 0;
  // Port / ring counters over the whole run.
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
  std::uint64_t tx = 0;
  std::uint64_t processed = 0;
  std::uint64_t events = 0;
  std::uint64_t inlined = 0;  // events advance_inline() ran in place
  sim::Time final_clock = 0;
  // Measurement-window result counters.
  std::uint64_t wakeups = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_overflow = 0;
  // Raw latency histogram bins (the full distribution, not summaries).
  std::vector<std::uint64_t> latency_bins;
  // Continuous observables; bit-identical runs produce bit-identical
  // doubles (same arithmetic on the same operand sequence).
  double throughput_mpps = 0.0;
  double cpu_percent = 0.0;
  double package_watts = 0.0;
  double rho = 0.0;

  bool operator==(const FullstackFingerprint&) const = default;
};

/// Run `cfg`'s warm-up and measurement windows, each in run_until() slices
/// of `slice` ns (0: one slice per window).
template <typename Sim>
FullstackFingerprint run_fullstack(const ExperimentConfig& cfg, sim::Time slice = 0) {
  BasicTestbed<Sim> bed(cfg);
  const auto run_to = [&](sim::Time from, sim::Time to) {
    if (slice > 0) {
      for (sim::Time t = from + slice; t < to; t += slice) bed.run_until(t);
    }
    bed.run_until(to);
  };
  bed.start();
  run_to(0, cfg.warmup);
  bed.begin_measurement();
  run_to(cfg.warmup, cfg.warmup + cfg.measure);
  const ExperimentResult r = bed.finish_measurement();

  FullstackFingerprint fp;
  fp.telemetry = bed.telemetry().fingerprint();
  fp.rx = bed.port().total_rx();
  fp.dropped = bed.port().total_dropped();
  fp.tx = bed.port().tx().total_transmitted();
  fp.processed = bed.packets_processed();
  fp.events = bed.sim().events_processed();
  fp.inlined = bed.sim().events_inlined();
  fp.final_clock = bed.sim().now();
  fp.wakeups = r.wakeups;
  const stats::Histogram& h = bed.latency_histogram();
  fp.latency_count = h.count();
  fp.latency_overflow = h.overflow();
  fp.latency_bins.reserve(h.n_bins());
  for (std::size_t i = 0; i < h.n_bins(); ++i) fp.latency_bins.push_back(h.bin_count(i));
  fp.throughput_mpps = r.throughput_mpps;
  fp.cpu_percent = r.cpu_percent;
  fp.package_watts = r.package_watts;
  fp.rho = r.rho;
  return fp;
}

using WheelTestbed = BasicTestbed<sim::WheelSimulation>;

/// `cfg` as one sweep shard on a `Bed` built here, through the sweep's
/// own measuring code (scenario::measure_shard).
template <typename Bed>
scenario::ShardResult measure_on(const ExperimentConfig& cfg, std::size_t trace_capacity = 0) {
  const scenario::Shard shard{"t", cfg};
  const auto t0 = std::chrono::steady_clock::now();
  Bed bed(cfg);
  return scenario::measure_shard(bed, shard, t0, 0.0, trace_capacity);
}

/// A shard's deterministic outputs on the heap and the wheel must agree.
void expect_same_shard(const scenario::ShardResult& heap, const scenario::ShardResult& wheel) {
  EXPECT_EQ(heap.fingerprint, wheel.fingerprint);
  EXPECT_EQ(heap.counters, wheel.counters);
  EXPECT_EQ(heap.events, wheel.events);
  EXPECT_EQ(heap.final_clock, wheel.final_clock);
  EXPECT_EQ(heap.latency_count, wheel.latency_count);
}

ExperimentConfig small_metronome_config() {
  // Metronome driver, 2 queues — small enough for tier-1, big enough to
  // exercise RSS dispatch, trylock contention, Tx batching and the
  // latency-recording path.
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 3;
  cfg.met.n_threads = 3;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 20.0;
  cfg.workload.n_flows = 512;
  cfg.warmup = 10 * sim::kMillisecond;
  cfg.measure = 30 * sim::kMillisecond;
  return cfg;
}

TEST(BackendFullstackTest, MetronomeCountersIdenticalAcrossBackends) {
  const auto cfg = small_metronome_config();
  const auto heap = run_fullstack<sim::Simulation>(cfg);
  const auto wheel = run_fullstack<sim::WheelSimulation>(cfg);
  ASSERT_GT(heap.processed, 100000u) << "scenario must do real work";
  ASSERT_GT(heap.latency_count, 0u) << "latency histogram must record";
  EXPECT_EQ(heap, wheel);
}

TEST(BackendFullstackTest, StaticPollingCountersIdenticalAcrossBackends) {
  auto cfg = small_metronome_config();
  cfg.driver = DriverKind::kStaticPolling;
  cfg.governor = sim::Governor::kOndemand;  // governor-tick timers too
  const auto heap = run_fullstack<sim::Simulation>(cfg);
  const auto wheel = run_fullstack<sim::WheelSimulation>(cfg);
  ASSERT_GT(heap.processed, 100000u);
  EXPECT_EQ(heap, wheel);
}

TEST(BackendFullstackTest, PerFlowSourcesIdenticalAcrossBackends) {
  // The large-pending-population workload mode (one timer per flow) —
  // the regime the wheel backend targets — must also be trace-identical.
  auto cfg = small_metronome_config();
  cfg.workload.model = ArrivalModel::kPerFlow;
  cfg.workload.n_flows = 2048;
  cfg.workload.rate_mpps = 10.0;
  cfg.measure = 15 * sim::kMillisecond;
  const auto heap = run_fullstack<sim::Simulation>(cfg);
  const auto wheel = run_fullstack<sim::WheelSimulation>(cfg);
  ASSERT_GT(heap.processed, 50000u);
  EXPECT_EQ(heap, wheel);
}

TEST(BackendFullstackTest, InPlaceEventsAreSliceInvariant) {
  // Metronome alone on an X520 at 0.744 Mpps (Fig. 10's lowest rate): the
  // thread sleeps, wakes and runs a few jobs, alone on its core, so most
  // of its events run in place (advance_inline). A grant never reaches past
  // the running slice, so 7 us slices refuse some of them — and must still
  // compute the same run, counting the same events.
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.workload.rate_mpps = 0.744;
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 8 * sim::kMillisecond;
  const auto whole = run_fullstack<sim::Simulation>(cfg);
  const auto sliced = run_fullstack<sim::Simulation>(cfg, 7 * sim::kMicrosecond);
  ASSERT_GT(whole.processed, 5000u) << "scenario must do real work";
  EXPECT_EQ(whole.telemetry, sliced.telemetry);
  EXPECT_EQ(whole.events, sliced.events);
  EXPECT_EQ(whole.final_clock, sliced.final_clock);
  EXPECT_EQ(whole.latency_bins, sliced.latency_bins);
  EXPECT_GT(sliced.inlined, 0u);
  EXPECT_LE(sliced.inlined, whole.inlined);
  // The canary: if the in-place path silently died, every wake-up and
  // job would go back through the store.
  EXPECT_GT(2 * whole.inlined, whole.events)
      << whole.inlined << " of " << whole.events << " events ran in place";
}

template <typename Sim>
void expect_flow_timers_outside_the_store() {
  // The per-flow mode keeps one arrival armed per flow, and the arena's
  // calendar holds them all: the kernel sees one lazy source, pending as
  // one event at most, and its event store never holds a flow.
  auto cfg = small_metronome_config();
  cfg.workload.model = ArrivalModel::kPerFlow;
  cfg.workload.n_flows = 2048;
  cfg.workload.rate_mpps = 10.0;
  cfg.warmup = sim::kMillisecond;
  cfg.measure = sim::kMillisecond;
  BasicTestbed<Sim> bed(cfg);
  bed.start();
  for (sim::Time t = 250 * sim::kMicrosecond; t <= cfg.warmup + cfg.measure;
       t += 250 * sim::kMicrosecond) {
    bed.run_until(t);
    EXPECT_EQ(bed.flow_arena()->armed(), 2048u) << "at " << t << " ns";
    EXPECT_LE(bed.sim().pending_events(), bed.sim().stored_events() + 1) << "at " << t << " ns";
    EXPECT_LE(bed.sim().stored_events(), 64u) << "at " << t << " ns";
  }
  EXPECT_GT(bed.packets_processed(), 10000u) << "scenario must do real work";
}

TEST(BackendFullstackTest, PerFlowModeKeepsFlowTimersOutOfTheStore) {
  expect_flow_timers_outside_the_store<sim::Simulation>();
  expect_flow_timers_outside_the_store<sim::WheelSimulation>();
}

template <typename Sim>
std::uint64_t static_polling_cancels() {
  // X520 static poller at 10 GbE line rate: every arrival beats the
  // poller's idle Signal timeout, so a quarter of all kernel events are
  // cancels. A tombstone stays stored until it reaches the store's front
  // (with the ingress armed only while the poller is parked, that is
  // usually at once); the population must stay below cancel rate x
  // timeout horizon (a few dozen), not grow with the run.
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kStaticPolling;
  cfg.workload.rate_mpps = 14.88;
  cfg.warmup = 5 * sim::kMillisecond;
  cfg.measure = 20 * sim::kMillisecond;
  BasicTestbed<Sim> bed(cfg);
  bed.start();
  for (sim::Time t = sim::kMillisecond; t <= cfg.warmup + cfg.measure; t += sim::kMillisecond) {
    bed.run_until(t);
    // The now-FIFO is empty when run_until returns, so the live pending
    // events are the stored entries that are not tombstones, plus at most
    // one for the port's undelivered ingress stream (pending, not stored).
    const std::size_t tombstones = bed.sim().tombstones();
    const std::size_t live = bed.sim().stored_events() - tombstones;
    EXPECT_GE(bed.sim().pending_events(), live) << "at " << t << " ns";
    EXPECT_LE(bed.sim().pending_events(), live + 1) << "at " << t << " ns";
    EXPECT_LE(tombstones, 256u) << "at " << t << " ns";
  }
  EXPECT_GT(bed.packets_processed(), 250000u) << "scenario must do real work";
  return bed.sim().events_cancelled();
}

TEST(BackendFullstackTest, StaticPollingTombstonesStayBounded) {
  EXPECT_GT(static_polling_cancels<sim::Simulation>(), 0u) << "the poller must cancel";
  EXPECT_GT(static_polling_cancels<sim::WheelSimulation>(), 0u) << "the poller must cancel";
}

// --- every arrival model, faults, series and an external pcap -------------

ExperimentConfig small_model_config(ArrivalModel model) {
  auto cfg = small_metronome_config();
  cfg.workload.model = model;
  cfg.workload.rate_mpps = 8.0;
  cfg.workload.n_flows = 256;
  cfg.warmup = 4 * sim::kMillisecond;
  cfg.measure = 10 * sim::kMillisecond;
  return cfg;
}

class ArrivalModelStoreTest : public ::testing::TestWithParam<ArrivalModel> {};

TEST_P(ArrivalModelStoreTest, BitIdenticalAcrossStores) {
  const auto cfg = small_model_config(GetParam());
  const auto heap = measure_on<Testbed>(cfg);
  ASSERT_GT(heap.counters.processed, 10000u) << "scenario must do real work";
  expect_same_shard(heap, measure_on<WheelTestbed>(cfg));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ArrivalModelStoreTest,
                         ::testing::Values(ArrivalModel::kMmpp, ArrivalModel::kParetoTrain,
                                           ArrivalModel::kIncast, ArrivalModel::kTrace),
                         [](const auto& info) {
                           switch (info.param) {
                             case ArrivalModel::kMmpp: return "Mmpp";
                             case ArrivalModel::kParetoTrain: return "ParetoTrain";
                             case ArrivalModel::kIncast: return "Incast";
                             case ArrivalModel::kTrace: return "Trace";
                             default: return "Other";
                           }
                         });

TEST(BackendFullstackTest, FaultScenariosIdenticalAcrossStores) {
  // Every fault-bearing registry scenario, on its registered seeds, at
  // short windows.
  scenario::SweepMatrix m;
  for (const auto& spec : scenario::all_scenarios()) {
    if (spec.config.workload.fault.any()) m.scenarios.push_back(spec.name);
  }
  ASSERT_GE(m.scenarios.size(), 4u);
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  for (const scenario::Shard& shard : scenario::SweepRunner::expand(m)) {
    SCOPED_TRACE(shard.scenario);
    expect_same_shard(measure_on<Testbed>(shard.config), measure_on<WheelTestbed>(shard.config));
  }
}

TEST(BackendFullstackTest, SeriesWindowsIdenticalAcrossStores) {
  auto cfg = small_metronome_config();
  cfg.workload.rate_mpps = 12.0;
  cfg.workload.n_flows = 256;
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 5 * sim::kMillisecond;
  cfg.series_interval = sim::kMillisecond;
  const auto heap = measure_on<Testbed>(cfg);
  const auto wheel = measure_on<WheelTestbed>(cfg);
  expect_same_shard(heap, wheel);
  ASSERT_GT(heap.series.windows.size(), 2u) << "series recorded";
  ASSERT_EQ(heap.series.windows.size(), wheel.series.windows.size());
  EXPECT_EQ(heap.series.dropped_windows, wheel.series.dropped_windows);
  for (std::size_t k = 0; k < heap.series.windows.size(); ++k) {
    const scenario::SeriesWindow& h = heap.series.windows[k];
    const scenario::SeriesWindow& w = wheel.series.windows[k];
    EXPECT_EQ(h.t_end, w.t_end) << "window " << k;
    EXPECT_EQ(h.fingerprint, w.fingerprint) << "window " << k;
    EXPECT_EQ(h.rx, w.rx) << "window " << k;
    EXPECT_EQ(h.latency_sum_us, w.latency_sum_us) << "window " << k;
    EXPECT_EQ(h.wakeups, w.wakeups) << "window " << k;
  }
}

TEST(BackendFullstackTest, ExternalPcapIdenticalAcrossStores) {
  // The --trace=<file> path: an *external* on-disk pcap replayed through
  // the kTrace arrival model must drive a full experiment, as store-
  // independent as the synthesised trace.
  const std::string path = ::testing::TempDir() + "metro_external_trace.pcap";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    net::PcapWriter writer(out);
    for (const auto& rec : tgen::synthesise_unbalanced_trace(200, 0.4, 21)) writer.write(rec);
  }
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.n_queues = 1;
  cfg.n_cores = 2;
  cfg.met.n_threads = 2;
  cfg.workload.model = ArrivalModel::kTrace;
  cfg.workload.trace.path = path;
  cfg.workload.rate_mpps = 2.0;
  cfg.warmup = sim::kMillisecond;
  cfg.measure = 4 * sim::kMillisecond;
  const auto heap = measure_on<Testbed>(cfg);
  EXPECT_GT(heap.counters.processed, 1000u) << "external trace must drive real traffic";
  expect_same_shard(heap, measure_on<WheelTestbed>(cfg));
  std::remove(path.c_str());
}

TEST(BackendFullstackTest, WheelSpellingsRunTheWheel) {
  // A wheel spelling that quietly built a heap kernel would turn every
  // heap-vs-wheel identity gate into heap vs heap, and nothing would fail.
  auto cfg = small_metronome_config();
  EXPECT_EQ(Testbed(cfg).sim().wheel(), nullptr);
  EXPECT_EQ(BasicTestbed<sim::Simulation>(cfg).sim().wheel(), nullptr);
  EXPECT_NE(WheelTestbed(cfg).sim().wheel(), nullptr);
  EXPECT_NE(sim::WheelSimulation().wheel(), nullptr);

  // The kernel bench's ladder measures each store through measure_shard,
  // which keeps no kernel, but its trace shows the store: only the wheel
  // records level cascades (Metronome's 500 us backup sleeps land past the
  // 262 us level-0 window).
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 2 * sim::kMillisecond;
  const auto heap = measure_on<Testbed>(cfg, 1u << 16);
  const auto wheel = measure_on<WheelTestbed>(cfg, 1u << 16);
  EXPECT_EQ(heap.trace->count(trace::id::kWheelCascade), 0u);
  EXPECT_GT(wheel.trace->count(trace::id::kWheelCascade), 0u);
  EXPECT_EQ(heap.fingerprint, wheel.fingerprint);
}

}  // namespace
}  // namespace metro::apps
