// Bit-for-bit determinism of full simulation runs.
//
// Two runs of an identical configuration must produce identical packet
// counters, drop counters, event counts and final clocks — equal-timestamp
// events run in insertion order, the RNG is owned by the Simulation, and
// nothing on the event path depends on host state.
//
// The same guarantee holds *across event stores*: the binary heap and the
// timing wheel implement the same total (at, seq) order, so an identical
// script must produce a bit-identical execution trace on both.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "store_param.hpp"

namespace metro::apps {
namespace {

struct RunFingerprint {
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
  std::uint64_t tx = 0;
  std::uint64_t processed = 0;
  std::uint64_t events = 0;
  sim::Time final_clock = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_scenario(const ExperimentConfig& cfg) {
  Testbed bed(cfg);
  bed.start();
  bed.run_until(cfg.warmup + cfg.measure);
  RunFingerprint fp;
  fp.rx = bed.port().total_rx();
  fp.dropped = bed.port().total_dropped();
  fp.tx = bed.port().tx().total_transmitted();
  fp.processed = bed.packets_processed();
  fp.events = bed.sim().events_processed();
  fp.final_clock = bed.sim().now();
  return fp;
}

ExperimentConfig multiqueue_config() {
  // Fig. 13-style: XL710, 2 queues, 4 Metronome threads, 37 Mpps offered.
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 4;
  cfg.met.n_threads = 4;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 37.0;
  cfg.workload.n_flows = 1024;
  cfg.warmup = 20 * sim::kMillisecond;
  cfg.measure = 60 * sim::kMillisecond;
  return cfg;
}

TEST(DeterminismTest, MultiqueueMetronomeRunsAreBitIdentical) {
  const auto cfg = multiqueue_config();
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_GT(a.processed, 100000u) << "scenario must do real work";
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, StaticPollingRunsAreBitIdentical) {
  auto cfg = multiqueue_config();
  cfg.driver = DriverKind::kStaticPolling;
  cfg.governor = sim::Governor::kOndemand;  // exercise governor-tick timers
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_GT(a.processed, 100000u);
  EXPECT_EQ(a, b);
}

// One record per executed event: (virtual time, tag, kernel RNG draw).
// Including an RNG draw makes the trace sensitive to *any* reordering —
// two swapped handlers would consume each other's random numbers.
using TraceRecord = std::tuple<sim::Time, int, std::uint64_t>;

std::vector<TraceRecord> kernel_trace(sim::Store store) {
  const auto owned = sim::make_simulation(store, 1234);
  sim::Simulation& kernel = *owned;
  sim::Signal sig(kernel);
  std::vector<TraceRecord> trace;
  const auto record = [&](int tag) {
    trace.emplace_back(kernel.now(), tag, kernel.rng().uniform_u64(1u << 30));
  };

  // Mixed workload: equal-timestamp callback floods, coroutine sleeps,
  // timed signal waits raced by notifies, and mid-run cancellations.
  struct Tick {
    sim::Simulation* kernel;
    const std::function<void(int)>* record;
    int left;
    int tag;
    void operator()() const {
      (*record)(tag);
      if (left > 0) {
        kernel->schedule_after(700 + (tag % 5) * 100, Tick{kernel, record, left - 1, tag});
      }
    }
  };
  const std::function<void(int)> recorder = record;
  for (int i = 0; i < 40; ++i) {
    kernel.schedule_at(100, Tick{&kernel, &recorder, 50, i});  // same instant
  }
  struct Proc {
    static sim::Task sleeper(sim::Simulation& kernel,
                             const std::function<void(int)>& record, int tag) {
      for (int i = 0; i < 200; ++i) {
        co_await kernel.sleep_for(900 + (tag % 7) * 150);
        record(10000 + tag);
      }
    }
    static sim::Task waiter(sim::Simulation& kernel,
                            sim::Signal& sig,
                            const std::function<void(int)>& record, int tag) {
      for (int i = 0; i < 150; ++i) {
        const bool notified = co_await sig.wait_for(3'000);
        record(20000 + tag + (notified ? 0 : 500));
        (void)kernel;
      }
    }
    static sim::Task notifier(sim::Simulation& kernel,
                              sim::Signal& sig) {
      for (int i = 0; i < 120; ++i) {
        co_await kernel.sleep_for(2'500);
        sig.notify_all();
      }
    }
  };
  for (int i = 0; i < 8; ++i) kernel.spawn(Proc::sleeper(kernel, recorder, i));
  for (int i = 0; i < 6; ++i) kernel.spawn(Proc::waiter(kernel, sig, recorder, i));
  kernel.spawn(Proc::notifier(kernel, sig));
  // Cancellation pressure: arm timers and cancel most of them mid-run.
  std::vector<sim::Simulation::EventId> armed;
  for (int i = 0; i < 300; ++i) {
    armed.push_back(
        kernel.schedule_at(5'000 + i * 37, [&record, i] { record(30000 + i); }));
  }
  kernel.schedule_at(4'999, [&] {
    for (std::size_t i = 0; i < armed.size(); i += 3) kernel.cancel(armed[i]);
  });
  kernel.run();
  EXPECT_TRUE(kernel.idle());
  return trace;
}

TEST(DeterminismTest, BackendsProduceBitIdenticalTraces) {
  const auto heap = kernel_trace(sim::Store::kHeap);
  const auto wheel = kernel_trace(sim::Store::kWheel);
  EXPECT_GT(heap.size(), 4000u) << "trace must cover real work";
  EXPECT_EQ(heap, wheel);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto cfg = multiqueue_config();
  const auto a = run_scenario(cfg);
  cfg.workload.seed = 43;
  const auto b = run_scenario(cfg);
  EXPECT_NE(a.events, b.events) << "seed must actually steer the workload";
}

}  // namespace
}  // namespace metro::apps
