// Kernel throughput benchmark: events/sec of the discrete-event core.
//
// Every figure bench and tier-1 test drives the kernel in
// src/sim/simulation.hpp, so its event throughput is the ceiling on how
// many scenarios we can simulate per CPU-second. This bench pins that
// number and emits BENCH_kernel.json so the trajectory is tracked PR over
// PR. See docs/BENCHMARKS.md for the full field reference.
//
// Two measurements no other report carries:
//
//   * kernel scenarios on both event stores (src/sim/event_queue.hpp):
//       - timer_churn      — callback events rescheduling themselves,
//       - coroutine_sleep  — many processes looping over sleep_for,
//       - signal_timeout   — timed waits raced by notifications (the
//                            polling-driver idle pattern: every wait arms
//                            a timer that notify cancels).
//     The workloads have fixed iteration counts, so heap and wheel must
//     process the same number of events on each (exit 1 otherwise), and
//     their wall times compare like with like;
//   * fig13_fullstack_1m/4m/16m — the registered full-stack scale ladder
//     (2^20, 2^22 and 2^24 per-flow sources) at its registry windows,
//     repeated over several trials per store; the JSON records median/
//     IQR wall time and packet rate and the wheel's speedup over the heap.
//     The flows' arrivals live in the arena's own calendar, not in either
//     event store, so that ratio sits near 1.
//     Every trial on either store must produce one and the same telemetry
//     fingerprint (exit 1 otherwise).
//
// This is the one bench that compares the two event stores; it always
// runs both. Each ladder trial goes through scenario::measure_shard, the
// sweep's own measuring code, once on apps::Testbed (the heap) and once
// on the apps::BasicTestbed<sim::WheelSimulation> shim. --fast runs the
// kernel scenarios at a quarter of the iterations, 2 ladder trials
// instead of 3 and drops the 16M rung; the rungs keep their registry
// windows, so the wheel-vs-heap ratio means the same thing in both modes.
// --flows=N swaps the ladder for one custom population built on the 1M
// rung's testbed. The ladder's trials run sequentially regardless of
// --jobs: wall time is the metric, and concurrent trials would contend
// for cache and memory bandwidth.
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/experiment.hpp"
#include "common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "stats/json_writer.hpp"

namespace {

using metro::sim::Signal;
using metro::sim::Simulation;
using metro::sim::Task;
using metro::sim::Time;

double wall_seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from).count();
}

// --- scenario bodies (either store: WheelSimulation is a Simulation) -------

void timer_churn(Simulation& sim, std::uint64_t chains, std::uint64_t events_per_chain) {
  // `chains` self-rescheduling callbacks, offset so timestamps interleave.
  struct Reschedule {
    Simulation* sim;
    std::uint64_t left;
    Time period;
    void operator()() {
      if (left == 0) return;
      sim->schedule_after(period, Reschedule{sim, left - 1, period});
    }
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    sim.schedule_after(static_cast<Time>(c), Reschedule{&sim, events_per_chain, 100 + static_cast<Time>(c % 7)});
  }
  sim.run();
}

Task sleeper_proc(Simulation& sim, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) co_await sim.sleep_for(period);
}

void coroutine_sleep(Simulation& sim, std::uint64_t procs, std::uint64_t iters) {
  for (std::uint64_t p = 0; p < procs; ++p) {
    sim.spawn(sleeper_proc(sim, iters, 50 + static_cast<Time>(p % 13)));
  }
  sim.run();
}

Task signal_waiter(Signal& sig, std::uint64_t iters, Time timeout) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    (void)co_await sig.wait_for(timeout);
  }
}

Task signal_notifier(Simulation& sim, Signal& sig, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    co_await sim.sleep_for(period);
    sig.notify_all();
  }
}

void signal_timeout(Simulation& sim, std::uint64_t waiters, std::uint64_t iters) {
  // Notify every 1 us; each wait arms a 10 us timeout that the notify
  // cancels — the polling-driver idle pattern.
  Signal sig(sim);
  for (std::uint64_t w = 0; w < waiters; ++w) {
    sim.spawn(signal_waiter(sig, iters, 10'000));
  }
  sim.spawn(signal_notifier(sim, sig, iters + 1, 1'000));
  sim.run();
}

/// One store's run of one kernel scenario: wall seconds for the fixed
/// workload and the events the kernel processed to do it.
struct Run {
  double wall = 0.0;
  std::uint64_t events = 0;
  double eps() const { return wall > 0 ? static_cast<double>(events) / wall : 0.0; }
};

constexpr std::array<const char*, 3> kScenarioNames = {"timer_churn", "coroutine_sleep",
                                                       "signal_timeout"};

/// The kernel scenarios on a fresh `Sim` each (sim::Simulation, the heap,
/// or sim::WheelSimulation), in kScenarioNames order.
template <typename Sim>
std::array<Run, 3> run_scenarios(std::uint64_t scale) {
  // Timed from the kernel's construction to its destruction.
  const auto measure = [](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    Run r;
    {
      Sim sim;
      body(sim);
      r.events = sim.events_processed();
    }
    r.wall = wall_seconds(t0);
    return r;
  };
  return {measure([&](Sim& sim) { timer_churn(sim, 64, scale * 20'000); }),
          measure([&](Sim& sim) { coroutine_sleep(sim, 256, scale * 5'000); }),
          measure([&](Sim& sim) { signal_timeout(sim, 64, scale * 10'000); })};
}

/// The two event stores, in report order; `store` arrays index by it.
constexpr std::array<const char*, 2> kStores = {"heap", "wheel"};

// One store's samples on one scale-ladder population.
struct ScaleSamples {
  std::vector<double> wall;
  std::vector<double> pps;  // simulated packets / wall second
  std::size_t pending = 0;  // pending events at measurement start
};

struct PopulationResult {
  std::string name;                   // scenario (or synthetic --flows label)
  metro::apps::ExperimentConfig cfg;  // registry windows, --flows applied
  int trials = 0;
  std::array<ScaleSamples, 2> store;  // heap, wheel (kStores order)
  bool diverged = false;
  double wheel_vs_heap() const {
    return metro::bench::sample_of(store[0].wall).median /
           metro::bench::sample_of(store[1].wall).median;
  }
};

/// One ladder trial of `shard` on a `Bed` built here: the sweep's own
/// measuring code, timed from the bed's construction as a sweep shard is.
template <typename Bed>
metro::scenario::ShardResult ladder_trial(const metro::scenario::Shard& shard) {
  const auto t0 = std::chrono::steady_clock::now();
  Bed bed(shard.config);
  return metro::scenario::measure_shard(bed, shard, t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = metro::bench::parse_args(argc, argv);
  const bool fast = args.fast;
  const std::uint64_t scale = fast ? 1 : 4;
  using metro::bench::num;
  using metro::bench::sample_of;

  metro::bench::header(
      "Kernel throughput — events/sec on the heap and the wheel",
      "both stores process the same events on every kernel scenario; the "
      "per-flow arena keeps its arrivals out of the event store, so heap and "
      "wheel should run the scale ladder at about the same wall time");

  // --- kernel scenarios on both stores ----------------------------------
  const std::array<std::array<Run, 3>, 2> scen = {
      run_scenarios<metro::sim::Simulation>(scale),
      run_scenarios<metro::sim::WheelSimulation>(scale)};
  bool events_diverged = false;
  for (std::size_t i = 0; i < kScenarioNames.size(); ++i) {
    if (scen[0][i].events != scen[1][i].events) {
      std::cerr << "EVENT-COUNT DIVERGENCE at " << kScenarioNames[i] << ": heap "
                << scen[0][i].events << " vs wheel " << scen[1][i].events << " events\n";
      events_diverged = true;
    }
  }

  // --- full-stack scale ladder ------------------------------------------
  // Wall time is noisy at these run lengths, so each store is repeated
  // over several trials.
  std::vector<PopulationResult> pops;
  {
    std::vector<std::pair<const char*, int>> plan;  // scenario, trials
    plan.emplace_back("fig13_fullstack_1m", fast ? 2 : 3);
    if (args.flows == 0) {
      plan.emplace_back("fig13_fullstack_4m", fast ? 2 : 3);
      if (!fast) plan.emplace_back("fig13_fullstack_16m", 2);
    }
    for (const auto& [sname, trials] : plan) {
      const auto* spec = metro::scenario::find_scenario(sname);
      if (spec == nullptr) {
        std::cerr << sname << " missing from the scenario registry\n";
        return 2;
      }
      PopulationResult pr;
      pr.name = spec->name;
      pr.cfg = spec->config;
      pr.trials = trials;
      if (args.flows != 0) {
        pr.name = "fig13_fullstack_custom";
        pr.cfg.workload.n_flows = args.flows;
      }
      pops.push_back(std::move(pr));
    }
  }
  bool scale_diverged = false;
  for (auto& pr : pops) {
    const metro::scenario::Shard shard{pr.name, pr.cfg};
    std::vector<metro::scenario::ShardResult> out;
    for (int trial = 0; trial < pr.trials; ++trial) {
      out.push_back(ladder_trial<metro::apps::Testbed>(shard));
      out.push_back(ladder_trial<metro::apps::BasicTestbed<metro::sim::WheelSimulation>>(shard));
    }
    std::vector<metro::bench::GateRun> runs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto& r = out[i];
      auto& b = pr.store[i % kStores.size()];
      b.wall.push_back(r.wall_seconds);
      b.pps.push_back(static_cast<double>(r.counters.processed) / r.wall_seconds);
      b.pending = r.pending_at_measure;
      runs.push_back({pr.name,
                      std::string(kStores[i % kStores.size()]) + " trial " +
                          std::to_string(i / kStores.size()),
                      &r});
    }
    pr.diverged = metro::bench::identity_gate(runs) > 0;
    scale_diverged = scale_diverged || pr.diverged;
  }

  // --- console report ---------------------------------------------------
  for (std::size_t i = 0; i < kScenarioNames.size(); ++i) {
    std::cout << "  " << kScenarioNames[i] << " (" << scen[0][i].events << " events):";
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      std::cout << " " << kStores[k] << " " << num(scen[k][i].eps() / 1e6) << " M/s |";
    }
    std::cout << " wheel vs heap: x" << num(scen[0][i].wall / scen[1][i].wall) << "\n";
  }
  for (const auto& pr : pops) {
    std::cout << "\n  " << pr.name << " (" << pr.cfg.workload.n_flows << " per-flow sources, "
              << pr.trials << " trials per store):\n";
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      const auto& b = pr.store[k];
      const auto wall = sample_of(b.wall);
      std::cout << "    " << kStores[k] << ": wall median " << num(wall.median) << " s (IQR "
                << num(wall.iqr) << "), " << num(sample_of(b.pps).median / 1e6)
                << " M simulated packets/s, " << b.pending << " pending events\n";
    }
    std::cout << "    wheel vs heap: x" << num(pr.wheel_vs_heap())
              << (pr.diverged ? "  [TELEMETRY DIVERGED]" : "  (identical telemetry)") << "\n";
  }

  // --- BENCH_kernel.json (schema in docs/BENCHMARKS.md) -----------------
  std::ostringstream json;
  metro::stats::JsonWriter w(json);
  w.begin_object();
  w.kv("bench", "kernel_throughput");
  w.kv("fast_mode", fast);
  w.key("scenarios").begin_object();
  for (std::size_t i = 0; i < kScenarioNames.size(); ++i) {
    w.key(kScenarioNames[i]).begin_object();
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      w.key(kStores[k]).begin_object();
      w.kv("events_per_sec", scen[k][i].eps());
      w.kv("wall_seconds", scen[k][i].wall);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  w.key("fig13_fullstack_scale").begin_object();
  w.key("populations").begin_object();
  for (const auto& pr : pops) {
    w.key(pr.name.c_str()).begin_object();
    w.kv("n_flows", static_cast<std::uint64_t>(pr.cfg.workload.n_flows));
    w.kv("per_flow_sources", true);
    w.kv("trials", static_cast<std::uint64_t>(pr.trials));
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      const auto& b = pr.store[k];
      const auto wall = sample_of(b.wall);
      const auto pps = sample_of(b.pps);
      w.key(kStores[k]).begin_object();
      w.kv("wall_seconds_median", wall.median);
      w.kv("wall_seconds_iqr", wall.iqr);
      w.kv("simulated_packets_per_sec_median", pps.median);
      w.kv("simulated_packets_per_sec_iqr", pps.iqr);
      w.kv("pending_events", static_cast<std::uint64_t>(b.pending));
      w.end_object();
    }
    w.kv("wheel_vs_heap_speedup", pr.wheel_vs_heap());
    w.kv("telemetry_identical", !pr.diverged);
    w.end_object();
  }
  w.end_object();
  w.kv("telemetry_identical", !scale_diverged);
  w.end_object();
  w.end_object();
  w.finish();
  metro::bench::write_report("BENCH_kernel.json", json.str());
  if (scale_diverged || events_diverged) {
    std::cout << "\nwrote BENCH_kernel.json ("
              << (events_diverged ? "EVENT-COUNT DIVERGENCE" : "SCALE-LADDER DIVERGENCE")
              << " — failing)\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_kernel.json\n";
  return 0;
}
