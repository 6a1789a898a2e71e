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
//   * kernel scenarios, legacy vs heap vs wheel — a faithful copy of the
//     pre-refactor kernel (std::function events in a std::priority_queue,
//     shared_ptr-token Signal) is embedded below under `legacy::` and runs
//     the *same* scenarios as both event stores
//     (src/sim/event_queue.hpp), so the JSON records the speedup of the
//     allocation-free kernel over its predecessor on the same machine,
//     same build, same run. Those ratios are what make cross-host gating
//     work. The scenarios:
//       - timer_churn      — callback events rescheduling themselves,
//       - coroutine_sleep  — many processes looping over sleep_for,
//       - signal_timeout   — timed waits raced by notifications (the
//                            polling-driver idle pattern: every wait arms
//                            a timer that notify makes stale/cancelled),
//       - fig13_multiqueue_kernel — the fig13 multiqueue event population
//                            at kernel level: >10k concurrently pending
//                            flow timers plus metronome-style timed waits,
//                            where a binary heap pays log n per operation;
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
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
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

namespace legacy {

using metro::sim::Task;
using metro::sim::Time;

// Faithful copy of the pre-refactor kernel (see git history of
// src/sim/simulation.hpp): type-erased std::function events, stale timers
// fired-and-ignored via armed flags, one shared_ptr token per Signal wait.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  ~Simulation() {
    events_ = {};
    for (auto h : processes_) {
      if (h) h.destroy();
    }
  }

  Time now() const noexcept { return now_; }
  metro::sim::Rng& rng() noexcept { return rng_; }

  void schedule_at(Time t, std::function<void()> fn) {
    events_.push(Event{t < now_ ? now_ : t, next_seq_++, std::move(fn)});
  }
  void schedule_after(Time delay, std::function<void()> fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  void spawn(Task task) {
    auto handle = task.release();
    processes_.push_back(handle);
    schedule_after(0, [handle] {
      if (!handle.done()) handle.resume();
    });
  }

  Time run() {
    while (!events_.empty()) {
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      now_ = ev.at;
      ++processed_;
      ev.fn();
    }
    return now_;
  }

  std::uint64_t events_processed() const noexcept { return processed_; }

  auto sleep_for(Time d) {
    struct Awaiter {
      Simulation& sim;
      Time delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_after(delay, [h] {
          if (!h.done()) h.resume();
        });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const noexcept {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<std::coroutine_handle<Task::promise_type>> processes_;
  metro::sim::Rng rng_;
};

class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(sim) {}

  auto wait_for(Time timeout) { return WaitAwaiter{*this, timeout, nullptr}; }

  void notify_all() {
    if (waiters_.empty()) return;
    auto woken = std::move(waiters_);
    waiters_.clear();
    for (auto& t : woken) {
      if (!t->armed) continue;
      t->armed = false;
      t->notified = true;
      auto h = t->handle;
      sim_.schedule_after(0, [h] {
        if (!h.done()) h.resume();
      });
    }
  }

 private:
  struct Token {
    std::coroutine_handle<> handle;
    bool armed = true;
    bool notified = false;
  };

  struct WaitAwaiter {
    Signal& sig;
    Time timeout;
    std::shared_ptr<Token> token;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      token = std::make_shared<Token>();
      token->handle = h;
      sig.waiters_.push_back(token);
      if (timeout >= 0) {
        auto t = token;
        sig.sim_.schedule_after(timeout, [t] {
          if (!t->armed) return;
          t->armed = false;
          t->notified = false;
          if (!t->handle.done()) t->handle.resume();
        });
      }
    }
    bool await_resume() const noexcept { return token && token->notified; }
  };

  Simulation& sim_;
  std::vector<std::shared_ptr<Token>> waiters_;
};

}  // namespace legacy

namespace {

using metro::sim::Task;
using metro::sim::Time;

double wall_seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from).count();
}

// --- scenario bodies, templated over the kernel implementation -------------

template <typename Sim>
void timer_churn(Sim& sim, std::uint64_t chains, std::uint64_t events_per_chain) {
  // `chains` self-rescheduling callbacks, offset so timestamps interleave.
  struct Reschedule {
    Sim* sim;
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

template <typename Sim>
Task sleeper_proc(Sim& sim, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) co_await sim.sleep_for(period);
}

template <typename Sim>
void coroutine_sleep(Sim& sim, std::uint64_t procs, std::uint64_t iters) {
  for (std::uint64_t p = 0; p < procs; ++p) {
    sim.spawn(sleeper_proc(sim, iters, 50 + static_cast<Time>(p % 13)));
  }
  sim.run();
}

template <typename Sim, typename Sig>
Task signal_waiter(Sim& sim, Sig& sig, std::uint64_t iters, Time timeout) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    (void)co_await sig.wait_for(timeout);
  }
  (void)sim;
}

template <typename Sim, typename Sig>
Task signal_notifier(Sim& sim, Sig& sig, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    co_await sim.sleep_for(period);
    sig.notify_all();
  }
}

template <typename Sim, typename Sig>
void signal_timeout(Sim& sim, Sig& sig, std::uint64_t waiters, std::uint64_t iters) {
  // Notify every 1 us; each wait arms a 10 us timeout that the notify makes
  // stale (legacy) or cancels (new) — the polling-driver idle pattern.
  for (std::uint64_t w = 0; w < waiters; ++w) {
    sim.spawn(signal_waiter(sim, sig, iters, 10'000));
  }
  sim.spawn(signal_notifier(sim, sig, iters + 1, 1'000));
  sim.run();
}

// The fig13 multiqueue event population at kernel level: kFlows
// concurrently pending per-flow timers (the >10k regime where a binary
// heap pays ~14 levels per op), 2 queue signals, 4 metronome-style threads
// on 15 us timed waits, notifies at burst cadence. Workload is identical
// on every kernel (pure kernel objects, fixed iteration counts).
constexpr std::uint64_t kFig13Flows = 12288;

template <typename Sim, typename Sig>
void fig13_multiqueue_kernel(Sim& sim, Sig& q0, Sig& q1, std::uint64_t scale) {
  struct FlowTimer {
    Sim* sim;
    std::uint64_t left;
    Time period;
    void operator()() {
      if (left == 0) return;
      sim->schedule_after(period, FlowTimer{sim, left - 1, period});
    }
  };
  const std::uint64_t per_flow = scale * 50;
  for (std::uint64_t f = 0; f < kFig13Flows; ++f) {
    // Periods spread 50..150 us so the pending population stays dense and
    // timestamps interleave across the full horizon.
    const Time period = 50'000 + static_cast<Time>((f * 8'191) % 100'000);
    sim.schedule_after(static_cast<Time>(f), FlowTimer{&sim, per_flow, period});
  }
  const std::uint64_t met_iters = scale * 40'000;
  sim.spawn(signal_waiter(sim, q0, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q0, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q1, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q1, met_iters, 15'000));
  sim.spawn(signal_notifier(sim, q0, met_iters, 27'000));
  sim.spawn(signal_notifier(sim, q1, met_iters, 31'000));
  sim.run();
}

struct Run {
  double wall = 0.0;           // seconds for the fixed workload
  std::uint64_t events = 0;    // events the kernel processed to do it
};

template <typename Fn>
Run measure(Fn&& run_kernel) {
  Run r;
  const auto t0 = std::chrono::steady_clock::now();
  r.events = run_kernel();
  r.wall = wall_seconds(t0);
  return r;
}

constexpr std::array<const char*, 4> kScenarioNames = {
    "timer_churn", "coroutine_sleep", "signal_timeout", "fig13_multiqueue_kernel"};

// The four kernel scenarios on one kernel implementation: `Sim` is
// legacy::Simulation, sim::Simulation (heap) or sim::WheelSimulation,
// `Sig` its signal type.
// Workloads are identical for every kernel (fixed iteration counts).
template <typename Sim, typename Sig>
std::array<Run, 4> run_scenarios(std::uint64_t scale) {
  return {measure([&] {
            Sim sim;
            timer_churn(sim, 64, scale * 20'000);
            return sim.events_processed();
          }),
          measure([&] {
            Sim sim;
            coroutine_sleep(sim, 256, scale * 5'000);
            return sim.events_processed();
          }),
          measure([&] {
            Sim sim;
            Sig sig(sim);
            signal_timeout(sim, sig, 64, scale * 10'000);
            return sim.events_processed();
          }),
          measure([&] {
            Sim sim;
            Sig q0(sim), q1(sim);
            fig13_multiqueue_kernel(sim, q0, q1, scale);
            return sim.events_processed();
          })};
}

// All kernels simulate the *identical* workload, so the honest comparison
// is wall time for equal work. Note the legacy kernel also executes stale
// timeout events as no-ops (they count towards its raw event number but do
// no useful work); events/sec is therefore normalised to the useful-event
// count (the new kernel's, which fires no stale events) on every side.
/// The two event stores, in report order; `store` arrays index by it.
constexpr std::array<const char*, 2> kStores = {"heap", "wheel"};

struct ScenarioResult {
  Run base;                  // legacy kernel (baseline)
  std::array<Run, 2> store;  // heap, wheel (kStores order)
  // Useful-event count: both stores process the same useful events.
  double useful() const { return static_cast<double>(store[0].events); }
  double eps(const Run& run) const { return run.wall > 0 ? useful() / run.wall : 0.0; }
  double speedup(const Run& run) const { return run.wall > 0 ? base.wall / run.wall : 0.0; }
  double baseline_raw_eps() const {
    return base.wall > 0 ? static_cast<double>(base.events) / base.wall : 0.0;
  }
};

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
  const auto args = metro::bench::parse_args(argc, argv, 1);
  const bool fast = args.fast;
  const std::uint64_t scale = fast ? 1 : 4;
  using metro::bench::num;
  using metro::bench::sample_of;

  metro::bench::header(
      "Kernel throughput — events/sec: legacy baseline vs heap vs wheel",
      "allocation-free POD-event kernel should clear 2x the legacy kernel; the "
      "per-flow arena keeps its arrivals out of the event store, so heap and "
      "wheel should run the scale ladder at about the same wall time");

  // --- kernel scenarios: legacy baseline, then both stores -------------
  std::array<ScenarioResult, 4> scen;
  const auto base = run_scenarios<legacy::Simulation, legacy::Signal>(scale);
  const auto heap = run_scenarios<metro::sim::Simulation, metro::sim::Signal>(scale);
  const auto wheel = run_scenarios<metro::sim::WheelSimulation, metro::sim::Signal>(scale);
  for (std::size_t i = 0; i < scen.size(); ++i) scen[i] = {base[i], {heap[i], wheel[i]}};
  // Overall: geometric mean across the three classic scenarios
  // (fig13_multiqueue_kernel is reported separately as the
  // large-population scenario).
  const auto geomean3 = [&](auto&& eps_of) {
    return std::cbrt(eps_of(scen[0]) * eps_of(scen[1]) * eps_of(scen[2]));
  };
  const double overall_base = geomean3([](const ScenarioResult& r) { return r.eps(r.base); });
  std::array<double, 2> overall{};
  for (std::size_t k = 0; k < kStores.size(); ++k) {
    overall[k] = geomean3([k](const ScenarioResult& r) { return r.eps(r.store[k]); });
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
  for (std::size_t i = 0; i < scen.size(); ++i) {
    const auto& r = scen[i];
    std::cout << "  " << kScenarioNames[i] << ": legacy " << num(r.eps(r.base) / 1e6)
              << " M useful events/s (raw " << num(r.baseline_raw_eps() / 1e6)
              << " incl. stale no-ops)";
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      std::cout << " | " << kStores[k] << " " << num(r.eps(r.store[k]) / 1e6) << " M/s (x"
                << num(r.speedup(r.store[k])) << ")";
    }
    std::cout << "\n";
  }
  std::cout << "  overall (geomean of first three): legacy " << num(overall_base / 1e6) << " M/s";
  for (std::size_t k = 0; k < kStores.size(); ++k) {
    std::cout << " | " << kStores[k] << " " << num(overall[k] / 1e6) << " M/s (x"
              << num(overall[k] / overall_base) << ")";
  }
  std::cout << "\n";
  const auto& fig13k = scen[3];
  const double fig13k_wheel_vs_heap = fig13k.store[0].wall / fig13k.store[1].wall;
  std::cout << "  fig13 kernel scenario, wheel vs heap: x" << num(fig13k_wheel_vs_heap)
            << " wall (" << kFig13Flows << "+ pending events)\n";
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
  w.key("backends").begin_array();
  for (const char* store : kStores) w.value(store);
  w.end_array();
  w.key("scenarios").begin_object();
  for (std::size_t i = 0; i < scen.size(); ++i) {
    const auto& r = scen[i];
    w.key(kScenarioNames[i]).begin_object();
    w.kv("baseline_events_per_sec", r.eps(r.base));
    w.kv("baseline_raw_events_per_sec", r.baseline_raw_eps());
    w.kv("baseline_wall_seconds", r.base.wall);
    for (std::size_t k = 0; k < kStores.size(); ++k) {
      const auto& run = r.store[k];
      w.key(kStores[k]).begin_object();
      w.kv("events_per_sec", r.eps(run));
      w.kv("wall_seconds", run.wall);
      w.kv("speedup_vs_legacy", r.speedup(run));
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  w.key("overall").begin_object();
  w.kv("baseline_events_per_sec", overall_base);
  for (std::size_t k = 0; k < kStores.size(); ++k) {
    const std::string name = kStores[k];
    w.kv((name + "_events_per_sec").c_str(), overall[k]);
    w.kv((name + "_speedup").c_str(), overall[k] / overall_base);
  }
  w.end_object();
  w.kv("fig13_kernel_wheel_vs_heap_speedup", fig13k_wheel_vs_heap);
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
  if (scale_diverged) {
    std::cout << "\nwrote BENCH_kernel.json (SCALE-LADDER DIVERGENCE — failing)\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_kernel.json\n";
  return 0;
}
