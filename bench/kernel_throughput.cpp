// Kernel throughput benchmark: events/sec of the discrete-event core.
//
// Every figure bench and tier-1 test drives the kernel in
// src/sim/simulation.hpp, so its event throughput is the ceiling on how
// many scenarios we can simulate per CPU-second. This bench pins that
// number and emits BENCH_kernel.json so the trajectory is tracked PR over
// PR. See docs/BENCHMARKS.md for the full field reference.
//
// Two axes are measured:
//
//   * new kernel vs. baseline — a faithful copy of the pre-refactor kernel
//     (std::function events in a std::priority_queue, shared_ptr-token
//     Signal) is embedded below under `legacy::` and run on the *same*
//     scenarios, so the JSON records the speedup of the allocation-free
//     kernel over its predecessor on the same machine, same build, same
//     run;
//   * heap vs. wheel backend — every kernel scenario runs on both
//     event-queue backends (src/sim/event_queue.hpp), selectable with
//     --backend=heap|wheel|all (the default is all).
//
// Scenarios (kernel-level):
//   * timer_churn      — callback events rescheduling themselves,
//   * coroutine_sleep  — many processes looping over sleep_for,
//   * signal_timeout   — timed waits raced by notifications (the polling-
//                        driver idle pattern: every wait arms a timer that
//                        is then made stale/cancelled by notify),
//   * fig13_multiqueue_kernel — the event population of the fig13
//                        multiqueue experiment modelled at kernel level:
//                        >10k concurrently pending flow timers plus
//                        metronome-style timed waits, where a binary heap
//                        pays log n per operation.
// Plus two fig13-style multiqueue Metronome scenarios on the full app
// stack (the stack is generic over the backend since the BasicX<Sim>
// refactor):
//   * fig13_multiqueue  — the original grouped-feeder scenario on the heap
//     backend, kept exactly as-is so the simulated-packets/sec trajectory
//     stays comparable PR over PR;
//   * fig13_fullstack   — the same testbed with *per-flow traffic sources*
//     (one arrival process per flow, >24k concurrently pending flow
//     timers: the population a per-flow-timed fig13 setup implies), run
//     on every enabled backend. Both backends must produce identical
//     telemetry; the JSON tracks each backend's simulated-packets-per-
//     second and the wheel's full-stack speedup over the heap.
//   * fig13_fullstack_1m/4m/16m — the registered scale ladder (2^20,
//     2^22 and 2^24 per-flow sources: the wheel's home regime, the
//     beyond-LLC regime, and the memory-bandwidth wall), repeated over
//     several trials per backend; the JSON records median/IQR wall time
//     and packet rate, the wheel's speedup over the heap, and the
//     for_population-selected geometry's win over the fixed 8/10/5
//     default. --fast drops the 16M rung; --flows=N swaps the ladder for
//     one custom population. A slot_bits x tick_shift wheel-geometry
//     grid sweep per population (fingerprint-gated: geometry is a pure
//     speed knob) backs the WheelConfig::for_population picker.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <utility>
#include <coroutine>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "common.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha1.hpp"
#include "crypto_common.hpp"
#include "scenario/registry.hpp"
#include "sim/event_queue.hpp"
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

using metro::sim::BasicSignal;
using metro::sim::BasicSimulation;
using metro::sim::BinaryHeapBackend;
using metro::sim::TimingWheelBackend;
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
// on every backend (pure kernel objects, fixed iteration counts).
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
  bool ran = false;
  double eps() const { return ran && wall > 0 ? static_cast<double>(events) / wall : 0.0; }
};

template <typename Fn>
Run measure(Fn&& run_kernel) {
  Run r;
  const auto t0 = std::chrono::steady_clock::now();
  r.events = run_kernel();
  r.wall = wall_seconds(t0);
  r.ran = true;
  return r;
}

// Both kernels simulate the *identical* workload, so the honest comparison
// is wall time for equal work. Note the legacy kernel also executes stale
// timeout events as no-ops (they count towards its raw event number but do
// no useful work); events/sec is therefore normalised to the useful-event
// count (the new kernel's, which fires no stale events) on both sides.
struct ScenarioResult {
  Run base;   // legacy kernel (baseline)
  Run heap;   // BinaryHeapBackend
  Run wheel;  // TimingWheelBackend
  const Run& best_new() const { return heap.ran ? heap : wheel; }
  double speedup(const Run& next) const {
    return next.wall > 0 ? base.wall / next.wall : 0.0;
  }
  // Useful-event rate: both backends process the same useful events.
  double eps(const Run& next) const {
    return next.wall > 0 ? static_cast<double>(best_new().events) / next.wall : 0.0;
  }
  double baseline_eps() const {
    return base.wall > 0 ? static_cast<double>(best_new().events) / base.wall : 0.0;
  }
  double baseline_raw_eps() const {
    return base.wall > 0 ? static_cast<double>(base.events) / base.wall : 0.0;
  }
};

// --- fig13 full-stack scenarios -------------------------------------------

// The fig13 multiqueue testbed (scenario::fig13_testbed(): XL710, 2
// queues, 4 Metronome threads, 37 Mpps), with this bench's traditional
// short windows so the trajectory series stays comparable PR over PR.
metro::apps::ExperimentConfig fig13_config(bool fast) {
  auto cfg = metro::scenario::fig13_testbed();
  cfg.warmup = 50 * metro::sim::kMillisecond;
  cfg.measure = (fast ? 100 : 400) * metro::sim::kMillisecond;
  return cfg;
}

// Per-flow-source population for fig13_fullstack: >24k pending flow timers
// (the registered "fig13_fullstack_perflow" scenario).
constexpr std::size_t kFullstackFlows = 24576;

struct FullstackRun {
  double wall = 0.0;
  double pps = 0.0;   // simulated packets / wall second
  double eps = 0.0;   // kernel events / wall second
  double throughput_mpps = 0.0;
  // Cross-backend identity: the full-telemetry fingerprint (every
  // registered metric, the same check bench_fig13_14_multiqueue runs);
  // counters kept for the divergence diagnostic print.
  std::uint64_t fingerprint = 0;
  metro::scenario::ShardCounters counters;
  std::size_t pending = 0;  // pending events at measurement start
  bool ran = false;
};

FullstackRun from_shard(const metro::scenario::ShardResult& r) {
  FullstackRun out;
  out.wall = r.wall_seconds;
  out.pps = static_cast<double>(r.counters.processed) / out.wall;
  out.eps = static_cast<double>(r.events) / out.wall;
  out.throughput_mpps = r.result.throughput_mpps;
  out.fingerprint = r.fingerprint;
  out.counters = r.counters;
  out.pending = r.pending_at_measure;
  out.ran = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Wall time *is* this bench's headline metric, so sweeps default to one
  // job — concurrent shards would contend for cache/memory bandwidth and
  // distort per-shard wall numbers. --jobs=N is available for quick looks.
  const auto args = metro::bench::parse_args(argc, argv, metro::bench::BackendChoice::kAll, 1);
  const bool fast = args.fast;
  const bool heap_on = metro::bench::use_heap(args.backend);
  const bool wheel_on = metro::bench::use_wheel(args.backend);
  const std::uint64_t scale = fast ? 1 : 4;

  metro::bench::header(
      "Kernel throughput — events/sec: legacy baseline vs heap vs wheel",
      "allocation-free POD-event kernel should clear 2x the legacy kernel; the "
      "wheel should dominate the heap at the 2^20-flow population");

  ScenarioResult timer, sleep, signal, fig13k;

  // --- legacy baselines (run once; scenario workloads are identical) ----
  timer.base = measure([&] {
    legacy::Simulation sim;
    timer_churn(sim, 64, scale * 20'000);
    return sim.events_processed();
  });
  sleep.base = measure([&] {
    legacy::Simulation sim;
    coroutine_sleep(sim, 256, scale * 5'000);
    return sim.events_processed();
  });
  signal.base = measure([&] {
    legacy::Simulation sim;
    legacy::Signal sig(sim);
    signal_timeout(sim, sig, 64, scale * 10'000);
    return sim.events_processed();
  });
  fig13k.base = measure([&] {
    legacy::Simulation sim;
    legacy::Signal q0(sim), q1(sim);
    fig13_multiqueue_kernel(sim, q0, q1, scale);
    return sim.events_processed();
  });

  // --- both new backends on the same scenarios --------------------------
  const auto run_backend = [&](auto backend_tag) {
    using Backend = decltype(backend_tag);
    using Sim = BasicSimulation<Backend>;
    using Sig = BasicSignal<Sim>;
    std::array<Run, 4> out;
    out[0] = measure([&] {
      Sim sim;
      timer_churn(sim, 64, scale * 20'000);
      return sim.events_processed();
    });
    out[1] = measure([&] {
      Sim sim;
      coroutine_sleep(sim, 256, scale * 5'000);
      return sim.events_processed();
    });
    out[2] = measure([&] {
      Sim sim;
      Sig sig(sim);
      signal_timeout(sim, sig, 64, scale * 10'000);
      return sim.events_processed();
    });
    out[3] = measure([&] {
      Sim sim;
      Sig q0(sim), q1(sim);
      fig13_multiqueue_kernel(sim, q0, q1, scale);
      return sim.events_processed();
    });
    return out;
  };

  if (heap_on) {
    const auto r = run_backend(BinaryHeapBackend{});
    timer.heap = r[0];
    sleep.heap = r[1];
    signal.heap = r[2];
    fig13k.heap = r[3];
  }
  if (wheel_on) {
    const auto r = run_backend(TimingWheelBackend{});
    timer.wheel = r[0];
    sleep.wheel = r[1];
    signal.wheel = r[2];
    fig13k.wheel = r[3];
  }

  // Overall: geometric mean across the three classic scenarios (kept
  // comparable with the PR-1 trajectory; fig13_multiqueue_kernel is
  // reported separately as the large-population scenario).
  const auto geomean3 = [](double a, double b, double c) { return std::cbrt(a * b * c); };
  const double overall_base =
      geomean3(timer.baseline_eps(), sleep.baseline_eps(), signal.baseline_eps());
  const double overall_heap =
      heap_on ? geomean3(timer.eps(timer.heap), sleep.eps(sleep.heap), signal.eps(signal.heap))
              : 0.0;
  const double overall_wheel =
      wheel_on
          ? geomean3(timer.eps(timer.wheel), sleep.eps(sleep.wheel), signal.eps(signal.wheel))
          : 0.0;

  // Fig. 13-style multiqueue Metronome scenario on the full app stack,
  // grouped feeder, heap backend — kept as the PR-over-PR trajectory
  // number (same scenario as before the stack went backend-generic).
  const auto cfg = fig13_config(fast);
  const auto t0 = std::chrono::steady_clock::now();
  metro::apps::Testbed bed(cfg);
  bed.start();
  bed.run_until(cfg.warmup);
  bed.begin_measurement();
  bed.run_until(cfg.warmup + cfg.measure);
  const auto result = bed.finish_measurement();
  const double fig13_wall = wall_seconds(t0);
  const double fig13_pkts = static_cast<double>(bed.packets_processed());
  const double fig13_eps = static_cast<double>(bed.sim().events_processed()) / fig13_wall;
  const double fig13_pps = fig13_pkts / fig13_wall;

  // fig13_fullstack: the same testbed with one arrival process per flow —
  // kFullstackFlows concurrently pending timers — on every enabled
  // backend, driven as a SweepRunner shard list over the registered
  // "fig13_fullstack_perflow" scenario. The tracked number: per-backend
  // simulated packets/sec.
  const auto* fs_scenario = metro::scenario::find_scenario("fig13_fullstack_perflow");
  if (fs_scenario == nullptr) {
    std::cerr << "fig13_fullstack_perflow missing from the scenario registry\n";
    return 2;
  }
  auto fs_cfg = fs_scenario->config;  // per-flow Poisson sources, 24576 flows
  // The windows this scenario has always used *in this bench* (since PR 3,
  // pre-registry) — shorter than the registry defaults — so the tracked
  // fig13_fullstack series stays comparable PR over PR.
  fs_cfg.warmup = 20 * metro::sim::kMillisecond;
  fs_cfg.measure = (fast ? 60 : 200) * metro::sim::kMillisecond;
  std::vector<metro::scenario::Shard> fs_shards;
  for (const auto backend : metro::bench::backend_kinds(args.backend)) {
    fs_shards.push_back(metro::scenario::Shard{fs_scenario->name, backend, fs_cfg});
  }
  const auto fs_results = metro::scenario::SweepRunner(args.jobs).run(fs_shards);
  FullstackRun fs_heap, fs_wheel;
  for (std::size_t i = 0; i < fs_shards.size(); ++i) {
    switch (fs_shards[i].backend) {
      case metro::scenario::BackendKind::kHeap: fs_heap = from_shard(fs_results[i]); break;
      case metro::scenario::BackendKind::kWheel: fs_wheel = from_shard(fs_results[i]); break;
    }
  }
  const bool fullstack_diverged =
      fs_heap.ran && fs_wheel.ran && fs_heap.fingerprint != fs_wheel.fingerprint;
  if (fullstack_diverged) {
    const auto& a = fs_heap.counters;
    const auto& b = fs_wheel.counters;
    std::cerr << "BACKEND DIVERGENCE in fig13_fullstack (telemetry fingerprint "
              << fs_heap.fingerprint << " vs " << fs_wheel.fingerprint
              << "): heap rx/drop/tx/processed " << a.rx << "/" << a.dropped << "/" << a.tx
              << "/" << a.processed << " vs wheel " << b.rx << "/" << b.dropped << "/" << b.tx
              << "/" << b.processed << "\n";
  }

  // Full-stack scale ladder: fig13_fullstack_1m/4m/16m (2^20 / 2^22 /
  // 2^24 per-flow sources) — the wheel's home regime, then the beyond-LLC
  // regime and the memory-bandwidth wall. Wall time is noisy at these run
  // lengths, so every enabled backend is repeated over several trials
  // (serially: wall is the metric) and the JSON records median/IQR. On
  // top of the cross-backend identity check, the wheel runs twice per
  // trial wherever for_population() picks a non-default geometry: once
  // with the registry's auto geometry and once with the fixed 8/10/5
  // default, so the auto-selection win is measured, not assumed. The
  // execution itself is deterministic: every trial of every backend and
  // every geometry must produce one and the same telemetry fingerprint.
  // --fast drops the 16M population (tier-1 CI budget); --flows=N swaps
  // the whole ladder for one custom population built from the 1M
  // scenario's testbed.
  struct ScaleSamples {
    std::vector<double> wall;
    std::vector<double> pps;
    FullstackRun last;  // deterministic fields (pending, counters, fingerprint)
    bool ran = false;
    void add(const FullstackRun& r) {
      wall.push_back(r.wall);
      pps.push_back(r.pps);
      last = r;
      ran = true;
    }
  };
  struct PopulationResult {
    std::string name;                    // scenario (or synthetic --flows label)
    metro::apps::ExperimentConfig cfg;   // bench windows + --flows applied
    int trials = 0;
    std::array<ScaleSamples, 2> backend;  // indexed by BackendKind: heap, wheel
    ScaleSamples wheel_fixed;             // wheel under the fixed 8/10/5 default
    bool fixed_distinct = false;          // for_population() != default geometry
    bool diverged = false;
    std::uint64_t fp = 0;
    bool have_fp = false;
  };
  std::vector<PopulationResult> pops;
  {
    std::vector<std::pair<const char*, int>> plan;  // scenario, trials
    if (args.flows == 0) {
      plan.emplace_back("fig13_fullstack_1m", fast ? 2 : 3);
      plan.emplace_back("fig13_fullstack_4m", fast ? 2 : 3);
      if (!fast) plan.emplace_back("fig13_fullstack_16m", 2);
    } else {
      plan.emplace_back("fig13_fullstack_1m", fast ? 2 : 3);  // testbed template
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
        pr.cfg.wheel = metro::sim::WheelConfig::for_population(args.flows);
      }
      if (fast) pr.cfg.measure = 10 * metro::sim::kMillisecond;
      const metro::sim::WheelConfig def{};
      pr.fixed_distinct = pr.cfg.wheel.slot_bits != def.slot_bits ||
                          pr.cfg.wheel.tick_shift != def.tick_shift ||
                          pr.cfg.wheel.levels != def.levels;
      pops.push_back(std::move(pr));
    }
  }
  bool scale_diverged = false;
  for (auto& pr : pops) {
    for (int trial = 0; trial < pr.trials; ++trial) {
      std::vector<metro::scenario::Shard> shards;
      std::vector<int> slot;  // 0..1 = BackendKind index, 2 = wheel_fixed
      for (const auto backend : metro::bench::backend_kinds(args.backend)) {
        shards.push_back(metro::scenario::Shard{pr.name, backend, pr.cfg});
        slot.push_back(static_cast<int>(backend));
      }
      if (wheel_on && pr.fixed_distinct) {
        auto cfg = pr.cfg;
        cfg.wheel = metro::sim::WheelConfig{};
        shards.push_back(
            metro::scenario::Shard{pr.name, metro::scenario::BackendKind::kWheel, cfg});
        slot.push_back(2);
      }
      const auto out = metro::scenario::SweepRunner(1).run(shards);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto r = from_shard(out[i]);
        if (slot[i] == 2) {
          pr.wheel_fixed.add(r);
        } else {
          pr.backend[static_cast<std::size_t>(slot[i])].add(r);
        }
        if (!pr.have_fp) {
          pr.have_fp = true;
          pr.fp = r.fingerprint;
        } else if (r.fingerprint != pr.fp) {
          pr.diverged = true;
          scale_diverged = true;
          std::cerr << "DIVERGENCE in " << pr.name << ": "
                    << (slot[i] == 2 ? "wheel(8/10/5)"
                                     : metro::scenario::backend_name(shards[i].backend))
                    << " trial " << trial << " fingerprint " << r.fingerprint << " != " << pr.fp
                    << "\n";
        }
      }
    }
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  const auto median = [&](const std::vector<double>& v) { return quantile(v, 0.5); };
  const auto iqr = [&](const std::vector<double>& v) {
    return quantile(v, 0.75) - quantile(v, 0.25);
  };

  // Wheel geometry sweep: a slot_bits x tick_shift grid over every scale
  // population, levels filled in as the deepest hierarchy the kernel's
  // tick_shift + levels*slot_bits <= 62 bound admits (capped at the
  // default 5). This is the measurement WheelConfig::for_population()
  // encodes: the winner per population. Geometry is a pure speed knob —
  // every grid point must reproduce the population's fingerprint bit for
  // bit. One trial per point (the medians the picker is built from come
  // from the repeated-trial scale block above); the 16M population gets
  // the reduced grid even in full mode to keep the bench's wall time
  // bounded.
  struct GeoPoint {
    metro::sim::WheelConfig cfg;
    FullstackRun run;
  };
  struct GeoSweep {
    std::vector<GeoPoint> points;
    std::size_t best = 0;
    bool ran = false;
  };
  std::vector<GeoSweep> geo_sweeps(pops.size());
  bool wheel_geo_diverged = false;
  if (wheel_on) {
    for (std::size_t p = 0; p < pops.size(); ++p) {
      auto& pr = pops[p];
      const bool small_grid = fast || pr.cfg.workload.n_flows >= (std::size_t{1} << 24);
      const std::vector<std::uint32_t> sbs =
          small_grid ? std::vector<std::uint32_t>{8, 12} : std::vector<std::uint32_t>{8, 10, 12};
      const std::vector<std::uint32_t> tss =
          small_grid ? std::vector<std::uint32_t>{10, 16}
                     : std::vector<std::uint32_t>{10, 13, 16};
      auto& sweep = geo_sweeps[p];
      std::vector<metro::scenario::Shard> shards;
      for (const auto sb : sbs) {
        for (const auto ts : tss) {
          const metro::sim::WheelConfig wc{sb, ts, std::min(5u, (62u - ts) / sb)};
          auto cfg = pr.cfg;
          cfg.wheel = wc;
          shards.push_back(
              metro::scenario::Shard{pr.name, metro::scenario::BackendKind::kWheel, cfg});
          sweep.points.push_back(GeoPoint{wc, {}});
        }
      }
      const auto out = metro::scenario::SweepRunner(1).run(shards);
      for (std::size_t i = 0; i < out.size(); ++i) {
        sweep.points[i].run = from_shard(out[i]);
        if (pr.have_fp && sweep.points[i].run.fingerprint != pr.fp) {
          wheel_geo_diverged = true;
          std::cerr << "GEOMETRY DIVERGENCE in " << pr.name << " at wheel "
                    << sweep.points[i].cfg.slot_bits << "/" << sweep.points[i].cfg.tick_shift
                    << "/" << sweep.points[i].cfg.levels
                    << ": telemetry differs from the scale-block runs\n";
        }
        if (sweep.points[i].run.wall < sweep.points[sweep.best].run.wall) sweep.best = i;
      }
      sweep.ran = true;
    }
  }

  const auto row = [&](const char* name, const ScenarioResult& r) {
    std::cout << "  " << name << ": legacy " << metro::bench::num(r.baseline_eps() / 1e6)
              << " M useful events/s (raw " << metro::bench::num(r.baseline_raw_eps() / 1e6)
              << " incl. stale no-ops)";
    if (r.heap.ran) {
      std::cout << " | heap " << metro::bench::num(r.eps(r.heap) / 1e6) << " M/s (x"
                << metro::bench::num(r.speedup(r.heap)) << ")";
    }
    if (r.wheel.ran) {
      std::cout << " | wheel " << metro::bench::num(r.eps(r.wheel) / 1e6) << " M/s (x"
                << metro::bench::num(r.speedup(r.wheel)) << ")";
    }
    std::cout << "\n";
  };
  row("timer_churn            ", timer);
  row("coroutine_sleep        ", sleep);
  row("signal_timeout         ", signal);
  row("fig13_multiqueue_kernel", fig13k);
  std::cout << "  overall (geomean of first three): legacy "
            << metro::bench::num(overall_base / 1e6) << " M/s";
  if (heap_on) {
    std::cout << " | heap " << metro::bench::num(overall_heap / 1e6) << " M/s (x"
              << metro::bench::num(overall_heap / overall_base) << ")";
  }
  if (wheel_on) {
    std::cout << " | wheel " << metro::bench::num(overall_wheel / 1e6) << " M/s (x"
              << metro::bench::num(overall_wheel / overall_base) << ")";
  }
  std::cout << "\n";
  if (heap_on && wheel_on) {
    std::cout << "  fig13 kernel scenario, wheel vs heap: x"
              << metro::bench::num(fig13k.heap.wall / fig13k.wheel.wall) << " wall ("
              << kFig13Flows << "+ pending events)\n";
  }
  std::cout << "\n  fig13 multiqueue (full stack, grouped feeder, heap): "
            << metro::bench::num(fig13_pps / 1e6) << " M simulated packets/s, "
            << metro::bench::num(fig13_eps / 1e6) << " M events/s, wall "
            << metro::bench::num(fig13_wall) << " s, throughput "
            << metro::bench::num(result.throughput_mpps, 1) << " Mpps simulated\n";

  const auto fs_row = [](const char* name, const FullstackRun& r) {
    if (!r.ran) return;
    std::cout << "  fig13 fullstack (" << kFullstackFlows << " per-flow sources, " << name
              << "): " << metro::bench::num(r.pps / 1e6) << " M simulated packets/s, "
              << metro::bench::num(r.eps / 1e6) << " M events/s, wall "
              << metro::bench::num(r.wall) << " s, " << r.pending << " pending events\n";
  };
  fs_row("heap", fs_heap);
  fs_row("wheel", fs_wheel);
  if (fs_heap.ran && fs_wheel.ran) {
    std::cout << "  fig13 fullstack, wheel vs heap: x"
              << metro::bench::num(fs_heap.wall / fs_wheel.wall) << " wall"
              << (fullstack_diverged ? "  [TELEMETRY DIVERGED]" : "  (identical telemetry)")
              << "\n";
  }
  const auto scale_row = [&](const char* name, const ScaleSamples& b) {
    if (!b.ran) return;
    std::cout << "    " << name << ": wall median " << metro::bench::num(median(b.wall))
              << " s (IQR " << metro::bench::num(iqr(b.wall)) << "), "
              << metro::bench::num(median(b.pps) / 1e6) << " M simulated packets/s, "
              << b.last.pending << " pending events\n";
  };
  for (const auto& pr : pops) {
    const auto& wc = pr.cfg.wheel;
    std::cout << "\n  " << pr.name << " (" << pr.cfg.workload.n_flows << " per-flow sources, "
              << pr.trials << " trials per backend, wheel " << wc.slot_bits << "/"
              << wc.tick_shift << "/" << wc.levels << "):\n";
    scale_row("heap        ", pr.backend[0]);
    scale_row("wheel(auto) ", pr.backend[1]);
    scale_row("wheel(8/10/5)", pr.wheel_fixed);
    const auto& wheel = pr.backend[1];
    if (wheel.ran && pr.backend[0].ran) {
      std::cout << "    wheel vs heap: x"
                << metro::bench::num(median(pr.backend[0].wall) / median(wheel.wall));
      if (pr.wheel_fixed.ran) {
        std::cout << ", auto vs fixed geometry: x"
                  << metro::bench::num(median(pr.wheel_fixed.wall) / median(wheel.wall));
      }
      std::cout << (pr.diverged ? "  [TELEMETRY DIVERGED]" : "  (identical telemetry)") << "\n";
    }
  }
  for (std::size_t p = 0; p < geo_sweeps.size(); ++p) {
    const auto& sweep = geo_sweeps[p];
    if (!sweep.ran || sweep.points.empty()) continue;
    std::cout << "\n  wheel geometry sweep, " << pops[p].name << " (" << sweep.points.size()
              << " grid points, slot_bits x tick_shift):\n";
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      const auto& pt = sweep.points[i];
      std::cout << "    " << pt.cfg.slot_bits << "/" << pt.cfg.tick_shift << "/"
                << pt.cfg.levels << ": wall " << metro::bench::num(pt.run.wall) << " s, "
                << metro::bench::num(pt.run.pps / 1e6) << " M pkt/s"
                << (i == sweep.best ? "  <- best" : "") << "\n";
    }
  }

  // --- crypto substrate summary + fig16 live-crypto delta ----------------
  // Headline numbers only; the full scalar/ttable/auto matrix is
  // bench_crypto's job (BENCH_crypto.json). Tracked here too so the kernel
  // JSON carries the crypto trajectory PR over PR alongside events/sec.
  namespace cryptob = metro::bench::cryptob;
  using cryptob::Sample;
  const int crypto_trials = fast ? 5 : 7;
  const std::span<const std::uint8_t, 16> ckey(cryptob::kBenchKey);
  const metro::crypto::AesCbc c_fast(ckey);
  const metro::crypto::ScalarAesCbc c_scalar(ckey);
  std::vector<std::uint8_t> cbuf(1024);
  for (std::size_t i = 0; i < cbuf.size(); ++i) cbuf[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t cbc_iters = 2'000 * scale;
  const Sample cbc_enc_scalar =
      cryptob::time_ns_per_op(crypto_trials, cbc_iters, [&](std::uint64_t n) {
        return cryptob::cbc_loop<metro::crypto::ScalarAesCbc, false>(c_scalar, cbuf, n);
      });
  const Sample cbc_enc_fast =
      cryptob::time_ns_per_op(crypto_trials, cbc_iters, [&](std::uint64_t n) {
        return cryptob::cbc_loop<metro::crypto::AesCbc, false>(c_fast, cbuf, n);
      });
  const Sample cbc_dec_scalar =
      cryptob::time_ns_per_op(crypto_trials, cbc_iters, [&](std::uint64_t n) {
        return cryptob::cbc_loop<metro::crypto::ScalarAesCbc, true>(c_scalar, cbuf, n);
      });
  const Sample cbc_dec_fast =
      cryptob::time_ns_per_op(crypto_trials, cbc_iters, [&](std::uint64_t n) {
        return cryptob::cbc_loop<metro::crypto::AesCbc, true>(c_fast, cbuf, n);
      });
  const std::vector<std::uint8_t> c_auth_key(20, 0xa5);
  const metro::crypto::HmacSha1 h_fast(c_auth_key);
  const metro::crypto::ScalarHmacSha1 h_scalar(c_auth_key);
  const std::vector<std::uint8_t> c_msg(64, 0x5a);
  const std::uint64_t hmac_iters = 10'000 * scale;
  const Sample hmac_scalar =
      cryptob::time_ns_per_op(crypto_trials, hmac_iters,
                              [&](std::uint64_t n) { return cryptob::hmac_loop(h_scalar, c_msg, n); });
  const Sample hmac_fast =
      cryptob::time_ns_per_op(crypto_trials, hmac_iters,
                              [&](std::uint64_t n) { return cryptob::hmac_loop(h_fast, c_msg, n); });
  const auto c_sa = cryptob::bench_sa();
  metro::net::Packet c_tmpl;
  metro::net::build_udp_packet(c_tmpl, {metro::net::ipv4_addr(192, 168, 1, 5),
                                        metro::net::ipv4_addr(192, 168, 2, 9), 5555, 6666,
                                        metro::net::kIpProtoUdp});
  const std::vector<std::uint8_t> c_inner(c_tmpl.data(), c_tmpl.data() + c_tmpl.size());
  metro::apps::IpsecGateway gw_fast_eg(c_sa), gw_fast_in(c_sa);
  metro::apps::ScalarIpsecGateway gw_scalar_eg(c_sa), gw_scalar_in(c_sa);
  const std::uint64_t esp_iters = 10'000 * scale;
  const Sample esp_scalar =
      cryptob::time_ns_per_op(crypto_trials, esp_iters, [&](std::uint64_t n) {
        return cryptob::gateway_loop(gw_scalar_eg, gw_scalar_in, c_inner, n);
      });
  const Sample esp_fast = cryptob::time_ns_per_op(crypto_trials, esp_iters, [&](std::uint64_t n) {
    return cryptob::gateway_loop(gw_fast_eg, gw_fast_in, c_inner, n);
  });
  const auto to_pps = [](const Sample& s) { return s.median > 0.0 ? 1e9 / s.median : 0.0; };
  const char* aes_impl =
      metro::crypto::Aes128::hardware_available() ? "aesni" : "ttable";

  // fig16 ipsec live-crypto delta: the paper's max-rate IPsec point
  // (5.61 Mpps, Metronome, heap) run calibrated, then with the real ESP
  // gateway per packet (fast and scalar substrates). Simulated results
  // must be bit-identical — the hook is wall-clock-only by construction —
  // so the delta isolates what the crypto substrate costs end to end.
  const auto w16 = metro::bench::windows(fast);
  metro::apps::ExperimentConfig icfg;
  icfg.driver = metro::apps::DriverKind::kMetronome;
  icfg.met.per_packet_cost = metro::sim::calib::kIpsecPerPacketCost;
  icfg.n_cores = 3;
  icfg.workload.rate_mpps = 5.61;
  icfg.warmup = w16.warmup;
  icfg.measure = w16.measure;
  cryptob::LiveGatewayWorker<metro::apps::IpsecGateway> live_fast_worker(c_sa);
  cryptob::LiveGatewayWorker<metro::apps::ScalarIpsecGateway> live_scalar_worker(c_sa);
  std::vector<metro::scenario::Shard> ishards(
      3, metro::scenario::Shard{"fig16_ipsec_5.61mpps_metronome",
                                metro::scenario::BackendKind::kHeap, icfg});
  ishards[1].config.met.packet_work = metro::nic::PacketWork(live_fast_worker);
  ishards[2].config.met.packet_work = metro::nic::PacketWork(live_scalar_worker);
  const auto iruns = metro::scenario::SweepRunner(1).run(ishards);
  const bool live_identical = iruns[0].fingerprint == iruns[1].fingerprint &&
                              iruns[1].fingerprint == iruns[2].fingerprint;
  const auto live_pps = [](const metro::scenario::ShardResult& r) {
    return r.wall_seconds > 0.0 ? static_cast<double>(r.counters.processed) / r.wall_seconds : 0.0;
  };

  std::cout << "\n  crypto substrate (auto path: " << aes_impl << ", median of " << crypto_trials
            << " trials):\n"
            << "    AES-CBC-1024B encrypt " << metro::bench::num(cbc_enc_scalar.median, 0)
            << " -> " << metro::bench::num(cbc_enc_fast.median, 0) << " ns (x"
            << metro::bench::num(cryptob::speedup(cbc_enc_scalar, cbc_enc_fast)) << "), decrypt "
            << metro::bench::num(cbc_dec_scalar.median, 0) << " -> "
            << metro::bench::num(cbc_dec_fast.median, 0) << " ns (x"
            << metro::bench::num(cryptob::speedup(cbc_dec_scalar, cbc_dec_fast)) << ")\n"
            << "    HMAC-SHA1-96 64B " << metro::bench::num(hmac_scalar.median, 0) << " -> "
            << metro::bench::num(hmac_fast.median, 0) << " ns (x"
            << metro::bench::num(cryptob::speedup(hmac_scalar, hmac_fast)) << ")\n"
            << "    ESP encap+decap " << metro::bench::num(to_pps(esp_scalar), 0) << " -> "
            << metro::bench::num(to_pps(esp_fast), 0) << " pkt/s (x"
            << metro::bench::num(cryptob::speedup(esp_scalar, esp_fast)) << ")\n"
            << "  fig16 ipsec 5.61 Mpps Metronome, calibrated vs live crypto:\n"
            << "    calibrated wall " << metro::bench::num(iruns[0].wall_seconds, 3)
            << " s | live fast wall " << metro::bench::num(iruns[1].wall_seconds, 3) << " s ("
            << metro::bench::num(live_pps(iruns[1]), 0) << " sim-pkt/s) | live scalar wall "
            << metro::bench::num(iruns[2].wall_seconds, 3) << " s ("
            << metro::bench::num(live_pps(iruns[2]), 0) << " sim-pkt/s)"
            << (live_identical ? "  (identical telemetry)" : "  [TELEMETRY DIVERGED]") << "\n";

  // Machine-readable artifact, emitted through the one JSON path
  // (stats::JsonWriter). Field names unchanged from the hand-rolled
  // schema except counters_identical -> telemetry_identical (the check is
  // a full-telemetry fingerprint now, see docs/BENCHMARKS.md).
  std::ofstream json_file("BENCH_kernel.json");
  metro::stats::JsonWriter w(json_file);
  w.begin_object();
  w.kv("bench", "kernel_throughput");
  w.kv("fast_mode", fast);
  w.key("backends").begin_array();
  if (heap_on) w.value("heap");
  if (wheel_on) w.value("wheel");
  w.end_array();
  w.key("scenarios").begin_object();
  const auto emit_backend_run = [&w](const char* key, const ScenarioResult& r, const Run& run) {
    w.key(key).begin_object();
    w.kv("events_per_sec", r.eps(run));
    w.kv("wall_seconds", run.wall);
    w.kv("speedup_vs_legacy", r.speedup(run));
    w.end_object();
  };
  const auto emit = [&](const char* name, const ScenarioResult& r) {
    w.key(name).begin_object();
    w.kv("baseline_events_per_sec", r.baseline_eps());
    w.kv("baseline_raw_events_per_sec", r.baseline_raw_eps());
    w.kv("baseline_wall_seconds", r.base.wall);
    if (r.heap.ran) emit_backend_run("heap", r, r.heap);
    if (r.wheel.ran) emit_backend_run("wheel", r, r.wheel);
    w.end_object();
  };
  emit("timer_churn", timer);
  emit("coroutine_sleep", sleep);
  emit("signal_timeout", signal);
  emit("fig13_multiqueue_kernel", fig13k);
  w.end_object();
  w.key("overall").begin_object();
  w.kv("baseline_events_per_sec", overall_base);
  if (heap_on) {
    w.kv("heap_events_per_sec", overall_heap);
    w.kv("heap_speedup", overall_heap / overall_base);
  }
  if (wheel_on) {
    w.kv("wheel_events_per_sec", overall_wheel);
    w.kv("wheel_speedup", overall_wheel / overall_base);
  }
  w.end_object();
  if (heap_on && wheel_on) {
    w.kv("fig13_kernel_wheel_vs_heap_speedup", fig13k.heap.wall / fig13k.wheel.wall);
  }
  w.key("fig13_fullstack").begin_object();
  w.kv("n_flows", static_cast<std::uint64_t>(kFullstackFlows));
  w.kv("per_flow_sources", true);
  const auto emit_fs = [&w](const char* key, const FullstackRun& r) {
    if (!r.ran) return;
    w.key(key).begin_object();
    w.kv("simulated_packets_per_sec", r.pps);
    w.kv("events_per_sec", r.eps);
    w.kv("wall_seconds", r.wall);
    w.kv("simulated_throughput_mpps", r.throughput_mpps);
    w.kv("pending_events", static_cast<std::uint64_t>(r.pending));
    w.end_object();
  };
  emit_fs("heap", fs_heap);
  emit_fs("wheel", fs_wheel);
  if (fs_heap.ran && fs_wheel.ran) {
    w.kv("wheel_vs_heap_speedup", fs_heap.wall / fs_wheel.wall);
    w.kv("telemetry_identical", !fullstack_diverged);
  }
  w.end_object();
  const auto emit_scale_samples = [&](const char* key, const ScaleSamples& b) {
    if (!b.ran) return;
    w.key(key).begin_object();
    w.kv("wall_seconds_median", median(b.wall));
    w.kv("wall_seconds_iqr", iqr(b.wall));
    w.kv("simulated_packets_per_sec_median", median(b.pps));
    w.kv("simulated_packets_per_sec_iqr", iqr(b.pps));
    w.kv("pending_events", static_cast<std::uint64_t>(b.last.pending));
    w.end_object();
  };
  const auto emit_population = [&](const PopulationResult& pr) {
    w.kv("n_flows", static_cast<std::uint64_t>(pr.cfg.workload.n_flows));
    w.kv("per_flow_sources", true);
    w.kv("trials", static_cast<std::uint64_t>(pr.trials));
    emit_scale_samples("heap", pr.backend[0]);
    emit_scale_samples("wheel", pr.backend[1]);
    emit_scale_samples("wheel_fixed", pr.wheel_fixed);
    w.key("wheel_geometry").begin_object();
    w.kv("slot_bits", static_cast<std::uint64_t>(pr.cfg.wheel.slot_bits));
    w.kv("tick_shift", static_cast<std::uint64_t>(pr.cfg.wheel.tick_shift));
    w.kv("levels", static_cast<std::uint64_t>(pr.cfg.wheel.levels));
    w.end_object();
    const auto& wheel = pr.backend[1];
    if (wheel.ran && pr.backend[0].ran) {
      w.kv("wheel_vs_heap_speedup", median(pr.backend[0].wall) / median(wheel.wall));
    }
    if (wheel.ran && pr.wheel_fixed.ran) {
      w.kv("wheel_auto_vs_fixed_speedup", median(pr.wheel_fixed.wall) / median(wheel.wall));
    }
    w.kv("telemetry_identical", !pr.diverged);
  };
  w.key("fig13_fullstack_scale").begin_object();
  w.key("populations").begin_object();
  for (const auto& pr : pops) {
    w.key(pr.name.c_str()).begin_object();
    emit_population(pr);
    w.end_object();
  }
  w.end_object();
  w.kv("telemetry_identical", !scale_diverged);
  w.end_object();
  {
    bool any_sweep = false;
    for (const auto& s : geo_sweeps) any_sweep = any_sweep || (s.ran && !s.points.empty());
    if (any_sweep) {
      w.key("wheel_geometry_sweep").begin_object();
      w.key("populations").begin_object();
      for (std::size_t p = 0; p < geo_sweeps.size(); ++p) {
        const auto& sweep = geo_sweeps[p];
        if (!sweep.ran || sweep.points.empty()) continue;
        w.key(pops[p].name.c_str()).begin_object();
        w.kv("n_flows", static_cast<std::uint64_t>(pops[p].cfg.workload.n_flows));
        w.key("grid").begin_array();
        for (const auto& pt : sweep.points) {
          w.begin_object();
          w.kv("slot_bits", static_cast<std::uint64_t>(pt.cfg.slot_bits));
          w.kv("tick_shift", static_cast<std::uint64_t>(pt.cfg.tick_shift));
          w.kv("levels", static_cast<std::uint64_t>(pt.cfg.levels));
          w.kv("wall_seconds", pt.run.wall);
          w.kv("simulated_packets_per_sec", pt.run.pps);
          w.end_object();
        }
        w.end_array();
        const auto& best = sweep.points[sweep.best];
        w.key("best").begin_object();
        w.kv("slot_bits", static_cast<std::uint64_t>(best.cfg.slot_bits));
        w.kv("tick_shift", static_cast<std::uint64_t>(best.cfg.tick_shift));
        w.kv("levels", static_cast<std::uint64_t>(best.cfg.levels));
        w.kv("wall_seconds", best.run.wall);
        w.end_object();
        w.end_object();
      }
      w.end_object();
      w.kv("telemetry_identical", !wheel_geo_diverged);
      w.end_object();
    }
  }
  w.key("fig13_multiqueue").begin_object();
  w.kv("backend", "heap");
  w.kv("simulated_packets_per_sec", fig13_pps);
  w.kv("events_per_sec", fig13_eps);
  w.kv("wall_seconds", fig13_wall);
  w.kv("simulated_throughput_mpps", result.throughput_mpps);
  w.end_object();
  w.key("crypto").begin_object();
  w.kv("aes_impl", aes_impl);
  w.kv("trials", static_cast<std::uint64_t>(crypto_trials));
  const auto emit_sample = [&w](const char* name, const Sample& s) {
    w.key(name).begin_object();
    w.kv("ns_median", s.median);
    w.kv("ns_iqr", s.iqr);
    w.end_object();
  };
  emit_sample("aes_cbc_1024_encrypt_scalar", cbc_enc_scalar);
  emit_sample("aes_cbc_1024_encrypt_fast", cbc_enc_fast);
  w.kv("aes_cbc_1024_encrypt_speedup", cryptob::speedup(cbc_enc_scalar, cbc_enc_fast));
  emit_sample("aes_cbc_1024_decrypt_scalar", cbc_dec_scalar);
  emit_sample("aes_cbc_1024_decrypt_fast", cbc_dec_fast);
  w.kv("aes_cbc_1024_decrypt_speedup", cryptob::speedup(cbc_dec_scalar, cbc_dec_fast));
  emit_sample("hmac_sha1_96_64b_scalar", hmac_scalar);
  emit_sample("hmac_sha1_96_64b_fast", hmac_fast);
  w.kv("hmac_sha1_96_64b_speedup", cryptob::speedup(hmac_scalar, hmac_fast));
  emit_sample("esp_encap_decap_scalar", esp_scalar);
  emit_sample("esp_encap_decap_fast", esp_fast);
  w.kv("esp_encap_decap_scalar_pps", to_pps(esp_scalar));
  w.kv("esp_encap_decap_fast_pps", to_pps(esp_fast));
  w.kv("esp_encap_decap_speedup", cryptob::speedup(esp_scalar, esp_fast));
  w.key("fig16_ipsec_live").begin_object();
  w.kv("rate_mpps", 5.61);
  w.kv("driver", "metronome");
  w.kv("backend", "heap");
  w.kv("calibrated_wall_seconds", iruns[0].wall_seconds);
  w.kv("live_fast_wall_seconds", iruns[1].wall_seconds);
  w.kv("live_scalar_wall_seconds", iruns[2].wall_seconds);
  w.kv("live_fast_sim_pkts_per_sec", live_pps(iruns[1]));
  w.kv("live_scalar_sim_pkts_per_sec", live_pps(iruns[2]));
  w.kv("live_fast_slowdown_vs_calibrated",
       iruns[0].wall_seconds > 0.0 ? iruns[1].wall_seconds / iruns[0].wall_seconds : 0.0);
  w.kv("telemetry_identical", live_identical);
  w.end_object();
  w.end_object();
  w.end_object();
  w.finish();
  if (fullstack_diverged || scale_diverged || wheel_geo_diverged) {
    std::cout << "\nwrote BENCH_kernel.json ("
              << (fullstack_diverged ? "BACKEND"
                  : scale_diverged   ? "SCALE-LADDER"
                                     : "WHEEL-GEOMETRY") << " DIVERGENCE — failing)\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_kernel.json\n";
  return 0;
}
