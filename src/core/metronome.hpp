/// \file metronome.hpp
/// The Metronome runtime (paper §III-B, §IV, Listing 2).
//
// M threads cooperatively service the N Rx queues of a port. Each thread
// loops forever:
//
//   wake -> trylock(queue) ->
//     success: drain the queue until empty (busy period), release, update
//              the queue's EWMA load estimate rho and its adaptive short
//              timeout TS (eq. 13 / eq. 14), sleep(TS)   [primary]
//     failure: count a busy try, pick the next queue at random,
//              sleep(TL)                                  [backup]
//
// All strategy choices the paper motivates are config knobs so the benches
// can ablate them: the primary/backup timeout diversity (§IV-A), the
// adaptive TS rule vs a fixed timeout, and the sticky-primary / random-
// backup queue selection of §IV-E.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ewma.hpp"
#include "core/model.hpp"
#include "core/queue_lock.hpp"
#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/sleep_service.hpp"
#include "stats/histogram.hpp"
#include "stats/metric_set.hpp"
#include "stats/summary.hpp"

namespace metro::core {

/// All tunables of the Metronome runtime. Paper defaults; every strategy
/// choice the paper motivates is a knob so the benches can ablate it.
struct MetronomeConfig {
  /// M: number of Metronome threads (paper default for 1 queue: 3).
  int n_threads = 3;
  /// Target mean vacation period, V-bar (paper default 10 us; 15 us on
  /// the 40 GbE multi-queue runs).
  sim::Time target_vacation = 10 * sim::kMicrosecond;
  /// TL: backup (long) timeout (paper default 500 us).
  sim::Time long_timeout = 500 * sim::kMicrosecond;
  /// Per-packet retrieval+processing cost of the hosted application
  /// (drained in bursts of sim::calib::kBurstSize).
  sim::Time per_packet_cost = sim::calib::kL3fwdPerPacketCost;
  /// Optional real per-packet work run for every drained descriptor after
  /// its cost is charged (wall-clock only — simulated time and telemetry
  /// are unaffected). Unset by default; the fig16 --crypto=live bench mode
  /// points it at the real ESP gateway.
  nic::PacketWork packet_work{};
  /// Sleep service used by every thread (hr_sleep by default).
  sim::SleepServiceConfig sleep{};

  // --- strategy knobs (ablation switches; paper defaults below) --------
  /// Adaptive TS via eq. 13/14. When false, TS = fixed_ts always.
  bool adaptive = true;
  sim::Time fixed_ts = 50 * sim::kMicrosecond;
  /// Primary/backup diversity (§IV-A). When false, the thread sleeps its
  /// short timeout even after a failed trylock — the "equal timeouts"
  /// strategy the paper rejects.
  bool primary_backup = true;
  /// §IV-E: a primary re-contends the same queue at its next wake-up...
  bool sticky_primary = true;
  /// ...while a backup picks its next queue uniformly at random.
  bool random_backup = true;
};

/// Per-queue shared state + statistics.
struct QueueState {
  QueueLock lock;
  sim::Time last_release = -1;  // end of the previous busy period
  Ewma rho{0.05};
  sim::Time ts;  // current adaptive short timeout for this queue

  // Counters (the experiment harness windows them through its MetricSet).
  std::uint64_t total_tries = 0;
  std::uint64_t busy_tries = 0;  // failed trylocks
  std::uint64_t lock_successes = 0;
  std::uint64_t packets = 0;
  std::uint64_t empty_polls = 0;  // busy periods that drained nothing
  std::uint64_t slept_ns = 0;     // total sim time threads slept on this queue
  stats::Summary vacation_us;
  stats::Summary busy_us;
  stats::Summary nv;  // packets found queued at busy-period start
  stats::Summary sleep_us;    // per-sleep duration distribution (actual, incl. overshoot)
  stats::Summary burst_fill;  // packets per pop_burst (batch occupancy)
  /// Optional full vacation-period distribution (Fig. 4); caller-owned.
  stats::Histogram* vacation_hist = nullptr;
};

/// The Metronome runtime: spawns M sleep/wake threads that cooperatively
/// drain the port's Rx queues (see the file comment for the loop), owns
/// the per-queue shared state, and aggregates the statistics the figure
/// benches read.
class Metronome {
 public:
  /// Threads are placed round-robin on `cores` (thread i on
  /// cores[i % cores.size()]); the port's queue count defines N.
  Metronome(sim::Simulation& sim, nic::Port& port, std::vector<sim::Core*> cores,
            MetronomeConfig cfg);

  /// Spawn all M threads. Each starts with a small random stagger so wake
  /// times decorrelate from t = 0 (they would anyway after a few cycles).
  void start();

  int n_threads() const noexcept { return cfg_.n_threads; }
  int n_queues() const noexcept { return port_.n_rx_queues(); }
  const MetronomeConfig& config() const noexcept { return cfg_; }

  QueueState& queue_state(int q) { return *queues_[static_cast<std::size_t>(q)]; }
  const QueueState& queue_state(int q) const { return *queues_[static_cast<std::size_t>(q)]; }

  /// Total packets processed across queues.
  std::uint64_t packets_processed() const;
  /// Mean rho over queues (instantaneous EWMA values).
  double mean_rho() const;
  /// Mean of the queues' current TS values, in microseconds.
  double mean_ts_us() const;

  /// Attach every per-queue observable to `set`: `<prefix>.qN.total_tries`
  /// / `.busy_tries` / `.lock_successes` / `.packets` / `.empty_polls` /
  /// `.slept_ns` counters and the `.vacation_us` / `.busy_us` / `.nv` /
  /// `.sleep_us` / `.burst_fill` summaries. Setup only; the thread loop
  /// keeps its plain increments.
  void register_metrics(stats::MetricSet& set, const std::string& prefix);

  /// (core, entity) of every thread, for CPU-usage accounting.
  struct ThreadRef {
    sim::Core* core;
    sim::Core::EntityId entity;
  };
  const std::vector<ThreadRef>& threads() const noexcept { return threads_; }

 private:
  sim::Task thread_task(int thread_id);
  sim::Time compute_ts(const QueueState& q) const;

  /// Account one completed sleep on `q` (duration metrics + optional
  /// kMetSleep trace span). Called by the thread loop right after resume —
  /// plain function, so no RAII span has to live across a co_await.
  void note_sleep(QueueState& q, int thread_id, int queue, sim::Time t0, sim::Time armed);

  sim::Simulation& sim_;
  nic::Port& port_;
  std::vector<sim::Core*> cores_;
  MetronomeConfig cfg_;
  std::vector<std::unique_ptr<QueueState>> queues_;
  std::vector<ThreadRef> threads_;
  std::vector<std::unique_ptr<sim::SleepService>> sleepers_;  // one per thread
  bool started_ = false;
};

}  // namespace metro::core
