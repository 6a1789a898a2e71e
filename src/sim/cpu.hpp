// CPU core model: processor sharing, CFS-like weights, DVFS governors and a
// RAPL-style power model.
//
// Why processor sharing: the paper's §V-E experiments put Metronome threads,
// a static-polling DPDK thread and a CPU-bound `ferret` task on the same
// cores and observe (i) throughput collapse for the single-core static
// poller, (ii) a ~3x stretch of ferret next to a poller vs ~10% next to
// Metronome. A weighted processor-sharing core — each runnable entity
// receives CPU in proportion to its CFS weight — reproduces exactly these
// effects in a discrete-event setting without simulating CFS tick by tick.
//
// Entities:
//   * a *job* is a finite amount of work (ns at nominal frequency) submitted
//     by a coroutine via `co_await core.run_for(id, work)`; the coroutine
//     resumes when the work completes (its wall-clock duration depends on
//     competition and on the current frequency). A job submitted while its
//     entity is the core's only active one completes at a known instant;
//     when the kernel proves nothing else can happen first
//     (Simulation::advance_inline), the completion and the resume run in
//     place — same settle, same retirement, same event count — and the
//     coroutine goes on without suspending;
//   * a *spinning* entity is always runnable and never completes — this is a
//     busy-poll loop. It consumes CPU share (slowing everyone else) and
//     accrues on-CPU time, but needs no events while nothing changes.
//
// Frequency scaling: `performance` pins the core at nominal frequency;
// `ondemand` samples utilization periodically and picks
// freq = max(load, min_ratio), jumping to max above the up-threshold —
// the classic Linux ondemand policy. Work rates scale with frequency.
//
// Power: RAPL-like package accounting is split into a package base plus a
// per-core term: active cores burn static + dynamic (~f^3) power, idle cores
// sit in a shallow C-state. Constants live in calibration.hpp.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/calibration.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace metro::sim {

/// Linux CFS nice-to-weight mapping (kernel/sched/core.c, sched_prio_to_weight).
int nice_to_weight(int nice);

enum class Governor {
  kPerformance,
  kOndemand,
  /// No kernel policy: frequency is whatever software last requested via
  /// Core::request_freq() (the `userspace` governor; DPDK's power library
  /// drives it from the application, cf. the paper's refs [22][23]).
  kUserspace,
};

struct CoreConfig {
  Governor governor = Governor::kPerformance;
  double min_freq_ratio = calib::kMinFreqRatio;  // lowest P-state / nominal
  Time ondemand_sampling = calib::kOndemandSamplingPeriod;
  double ondemand_up_threshold = calib::kOndemandUpThreshold;
};

/// One simulated CPU core.
class Core {
 public:
  using EntityId = int;

  Core(Simulation& sim, int core_id, CoreConfig cfg = {});

  int id() const noexcept { return core_id_; }

  /// Register a schedulable entity (thread) with the given niceness.
  EntityId add_entity(std::string name, int nice = 0);

  /// Mark an entity as busy-polling (always runnable) or not.
  void set_spinning(EntityId id, bool spinning);

  /// Awaitable: consume `work` ns of CPU time at nominal frequency.
  /// Resumes once the work has been served under processor sharing.
  auto run_for(EntityId id, Time work) {
    struct Awaiter {
      Core& core;
      EntityId ent;
      Time work;
      bool await_ready() const noexcept { return work <= 0; }
      bool await_suspend(std::coroutine_handle<> h) { return core.submit_job(ent, work, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, id, work};
  }

  /// True if any entity is currently runnable on this core.
  bool busy() const noexcept { return !active_.empty(); }

  /// Number of currently runnable entities (jobs + spinners).
  int runnable_count() const noexcept { return static_cast<int>(active_.size()); }

  /// Current frequency as a fraction of nominal.
  double freq_ratio() const noexcept { return freq_ratio_; }

  /// Userspace-governor frequency request (clamped to [min_ratio, 1]).
  /// Ignored unless the core runs the kUserspace governor.
  void request_freq(double ratio);

  // --- accounting -----------------------------------------------------

  /// Total on-CPU time accrued by an entity since creation.
  Time on_cpu_time(EntityId id) const;

  /// Total busy time of the core since t = 0.
  Time busy_time() const;

  /// Joules consumed by this core since t = 0 (excluding package base).
  double energy_joules() const;

  /// Utilization and average power over [from, to], using snapshots.
  /// Callers snapshot at window edges via the *_at helpers below.
  struct Snapshot {
    Time at = 0;
    Time busy = 0;
    double joules = 0.0;
  };
  Snapshot snapshot();

 private:
  struct Entity {
    std::string name;
    int weight = 1024;
    bool spinning = false;
    bool has_job = false;
    double remaining = 0.0;  // ns of work at nominal frequency
    std::coroutine_handle<> waiter;
    Time on_cpu = 0;       // accrued on-CPU wall time
    int active_pos = -1;   // index into active_, -1 when not runnable
  };

  /// Start a job; false when it already ran to completion in place (the
  /// caller resumes at once, the clock at its completion instant).
  bool submit_job(EntityId id, Time work, std::coroutine_handle<> h);
  /// O(1) active-set maintenance (swap-remove; total weight kept in sync).
  void activate(EntityId id);
  void deactivate(EntityId id);
  /// Distribute CPU time since last_update_ across active entities.
  void settle();
  /// End `id`'s job (its work is served) and hand back its waiter.
  std::coroutine_handle<> retire(EntityId id);
  /// Nanoseconds until the earliest job completes at the current shares
  /// and frequency, rounded up; -1 when no job is outstanding.
  Time completion_delay() const;
  /// Retire the jobs done by now, then (re)compute and schedule the next
  /// job-completion event.
  void reschedule_completion();
  void on_completion_event();
  void governor_tick();
  void set_freq(double ratio);

  Simulation& sim_;
  int core_id_;
  CoreConfig cfg_;

  std::vector<Entity> entities_;
  std::vector<EntityId> active_;  // runnable entities (spinning or has_job)
  std::int64_t active_weight_ = 0;  // sum of active entities' weights (exact)

  Time last_update_ = 0;
  Time busy_time_ = 0;
  double energy_j_ = 0.0;
  double freq_ratio_ = 1.0;
  /// Pending completion timer; cancelled and re-armed on every state
  /// change instead of being left to fire as a stale no-op.
  Simulation::EventId completion_event_ = Simulation::kInvalidEvent;

  // ondemand sampling state
  Time last_sample_at_ = 0;
  Time busy_at_last_sample_ = 0;
};

/// A set of cores sharing one package, with aggregated power accounting.
class Machine {
 public:
  Machine(Simulation& sim, int n_cores, CoreConfig cfg = {});

  Core& core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
  const Core& core(int i) const { return *cores_[static_cast<std::size_t>(i)]; }
  int n_cores() const noexcept { return static_cast<int>(cores_.size()); }

  /// Package power averaged over [from, to], W. Uses per-core energy
  /// deltas plus the constant package base power.
  struct WindowStats {
    double avg_package_watts = 0.0;
    double total_cpu_usage_percent = 0.0;  // sum over cores, 100 = one full core
  };
  /// Snapshot all cores (call at window start and end).
  std::vector<Core::Snapshot> snapshot_all();
  WindowStats window_stats(const std::vector<Core::Snapshot>& start,
                           const std::vector<Core::Snapshot>& end) const;

 private:
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace metro::sim
