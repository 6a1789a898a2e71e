/// \file sweep.hpp
/// Parallel parameter-matrix sweep runner.
///
/// The paper's evaluation is a matrix of testbed configurations.
/// SweepRunner expands a matrix (or takes a hand-built shard list, as
/// bench_paper does) into independent *shards* (one complete Testbed run
/// each: own Simulation, own RNG, own results), executes them on a pool
/// of std::thread workers, and returns the results in shard order.
///
/// Determinism contract: each shard is a pure function of its
/// ExperimentConfig (seeds included), shards share no mutable state, and
/// the result vector is indexed by shard order — so results (and
/// the JSON report, timing fields aside) are bit-identical for any worker
/// count. Each shard runs on its scenario's registered seeds.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/registry.hpp"
#include "stats/metric_set.hpp"
#include "stats/time_series.hpp"
#include "stats/trace.hpp"

namespace metro::scenario {

/// One unit of sweep work: a complete experiment.
struct Shard {
  std::string scenario;  ///< label for reports (registry name or bench key)
  apps::ExperimentConfig config;
};

/// Headline packet counters, for tables and divergence diagnostics. A
/// *view* over the shard's telemetry snapshot — identity checks no longer
/// compare this hand-picked subset; they compare ShardResult::fingerprint,
/// which covers every registered metric.
struct ShardCounters {
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
  std::uint64_t tx = 0;
  std::uint64_t processed = 0;
  bool operator==(const ShardCounters&) const = default;
};

/// One sampling window of a shard's measurement time series — the compact
/// cross-layer track kept per shard (the full MetricSnapshot deltas stay
/// inside the testbed's SeriesRecorder ring; carrying them here would cost
/// ~800 KB per window for the latency histogram alone).
struct SeriesWindow {
  sim::Time t_end = 0;            ///< sim time at the window's close
  std::uint64_t fingerprint = 0;  ///< digest of the window's full delta snapshot
  std::uint64_t rx = 0;           ///< packets offered to the port this window
  std::uint64_t tx = 0;           ///< packets transmitted this window
  std::uint64_t dropped = 0;      ///< cap + ring drops this window
  std::uint64_t latency_count = 0;   ///< latency samples this window
  double latency_sum_us = 0.0;       ///< sum of those samples (mean = sum/count)
  std::uint64_t wakeups = 0;         ///< Metronome lock attempts this window
};

/// A shard's whole measurement time series (empty unless the shard's
/// config set ExperimentConfig::series_interval).
struct ShardSeries {
  sim::Time interval = 0;             ///< sampling interval; 0 = series off
  std::uint64_t dropped_windows = 0;  ///< samples lost to ring overflow
  std::vector<SeriesWindow> windows;
};

/// The compact per-window tracks of a testbed's series recorder, whose
/// port has `n_queues` rx queues: the headline counters every figure
/// plots, plus each window's own fingerprint so series identity can be
/// asserted window by window.
ShardSeries compact_series(const stats::SeriesRecorder& sr, int n_queues);

/// Everything a shard run produces. All fields except wall_seconds are
/// deterministic (pure functions of the shard's config).
struct ShardResult {
  /// Every metric the testbed registered (port and per-ring counters,
  /// driver statistics, the latency histogram), snapshotted at the end of
  /// the run. Counters are whole-run totals; summaries/histograms are
  /// *measurement-window* values (begin_measurement resets them — warmup
  /// samples are not in here). The report path operates on this, not on
  /// copied fields.
  stats::MetricSnapshot telemetry;
  /// Order-sensitive digest of `telemetry` — the cross-run (cross-jobs,
  /// cross-store, trial-to-trial) identity check. Subsumes the old
  /// latency-bin digest and ShardCounters comparison: any single counter
  /// or bin diverging changes this value.
  std::uint64_t fingerprint = 0;
  ShardCounters counters;              ///< headline view (see ShardCounters)
  std::uint64_t events = 0;            ///< kernel events over the whole run
  std::size_t pending_at_measure = 0;  ///< pending events at measurement start
  sim::Time final_clock = 0;
  std::uint64_t latency_count = 0;     ///< latency histogram sample count
  apps::ExperimentResult result;       ///< measurement-window observables
  /// Compact per-window tracks (see ShardSeries); deterministic.
  ShardSeries series;
  /// The shard's trace ring (set only when the runner's tracing is on).
  /// Shared so results stay copyable; sim-time events only, deterministic.
  std::shared_ptr<trace::Tracer> trace;
  double wall_seconds = 0.0;           ///< host time; NOT deterministic

  // --- failure capture (hardened runner) --------------------------------
  /// True when every attempt at this shard threw (or hit the wall-clock
  /// deadline); the other fields are default-initialised in that case.
  bool failed = false;
  /// what() of the last attempt's exception; deterministic for
  /// deterministic failures (configuration errors throw the same text on
  /// every worker count).
  std::string error;
  /// How many times the shard was attempted (1 = first try succeeded).
  int attempts = 1;
};

/// A declarative parameter matrix over registered scenarios. Empty axis =
/// "scenario default" (one implicit point on that axis).
struct SweepMatrix {
  std::vector<std::string> scenarios;   ///< registry names (see registry.hpp)
  sim::Time warmup = -1;   ///< window override; < 0 keeps the scenario's
  sim::Time measure = -1;  ///< window override; < 0 keeps the scenario's
  /// > 0: every shard samples its telemetry at this sim-time interval
  /// (ExperimentConfig::series_interval override; see ShardSeries).
  sim::Time series_interval = 0;
};

/// Run `shard` on `bed`, a testbed built from shard.config whose
/// construction began at wall time `t0`: start it, run the warm-up, open
/// the measurement window, run it and snapshot everything the shard
/// reports. Every sweep shard runs through here; so does any bench that
/// times one configuration on a testbed it builds itself (the kernel
/// bench's scale ladder, on either event store). `deadline_s` > 0 arms the
/// cooperative watchdog (SweepRunner::set_shard_deadline; throws
/// std::runtime_error past it) and `trace_capacity` > 0 traces the bed's
/// measurement window into a ring of that many events
/// (SweepRunner::set_tracing).
ShardResult measure_shard(apps::Testbed& bed, const Shard& shard,
                          std::chrono::steady_clock::time_point t0, double deadline_s = 0.0,
                          std::size_t trace_capacity = 0);

/// Expands matrices and runs shard lists on a worker pool.
class SweepRunner {
 public:
  /// \param jobs worker-thread count; <= 1 runs inline on the caller.
  explicit SweepRunner(int jobs = 1) : jobs_(jobs < 1 ? 1 : jobs) {}

  /// Expand a matrix into shards, one per scenario in matrix order, each
  /// on its scenario's registered seeds. Throws std::invalid_argument on
  /// an unknown scenario name.
  static std::vector<Shard> expand(const SweepMatrix& matrix);

  /// Run every shard (in parallel up to the job count) and return results
  /// in shard order. Results are bit-identical for any job count.
  ///
  /// Hardened execution: a shard that throws no longer takes down the
  /// sweep (or, worse, std::terminates the process from a worker thread).
  /// The exception is captured into ShardResult::failed/error, the shard
  /// is retried once (a deterministic failure fails identically; a
  /// wall-clock deadline may clear on a quieter machine),
  /// and every *other* shard still runs to completion. Callers decide the
  /// exit status from failed_count().
  std::vector<ShardResult> run(const std::vector<Shard>& shards) const;

  /// Per-shard wall-clock deadline in seconds; <= 0 (the default)
  /// disables the watchdog. Enforced cooperatively: the shard's virtual-
  /// time run is sliced and the host clock checked between slices, so a
  /// wedged shard fails with a deterministic "deadline exceeded" error
  /// instead of hanging the sweep. Slicing run_until is execution-
  /// equivalent (events fire at the same virtual times), so the watchdog
  /// never perturbs results.
  void set_shard_deadline(double seconds) noexcept { deadline_s_ = seconds; }

  /// Enable per-shard tracing: every shard gets its own trace::Tracer of
  /// `capacity` events (attached through Testbed::set_tracer when the
  /// measurement window opens, and kept in ShardResult::trace), and each
  /// worker thread records a wall-clock sweep/shard span per shard it
  /// runs. 0 turns tracing back off.
  /// Tracing is a pure observer; shard results stay bit-identical.
  void set_tracing(std::size_t capacity) noexcept { trace_capacity_ = capacity; }

  /// Per-worker execution statistics from the most recent run(). The
  /// counters are deterministic only for jobs <= 1 (shard->worker
  /// assignment is a race above that); report_json emits them — as
  /// `sweep.tN.*` — only on the include_timing path for that reason.
  struct WorkerStats {
    std::uint64_t shards_run = 0;
    std::uint64_t shards_failed = 0;
    std::uint64_t retries = 0;     ///< extra attempts beyond the first
    double busy_seconds = 0.0;     ///< wall time inside execute()
  };
  const std::vector<WorkerStats>& worker_stats() const noexcept { return worker_stats_; }

  /// Per-worker wall-clock trace lanes (one sweep/shard span per shard
  /// run), recorded only while tracing is enabled. Wall time, so excluded
  /// from every determinism gate; export alongside the shard rings.
  const std::vector<std::unique_ptr<trace::Tracer>>& wall_tracers() const noexcept {
    return wall_tracers_;
  }

 private:
  ShardResult execute(const Shard& shard) const;

  int jobs_;
  double deadline_s_ = 0.0;
  std::size_t trace_capacity_ = 0;
  // run() is logically const (pure function of the shard list); the
  // bookkeeping below is observability output, refreshed per run.
  mutable std::vector<WorkerStats> worker_stats_;
  mutable std::vector<std::unique_ptr<trace::Tracer>> wall_tracers_;
};

/// Number of shards whose every attempt failed.
std::size_t failed_count(const std::vector<ShardResult>& results);

/// Human-readable per-shard failure lines ("shard 3 [cbr_lossy @
/// 10 Mpps] failed after 2 attempts: ..."), empty when nothing failed.
/// Benches print this to stderr before exiting nonzero.
std::string failure_summary(const std::vector<Shard>& shards,
                            const std::vector<ShardResult>& results);

/// One JSON report over shards + results, emitted through
/// stats::JsonWriter — the single JSON path. A `shards` array has one row
/// per shard, in shard order: the identifying axes, headline counters,
/// `telemetry_fingerprint`, `failed`/`attempts` (plus `error` when failed)
/// and the full `metrics` object; shards that recorded a time series also
/// carry a `timeseries` object (interval + parallel per-window arrays,
/// schema in docs/BENCHMARKS.md). A trailing `failures` array lists every
/// failed shard. Nothing is aggregated across shards. `include_timing`
/// adds per-shard wall_seconds — the one nondeterministic field; leave it
/// off when comparing reports across worker counts. `runner`, when given
/// together with include_timing, appends a `sweep_workers` object with
/// the per-thread `sweep.tN.*` counters — wall-clock observability,
/// deliberately absent from the deterministic report shape.
std::string report_json(const std::vector<Shard>& shards,
                        const std::vector<ShardResult>& results, bool include_timing,
                        const SweepRunner* runner = nullptr);

}  // namespace metro::scenario
