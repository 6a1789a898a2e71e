/// \file time_series.hpp
/// Windowed time-series telemetry: periodic MetricSet sampling on sim time.
///
/// A MetricSet answers "what happened over the run"; a SeriesRecorder
/// answers "what happened *when*". Armed on the kernel, it snapshots the
/// whole registry every `interval` of simulated time into a preallocated
/// ring of per-window deltas — so a regime shift mid-run (a rate step, an
/// MMPP phase change, a fault window) shows up as the window where the
/// counters moved, not a smear over one aggregate.
///
/// Semantics per metric kind, per window:
///   * **counter** — exact delta over the window (windows sum to the run
///     delta bit-exactly);
///   * **gauge** — the value at the window's end (a level, not a total);
///   * **summary** — moment-subtracted window statistics: count and sum
///     are exact, mean/variance follow from subtracting the earlier
///     snapshot's shifted sums (Summary::since); min/max stay run-so-far
///     (extremes are not window-recoverable from moments alone —
///     documented, and the merge of all windows still yields the exact
///     run extremes);
///   * **histogram** — bin-wise exact subtraction (bins are monotonic
///     between resets), with the side Summary handled as above.
///
/// Each window carries the deterministic fingerprint of its delta, so the
/// repo-wide identity gates (cross-backend, jobs=N-vs-1)
/// extend from "the runs agree in aggregate" to "the runs agree window by
/// window".
///
/// Hot-path contract: after arm() returns, sampling is allocation-free —
/// snapshots refresh in place (MetricSet::snapshot_into), deltas write
/// into the preallocated ring, and a full ring counts drops instead of
/// growing. Memory is `capacity x sizeof(snapshot)`; the latency
/// histogram dominates (~0.8 MB per window at the default geometry), so
/// callers size capacity to the expected window count, not a round power
/// of two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "stats/metric_set.hpp"

namespace metro::stats {

/// Sampling cadence and ring size of a SeriesRecorder.
struct SeriesConfig {
  sim::Time interval = 0;      ///< sim-time between samples; must be > 0
  std::size_t capacity = 64;   ///< ring slots; overflow drops (counted)
};

/// Periodic sampler over one MetricSet. Construct (and prime) at window
/// start, arm on the kernel, read windows after the run. Not thread-safe;
/// one recorder per shard.
class SeriesRecorder {
 public:
  /// One closed sampling window.
  struct Window {
    MetricSnapshot delta;         ///< per-kind window delta (see file doc)
    sim::Time t_end = 0;          ///< sim time the window closed
    std::uint64_t fingerprint = 0;  ///< delta.fingerprint(), precomputed
  };

  /// Binds to `metrics` (borrowed; must outlive the recorder). Throws
  /// std::invalid_argument on a non-positive interval or zero capacity.
  SeriesRecorder(const MetricSet& metrics, SeriesConfig cfg);

  SeriesRecorder(const SeriesRecorder&) = delete;
  SeriesRecorder& operator=(const SeriesRecorder&) = delete;

  /// Take the baseline snapshot at sim-time `now` (the start of window 0)
  /// and preallocate the ring. Allocates; call before the measured window.
  void prime(sim::Time now);

  /// Close the current window at `now`. Alloc-free once primed; a full
  /// ring counts a drop and records nothing.
  void sample(sim::Time now);

  /// Close the partial tail window — when sim time elapsed since the last
  /// sample, or when the registry moved at the very same timestamp (a
  /// periodic tick fires before other events sharing its fire time) — and
  /// disarm, so the recorded windows always sum to the full run delta.
  void finish(sim::Time now);

  /// Prime at sim.now() and schedule self-re-arming periodic sampling on
  /// the kernel. Each tick first applies the kernel's lazily held effects
  /// due by its instant (Simulation::sync_lazy), so a window counts every
  /// arrival a port's ingress owes it and none that eager delivery would
  /// have made after the tick. The tick callable is 16 bytes — within the
  /// kernel's inline budget, so arming adds no steady-state allocations.
  /// Sampling only *reads* metrics; it never alters what the run would have
  /// computed, so final telemetry fingerprints are unchanged.
  template <typename Sim>
  void arm(Sim& sim) {
    struct Tick {
      SeriesRecorder* rec;
      Sim* sim;
      void operator()() const {
        if (!rec->armed_) return;  // disarmed mid-flight: stale tick, stop
        // Arrivals due by now count, except those at this very instant
        // that an eager feeder would deliver after this tick (scheduled
        // one interval ago).
        sim->sync_lazy(sim->now() - rec->cfg_.interval);
        rec->sample(sim->now());
        sim->schedule_after(rec->cfg_.interval, *this);
      }
    };
    static_assert(sizeof(Tick) <= 24, "series tick must stay inline in the kernel");
    sim.sync_lazy();
    prime(sim.now());
    armed_ = true;
    sim.schedule_after(cfg_.interval, Tick{this, &sim});
  }

  /// Stop sampling; the next pending tick (if any) becomes a no-op.
  void disarm() noexcept { armed_ = false; }
  bool armed() const noexcept { return armed_; }

  sim::Time interval() const noexcept { return cfg_.interval; }
  std::size_t capacity() const noexcept { return cfg_.capacity; }

  /// Closed windows so far, oldest first.
  std::size_t size() const noexcept { return size_; }
  const Window& window(std::size_t i) const { return ring_[i]; }

  /// Samples that found the ring full and were discarded. When non-zero
  /// the sum-over-windows identity has holes; reports surface the count.
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  /// out = cur - prev, per the per-kind window rules. All three share the
  /// snapshot shape taken at prime(); writes in place, never allocates.
  static void delta_into(const MetricSnapshot& cur, const MetricSnapshot& prev,
                         MetricSnapshot& out);

  const MetricSet& metrics_;
  SeriesConfig cfg_;
  MetricSnapshot prev_;  ///< absolute snapshot at the last window edge
  MetricSnapshot cur_;   ///< scratch for the in-place refresh
  std::vector<Window> ring_;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  sim::Time last_sample_ = 0;
  bool primed_ = false;
  bool armed_ = false;
};

}  // namespace metro::stats
