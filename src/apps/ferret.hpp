// A CPU-bound competing workload (stand-in for PARSEC's `ferret`, §V-E).
//
// The paper co-schedules an image-similarity-search VM with Metronome /
// static DPDK to measure (i) how much the packet path degrades and (ii)
// how much the CPU-bound task is stretched. Only the competitor's
// CPU-bound nature matters for those experiments, so the model is a worker
// with a fixed budget of CPU work executed in chunks under the simulated
// scheduler; its wall-clock completion time is the measured quantity.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "stats/metric_set.hpp"

namespace metro::apps {

struct FerretResult {
  sim::Time started = 0;
  sim::Time finished = -1;  // -1 while still running
  /// CPU chunks completed so far (progress of a finite-work ferret;
  /// stays 0 for the continuous-contention mode, which never chunks).
  std::uint64_t chunks_done = 0;
  bool done() const noexcept { return finished >= 0; }
  double elapsed_seconds() const { return done() ? sim::to_seconds(finished - started) : -1.0; }

  /// Attach the worker's progress counter to `set` under `prefix`.
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".chunks_done", chunks_done);
  }
};

struct FerretConfig {
  /// Total CPU work at nominal frequency. <= 0 means run forever
  /// (continuous contention, used for throughput-under-sharing tests).
  sim::Time total_work = 2 * sim::kSecond;
  sim::Time chunk = sim::kMillisecond;
  int nice = 19;
};

/// Spawn one ferret worker on `core`. The returned result object is owned
/// by the caller and updated when the worker finishes.
std::shared_ptr<FerretResult> spawn_ferret(sim::Simulation& sim, sim::Core& core,
                                           const FerretConfig& cfg,
                                           const std::string& name = "ferret");

}  // namespace metro::apps
