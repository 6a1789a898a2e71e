// Frequency-scaling static poller — the related-work baseline ([22], [23]).
//
// Intel's l3fwd-power approach: keep the busy-wait loop, but monitor how
// often polls come back empty and drive the core's P-state through the
// `userspace` governor — step the frequency down after a run of empty
// polls, jump back up when bursts arrive (queue occupancy above a
// threshold). This saves power at low load but — the paper's core
// criticism — the core still reads as 100% busy and cannot be shared with
// other work. bench_paper's `related_work` figure runs this driver
// (apps::DriverKind::kFreqScaling) next to Metronome to reproduce that
// argument quantitatively.
#pragma once

#include <cstdint>
#include <string>

#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "stats/metric_set.hpp"

namespace metro::dpdk {

struct FreqScalingStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t freq_steps_down = 0;
  std::uint64_t freq_jumps_up = 0;

  /// Attach all counters to `set` under `prefix` (setup only).
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".packets", packets_processed);
    set.attach_counter(prefix + ".freq_steps_down", freq_steps_down);
    set.attach_counter(prefix + ".freq_jumps_up", freq_jumps_up);
  }
};

/// Spawn the frequency-scaling lcore for `queue` on `core`: l3fwd's
/// per-packet cost and burst size, the plain poller's Tx drain interval.
/// The core must run Governor::kUserspace: under any other governor
/// Core::request_freq is ignored and the loop runs at nominal frequency
/// (apps::Testbed rejects such a configuration).
sim::Core::EntityId spawn_freq_scaling_lcore(sim::Simulation& sim, nic::Port& port, int queue,
                                             sim::Core& core, FreqScalingStats& stats);

}  // namespace metro::dpdk
