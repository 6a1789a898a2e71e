// Frequency-scaling static poller — the related-work baseline ([22], [23]).
//
// Intel's l3fwd-power approach: keep the busy-wait loop, but monitor how
// often polls come back empty and drive the core's P-state through the
// `userspace` governor — step the frequency down after a run of empty
// polls, jump back up when bursts arrive (queue occupancy above a
// threshold). This saves power at low load but — the paper's core
// criticism — the core still reads as 100% busy and cannot be shared with
// other work. The ablation bench puts this next to Metronome to reproduce
// that argument quantitatively.
#pragma once

#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace metro::dpdk {

struct FreqScalingStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t freq_steps_down = 0;
  std::uint64_t freq_jumps_up = 0;
};

/// Spawn the frequency-scaling lcore for `queue` on `core`: l3fwd's
/// per-packet cost and burst size, the plain poller's Tx drain interval.
/// The core should be configured with Governor::kUserspace.
sim::Core::EntityId spawn_freq_scaling_lcore(sim::Simulation& sim, nic::Port& port, int queue,
                                             sim::Core& core, FreqScalingStats& stats);

}  // namespace metro::dpdk
