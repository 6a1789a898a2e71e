// The classical DPDK lcore loop (paper Listing 1 / §III-B).
//
// One thread exclusively owns one Rx queue and polls it in an infinite
// while(1): retrieve a burst, process it, poll again — regardless of
// whether traffic is flowing. The thread therefore occupies 100% of its
// core at all times; this is the baseline Metronome is measured against.
//
// In the simulator the thread is a *spinning* entity on its core (always
// runnable, so it contends with any co-scheduled task exactly like a real
// busy-wait loop) and its packet work is charged on top. Idle stretches
// are fast-forwarded to the next arrival event — the accounting is
// identical to polling every few tens of nanoseconds, without the events.
//
// Like DPDK's l3fwd, the loop also drains the Tx buffer if packets have
// been pending longer than BURST_TX_DRAIN_US (100 us), which bounds the
// Tx-batching latency at low rates.
#pragma once

#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace metro::dpdk {

/// l3fwd's BURST_TX_DRAIN_US: how long Tx descriptors may wait for a
/// flush while the poller finds its ring empty.
inline constexpr sim::Time kTxDrainInterval = 100 * sim::kMicrosecond;

/// The poller takes bursts of sim::calib::kBurstSize at nice 0.
struct StaticPollingConfig {
  sim::Time per_packet_cost = sim::calib::kL3fwdPerPacketCost;
  // Optional real per-packet work run after each burst's cost is charged
  // (wall-clock only; simulated results are unaffected). See
  // nic::PacketWork.
  nic::PacketWork packet_work{};
};

/// Per-driver counters the experiment harness reads out.
struct DriverStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;

  /// Attach all counters to `set` under `prefix` (setup only).
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".packets", packets_processed);
    set.attach_counter(prefix + ".polls", polls);
    set.attach_counter(prefix + ".empty_polls", empty_polls);
  }
};

/// Spawn a static-polling lcore bound to `queue` of `port`, running on
/// `core`. Returns the core entity id (for CPU accounting) and exposes
/// counters through `stats` (caller-owned, must outlive the simulation).
sim::Core::EntityId spawn_static_lcore(sim::Simulation& sim, nic::Port& port, int queue,
                                       sim::Core& core, const StaticPollingConfig& cfg,
                                       DriverStats& stats);

}  // namespace metro::dpdk
