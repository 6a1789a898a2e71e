// XDP driver model (§V-D comparison).
//
// XDP processes packets in the kernel, interrupt-driven with NAPI:
//   * the NIC raises an IRQ after an interrupt-mitigation window,
//   * the hardirq schedules a softirq, which runs the NAPI poll loop with
//     a 64-packet budget; while polling, the IRQ stays masked and the loop
//     re-polls until the ring drains, then re-enables the interrupt.
//
// Each Rx queue is bound 1:1 to a CPU core (XDP cannot share queues across
// cores, which is why the paper needs 4 cores to approach 10 GbE line rate
// with xdp_router_ipv4 on ixgbe). Costs are calibrated so the model
// reproduces Fig. 10's qualitative results: zero CPU at idle, CPU well
// above Metronome under load (per-interrupt housekeeping), latency
// comparable at low rate and worse at line rate.
#pragma once

#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace metro::dpdk {

struct XdpStats {
  std::uint64_t interrupts = 0;
  std::uint64_t napi_polls = 0;
  std::uint64_t packets_processed = 0;

  /// Attach all counters to `set` under `prefix` (setup only).
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".interrupts", interrupts);
    set.attach_counter(prefix + ".napi_polls", napi_polls);
    set.attach_counter(prefix + ".packets", packets_processed);
  }
};

/// Spawn the IRQ+NAPI handler for `queue` of `port` on `core`, with the
/// sim::calib::kXdp* costs, budget and latencies.
sim::Core::EntityId spawn_xdp_queue(sim::Simulation& sim, nic::Port& port, int queue,
                                    sim::Core& core, XdpStats& stats);

}  // namespace metro::dpdk
