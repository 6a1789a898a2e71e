// The coroutine per-flow sources: the reference the port's per-flow
// arena (tgen::attach_per_flow) is held to (test_tgen.cpp).
//
// One coroutine per flow plans its arrivals from the same draws as the
// arena (tgen::PerFlowDraws), sleeps until each one and pushes its packet
// into the port with Port::rx: one pending kernel event per flow and one
// kernel event per packet, whether or not anything reads the rings. A
// heap-allocated frame per flow makes it unaffordable at the million-flow
// mark; the arena must leave every observable exactly where this leaves
// it.
#pragma once

#include <cstdint>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"

namespace metro::testing {

inline sim::Task flow_source_task(sim::Simulation& sim, nic::Port& port, const tgen::FlowSet& flows,
                                  std::uint32_t flow, tgen::PerFlowDraws draws,
                                  tgen::PerFlowSourceConfig cfg) {
  const sim::Time end = cfg.start + cfg.duration;
  sim::Time next = draws.phase(flow);
  nic::PacketDesc pkt;
  pkt.flow_id = flow;
  pkt.rss_hash = flows.rss_hash(flow);
  pkt.wire_size = cfg.wire_size;
  for (std::uint64_t k = 1; next <= end; ++k) {
    co_await sim.sleep_until(next);
    pkt.arrival = next;
    port.rx(pkt);
    next += draws.gap(flow, k);
  }
}

/// Spawn one arrival process per flow of `flows`; the eager counterpart
/// of tgen::attach_per_flow, attached no later than `cfg.start`. Throws
/// as tgen::check_per_flow_config.
inline void attach_per_flow_sources(sim::Simulation& sim, nic::Port& port,
                                    const tgen::FlowSet& flows, tgen::PerFlowSourceConfig cfg) {
  tgen::check_per_flow_config(flows.size(), cfg);
  if (flows.size() == 0 || cfg.total_rate_pps <= 0.0) return;
  const tgen::PerFlowDraws draws(flows.size(), cfg);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    sim.spawn(flow_source_task(sim, port, flows, static_cast<std::uint32_t>(f), draws, cfg));
  }
}

}  // namespace metro::testing
