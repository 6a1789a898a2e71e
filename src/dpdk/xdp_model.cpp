#include "dpdk/xdp_model.hpp"

#include <string>
#include <vector>

namespace metro::dpdk {

namespace {

template <typename Sim>
sim::Task xdp_queue_task(Sim& sim, nic::BasicPort<Sim>& port, int queue,
                         sim::BasicCore<Sim>& core,
                         typename sim::BasicCore<Sim>::EntityId ent, XdpConfig cfg,
                         XdpStats& stats) {
  nic::BasicRxRing<Sim>& ring = port.rx_queue(queue);
  nic::BasicTxRing<Sim>& tx = port.tx();
  std::vector<nic::PacketDesc> burst(static_cast<std::size_t>(cfg.napi_budget));

  for (;;) {
    // IRQ enabled, core idle: wait for traffic. No CPU is consumed here —
    // this is XDP's key advantage at zero load.
    if (ring.empty()) co_await ring.arrival_signal().wait();

    // Interrupt mitigation: the NIC coalesces before raising the IRQ.
    co_await sim.sleep_for(cfg.irq_mitigation);

    // Hardirq + softirq dispatch.
    ++stats.interrupts;
    co_await core.run_for(ent, cfg.irq_overhead);
    co_await sim.sleep_for(cfg.softirq_latency);

    // NAPI poll loop: budgeted polls with the IRQ masked until drained.
    for (;;) {
      const int n = ring.pop_burst(burst.data(), cfg.napi_budget);
      if (n == 0) break;  // drained: re-enable IRQ
      ++stats.napi_polls;
      co_await core.run_for(ent, static_cast<sim::Time>(n) * cfg.per_packet_cost);
      for (int i = 0; i < n; ++i) tx.send(burst[static_cast<std::size_t>(i)]);
      stats.packets_processed += static_cast<std::uint64_t>(n);
    }
    tx.flush();  // XDP transmits per NAPI cycle; nothing lingers
  }
}

}  // namespace

template <typename Sim>
typename sim::BasicCore<Sim>::EntityId spawn_xdp_queue(Sim& sim, nic::BasicPort<Sim>& port,
                                                       int queue, sim::BasicCore<Sim>& core,
                                                       const XdpConfig& cfg, XdpStats& stats) {
  const auto ent = core.add_entity("xdp-q" + std::to_string(queue), 0);
  sim.spawn(xdp_queue_task(sim, port, queue, core, ent, cfg, stats));
  return ent;
}

template sim::BasicCore<sim::Simulation>::EntityId spawn_xdp_queue<sim::Simulation>(
    sim::Simulation&, nic::BasicPort<sim::Simulation>&, int, sim::BasicCore<sim::Simulation>&,
    const XdpConfig&, XdpStats&);
template sim::BasicCore<sim::WheelSimulation>::EntityId spawn_xdp_queue<sim::WheelSimulation>(
    sim::WheelSimulation&, nic::BasicPort<sim::WheelSimulation>&, int,
    sim::BasicCore<sim::WheelSimulation>&, const XdpConfig&, XdpStats&);

}  // namespace metro::dpdk
