#include "dpdk/xdp_model.hpp"

#include <string>
#include <vector>

namespace metro::dpdk {

namespace {

sim::Task xdp_queue_task(sim::Simulation& sim, nic::Port& port, int queue, sim::Core& core,
                         sim::Core::EntityId ent, XdpConfig cfg, XdpStats& stats) {
  nic::RxRing& ring = port.rx_queue(queue);
  nic::TxRing& tx = port.tx();
  std::vector<nic::PacketDesc> burst(static_cast<std::size_t>(cfg.napi_budget));

  for (;;) {
    // IRQ enabled, core idle: wait for traffic. No CPU is consumed here —
    // this is XDP's key advantage at zero load.
    if (ring.empty()) co_await ring.wait_arrival();

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
      tx.send(burst.data(), n);
      stats.packets_processed += static_cast<std::uint64_t>(n);
    }
    tx.flush();  // XDP transmits per NAPI cycle; nothing lingers
  }
}

}  // namespace

sim::Core::EntityId spawn_xdp_queue(sim::Simulation& sim, nic::Port& port, int queue,
                                    sim::Core& core, const XdpConfig& cfg, XdpStats& stats) {
  const auto ent = core.add_entity("xdp-q" + std::to_string(queue), 0);
  sim.spawn(xdp_queue_task(sim, port, queue, core, ent, cfg, stats));
  return ent;
}

}  // namespace metro::dpdk
