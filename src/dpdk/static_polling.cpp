#include "dpdk/static_polling.hpp"

#include <string>
#include <vector>

namespace metro::dpdk {

namespace {

sim::Task static_lcore_task(sim::Simulation& sim, nic::Port& port, int queue, sim::Core& core,
                            sim::Core::EntityId ent, StaticPollingConfig cfg,
                            DriverStats& stats) {
  nic::RxRing& ring = port.rx_queue(queue);
  nic::TxRing& tx = port.tx();
  std::vector<nic::PacketDesc> burst(static_cast<std::size_t>(sim::calib::kBurstSize));
  sim::Time last_tx_flush = sim.now();

  core.set_spinning(ent, true);  // busy-wait: always runnable
  for (;;) {
    const int n = ring.pop_burst(burst.data(), sim::calib::kBurstSize);
    ++stats.polls;
    if (n > 0) {
      // Process the burst; wall time depends on CPU share and frequency.
      co_await core.run_for(ent, static_cast<sim::Time>(n) * cfg.per_packet_cost);
      if (cfg.packet_work) {
        for (int i = 0; i < n; ++i) cfg.packet_work(burst[static_cast<std::size_t>(i)]);
      }
      tx.send(burst.data(), n);
      stats.packets_processed += static_cast<std::uint64_t>(n);
      if (tx.pending() == 0) last_tx_flush = sim.now();
      continue;
    }
    ++stats.empty_polls;
    // Idle: fast-forward to the next arrival (the thread keeps spinning —
    // it stays accounted as busy). If Tx descriptors are pending, wake in
    // time for the periodic drain, as l3fwd's main loop does.
    if (tx.pending() > 0) {
      const sim::Time due = last_tx_flush + kTxDrainInterval;
      const sim::Time wait = due - sim.now();
      if (wait <= 0) {
        tx.flush();
        last_tx_flush = sim.now();
        continue;
      }
      const bool notified = co_await ring.wait_arrival_for(wait);
      if (!notified) {
        tx.flush();
        last_tx_flush = sim.now();
      }
    } else {
      co_await ring.wait_arrival();
      last_tx_flush = sim.now();
    }
  }
}

}  // namespace

sim::Core::EntityId spawn_static_lcore(sim::Simulation& sim, nic::Port& port, int queue,
                                       sim::Core& core, const StaticPollingConfig& cfg,
                                       DriverStats& stats) {
  const auto ent = core.add_entity("dpdk-poll-q" + std::to_string(queue), 0);
  sim.spawn(static_lcore_task(sim, port, queue, core, ent, cfg, stats));
  return ent;
}

}  // namespace metro::dpdk
