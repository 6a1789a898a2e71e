#include "dpdk/freq_scaling.hpp"

#include <string>
#include <vector>

#include "dpdk/static_polling.hpp"

namespace metro::dpdk {

namespace {

using sim::calib::kBurstSize;

/// Consecutive empty polls before stepping the frequency down one notch
/// (l3fwd-power uses a similar hysteresis).
constexpr int kIdlePollsPerStepDown = 256;
/// Queue occupancy (in bursts) that triggers an immediate jump to max.
constexpr int kBusyBurstsForMax = 2;
/// Frequency step as a fraction of nominal.
constexpr double kFreqStep = 0.125;

sim::Task freq_scaling_task(sim::Simulation& sim, nic::Port& port, int queue, sim::Core& core,
                            sim::Core::EntityId ent, FreqScalingStats& stats) {
  nic::RxRing& ring = port.rx_queue(queue);
  nic::TxRing& tx = port.tx();
  std::vector<nic::PacketDesc> burst(static_cast<std::size_t>(kBurstSize));
  sim::Time last_tx_flush = sim.now();
  int idle_streak = 0;
  double freq = 1.0;
  core.request_freq(freq);

  core.set_spinning(ent, true);  // still a busy-wait loop: 100% CPU
  for (;;) {
    const int n = ring.pop_burst(burst.data(), kBurstSize);
    if (n > 0) {
      idle_streak = 0;
      // Burst pressure: jump straight to max, as l3fwd-power does.
      if (static_cast<int>(ring.size()) >= kBusyBurstsForMax * kBurstSize && freq < 1.0) {
        freq = 1.0;
        core.request_freq(freq);
        ++stats.freq_jumps_up;
      }
      co_await core.run_for(ent, static_cast<sim::Time>(n) * sim::calib::kL3fwdPerPacketCost);
      tx.send(burst.data(), n);
      stats.packets_processed += static_cast<std::uint64_t>(n);
      if (tx.pending() == 0) last_tx_flush = sim.now();
      continue;
    }

    if (++idle_streak >= kIdlePollsPerStepDown) {
      idle_streak = 0;
      const double next = freq - kFreqStep;
      if (next >= 0.0) {
        freq = next;
        core.request_freq(freq);  // clamps at the floor P-state
        ++stats.freq_steps_down;
      }
    }

    // Same idle fast-forward + Tx drain discipline as the plain poller.
    // A skipped idle stretch stands for (stretch / empty-poll cost) spins
    // of the real loop, so credit it to the empty-poll counter — that is
    // what drives l3fwd-power's step-down hysteresis.
    const sim::Time idle_from = sim.now();
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
      co_await ring.wait_arrival_for(sim::kMillisecond);
    }
    const auto equivalent_polls =
        static_cast<int>((sim.now() - idle_from) / sim::calib::kEmptyPollCost);
    idle_streak += equivalent_polls;
    while (idle_streak >= kIdlePollsPerStepDown) {
      idle_streak -= kIdlePollsPerStepDown;
      const double next = freq - kFreqStep;
      if (next < 0.0) {
        idle_streak = 0;
        break;
      }
      freq = next;
      core.request_freq(freq);
      ++stats.freq_steps_down;
    }
  }
}

}  // namespace

sim::Core::EntityId spawn_freq_scaling_lcore(sim::Simulation& sim, nic::Port& port, int queue,
                                             sim::Core& core, FreqScalingStats& stats) {
  const auto ent = core.add_entity("l3fwd-power-q" + std::to_string(queue), 0);
  sim.spawn(freq_scaling_task(sim, port, queue, core, ent, stats));
  return ent;
}

}  // namespace metro::dpdk
