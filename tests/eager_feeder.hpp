// The eager grouped feeder: the reference the port's lazy ingress is held
// to (test_ingress.cpp).
//
// One coroutine pulls the stream in tgen::attach's groups (kGroupWindow /
// kGroupCap), sleeps until each group's last arrival and pushes the group
// into the port with one rx_burst() call: one kernel event per group,
// whether or not anything reads the rings. The lazy ingress must leave
// every observable exactly where this feeder leaves it.
#pragma once

#include <vector>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"

namespace metro::testing {

inline sim::Task eager_feeder_task(sim::Simulation& sim, nic::Port& port, tgen::Generator& gen) {
  std::vector<nic::PacketDesc> buf;
  buf.reserve(tgen::kGroupCap);
  std::size_t head = 0;
  const auto refill = [&] {
    buf.clear();
    head = 0;
    gen.next_batch(buf, tgen::kGroupCap);
    return !buf.empty();
  };
  std::vector<nic::PacketDesc> group;
  group.reserve(tgen::kGroupCap);
  while (head < buf.size() || refill()) {
    group.clear();
    const sim::Time window_end = buf[head].arrival + tgen::kGroupWindow;
    group.push_back(buf[head++]);
    while (group.size() < tgen::kGroupCap && (head < buf.size() || refill()) &&
           buf[head].arrival <= window_end) {
      group.push_back(buf[head++]);
    }
    co_await sim.sleep_until(group.back().arrival);
    port.rx_burst(group.data(), static_cast<int>(group.size()));
  }
}

/// Feed `gen` into `port` eagerly; the drop-in counterpart of tgen::attach.
inline void attach_eager(sim::Simulation& sim, nic::Port& port, tgen::Generator& gen) {
  sim.spawn(eager_feeder_task(sim, port, gen));
}

}  // namespace metro::testing
