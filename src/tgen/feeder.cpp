#include "tgen/feeder.hpp"

#include <algorithm>
#include <vector>

namespace metro::tgen {

namespace {

/// A feeder group spans arrivals within this window of its first packet...
constexpr sim::Time kGroupWindow = 2 * sim::kMicrosecond;
/// ...and holds at most this many packets.
constexpr std::size_t kGroupCap = 32;

template <typename Sim>
sim::Task feeder_task(Sim& sim, nic::BasicPort<Sim>& port, Generator& gen) {
  // Pull through next_batch() so hot generators amortise the virtual call
  // and state reloads; the buffer is a pure prefetch — group boundaries
  // (window + cap) are identical to a one-next()-at-a-time loop because
  // next_batch draws the exact next() stream, and a refill happens only
  // when the grouping needs the next packet.
  std::vector<nic::PacketDesc> buf;
  buf.reserve(kGroupCap);
  std::size_t head = 0;
  const auto refill = [&] {
    buf.clear();
    head = 0;
    gen.next_batch(buf, kGroupCap);
    return !buf.empty();
  };
  std::vector<nic::PacketDesc> group;
  group.reserve(kGroupCap);
  while (head < buf.size() || refill()) {
    group.clear();
    const sim::Time window_end = buf[head].arrival + kGroupWindow;
    group.push_back(buf[head++]);
    while (group.size() < kGroupCap && (head < buf.size() || refill()) &&
           buf[head].arrival <= window_end) {
      group.push_back(buf[head++]);
    }
    // Deliver the whole group when its last packet has arrived on the wire
    // — one port call per group, not one per packet.
    co_await sim.sleep_until(group.back().arrival);
    port.rx_burst(group.data(), static_cast<int>(group.size()));
  }
}

template <typename Sim>
sim::Task flow_source_task(Sim& sim, nic::BasicPort<Sim>& port, const FlowSet& flows,
                           std::uint32_t flow_id, double mean_gap_ns, PerFlowSourceConfig cfg) {
  const sim::Time end = cfg.start + cfg.duration;
  // Uniform phase offset so the N sources decorrelate from t = start.
  sim::Time next = cfg.start + static_cast<sim::Time>(sim.rng().uniform(0.0, mean_gap_ns));
  nic::PacketDesc pkt;
  pkt.flow_id = flow_id;
  pkt.rss_hash = flows.rss_hash(flow_id);
  pkt.wire_size = cfg.wire_size;
  while (next <= end) {
    co_await sim.sleep_until(next);
    pkt.arrival = sim.now();
    port.rx(pkt);
    const double gap = cfg.poisson ? sim.rng().exponential(mean_gap_ns) : mean_gap_ns;
    next += std::max<sim::Time>(1, static_cast<sim::Time>(gap));
  }
}

}  // namespace

template <typename Sim>
void attach(Sim& sim, nic::BasicPort<Sim>& port, Generator& gen) {
  sim.spawn(feeder_task(sim, port, gen));
}

template <typename Sim>
void attach_per_flow_sources(Sim& sim, nic::BasicPort<Sim>& port, const FlowSet& flows,
                             PerFlowSourceConfig cfg) {
  const auto n = flows.size();
  if (n == 0 || cfg.total_rate_pps <= 0.0) return;
  const double mean_gap_ns = 1e9 * static_cast<double>(n) / cfg.total_rate_pps;
  for (std::size_t f = 0; f < n; ++f) {
    sim.spawn(flow_source_task(sim, port, flows, static_cast<std::uint32_t>(f), mean_gap_ns, cfg));
  }
}

template void attach<sim::Simulation>(sim::Simulation&, nic::BasicPort<sim::Simulation>&,
                                      Generator&);
template void attach<sim::WheelSimulation>(sim::WheelSimulation&,
                                           nic::BasicPort<sim::WheelSimulation>&, Generator&);
template <typename Sim>
PerFlowSourceArena<Sim>::PerFlowSourceArena(Sim& sim, nic::BasicPort<Sim>& port,
                                            const FlowSet& flows, PerFlowSourceConfig cfg)
    : sim_(sim), port_(port), cfg_(cfg) {
  const auto n = flows.size();
  if (n == 0 || cfg.total_rate_pps <= 0.0) return;
  // Exact-size lane fills: at 2^24 flows a reserve-less push_back loop
  // would transiently hold a doubled allocation per lane.
  rss_.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    rss_[f] = flows.rss_hash(static_cast<std::uint32_t>(f));
  }
  next_at_.assign(n, kIdle);
  emitted_.assign(n, 0);
  mean_gap_ns_ = 1e9 * static_cast<double>(n) / cfg.total_rate_pps;
  end_ = cfg.start + cfg.duration;
  // One bootstrap callback in place of n spawns. It lands in the now-FIFO
  // exactly where the coroutine path's n task handles would, so the phase
  // draws happen at the same point of the event order.
  sim_.schedule_at(sim_.now(), [this] { bootstrap(); });
}

template <typename Sim>
void PerFlowSourceArena<Sim>::bootstrap() {
  // Batched arming, two sequential passes over the lanes. Pass 1 streams
  // the uniform phase draws into the next-fire lane — flow order, the
  // order attach_per_flow_sources' tasks resume in (the now-FIFO
  // preserves spawn order), so the draws consume the shared RNG
  // identically. Pass 2 arms the kernel timers, also in flow order.
  // Splitting the passes cannot change the execution: draws consume no
  // sequence numbers, so each armed timer still gets the sequence number
  // the interleaved form would have handed it.
  const auto n = static_cast<std::uint32_t>(rss_.size());
  for (std::uint32_t f = 0; f < n; ++f) {
    next_at_[f] = cfg_.start + static_cast<sim::Time>(sim_.rng().uniform(0.0, mean_gap_ns_));
  }
  for (std::uint32_t f = 0; f < n; ++f) {
    if (next_at_[f] > end_) {
      next_at_[f] = kIdle;  // the coroutine's `while (next <= end)` bound
    } else {
      arm(f);
    }
  }
}

template <typename Sim>
void PerFlowSourceArena<Sim>::arm(std::uint32_t flow) {
  // A kTimer event: {this, flow} rides in the kernel's 32-byte event
  // record, so arming touches no callback slot and never allocates.
  sim_.schedule_timer_at(next_at_[flow], this, flow);
  ++armed_;
}

template <typename Sim>
void PerFlowSourceArena<Sim>::on_timer(std::uint32_t flow) {
  // The fire path touches only the firing flow's lane entries (rss read,
  // draw-state bump, next-fire write) plus the shared config/RNG — no
  // neighbouring flow state comes into the working set.
  --armed_;
  nic::PacketDesc pkt;
  pkt.flow_id = flow;
  pkt.rss_hash = rss_[flow];
  pkt.wire_size = cfg_.wire_size;
  pkt.arrival = sim_.now();
  port_.rx(pkt);
  ++fired_;
  ++emitted_[flow];
  const double gap = cfg_.poisson ? sim_.rng().exponential(mean_gap_ns_) : mean_gap_ns_;
  const auto next = sim_.now() + std::max<sim::Time>(1, static_cast<sim::Time>(gap));
  if (next > end_) {
    next_at_[flow] = kIdle;  // retired: the coroutine's loop bound
    return;
  }
  next_at_[flow] = next;
  arm(flow);
}

template class PerFlowSourceArena<sim::Simulation>;
template class PerFlowSourceArena<sim::WheelSimulation>;

template void attach_per_flow_sources<sim::Simulation>(sim::Simulation&,
                                                       nic::BasicPort<sim::Simulation>&,
                                                       const FlowSet&, PerFlowSourceConfig);
template void attach_per_flow_sources<sim::WheelSimulation>(
    sim::WheelSimulation&, nic::BasicPort<sim::WheelSimulation>&, const FlowSet&,
    PerFlowSourceConfig);

}  // namespace metro::tgen
