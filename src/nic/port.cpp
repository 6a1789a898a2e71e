#include "nic/port.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace metro::nic {

PortConfig x520_config(int n_queues) {
  PortConfig cfg;
  cfg.n_rx_queues = n_queues;
  cfg.rx_ring_size = sim::calib::kX520DefaultRingSize;
  // Uncapped: nothing holds the offered load to the 14.88 Mpps line rate
  // (Poisson arrivals configured at 14.88 Mpps offer about 15.04 Mpps).
  cfg.max_pps = 0.0;
  return cfg;
}

PortConfig xl710_config(int n_queues) {
  PortConfig cfg;
  cfg.n_rx_queues = n_queues;
  cfg.rx_ring_size = sim::calib::kXl710DefaultRingSize;
  cfg.max_pps = sim::calib::kXl710MaxMpps * 1e6;
  return cfg;
}

namespace {

/// `cfg`, or std::invalid_argument naming the first field out of range.
const PortConfig& checked(const PortConfig& cfg) {
  if (cfg.n_rx_queues < 1 || static_cast<std::size_t>(cfg.n_rx_queues) > RssReta::kSize) {
    throw std::invalid_argument("PortConfig: n_rx_queues must be in [1, " +
                                std::to_string(RssReta::kSize) + "] (the RETA size), got " +
                                std::to_string(cfg.n_rx_queues));
  }
  if (cfg.rx_ring_size < 1) {
    throw std::invalid_argument("PortConfig: rx_ring_size must be >= 1, got " +
                                std::to_string(cfg.rx_ring_size));
  }
  // The cap becomes a per-packet gap of 1e9 / max_pps ns, cast to Time.
  if (!std::isfinite(cfg.max_pps) || cfg.max_pps < 0.0 ||
      (cfg.max_pps > 0.0 && 1e9 / cfg.max_pps >= 0x1p63)) {
    throw std::invalid_argument(
        "PortConfig: max_pps must be 0 (uncapped) or a finite rate whose per-packet gap fits "
        "in sim::Time");
  }
  return cfg;
}

}  // namespace

Port::Port(sim::Simulation& sim, PortConfig cfg, TxCallback on_tx)
    : sim_(sim),
      cfg_(checked(cfg)),
      reta_(cfg.n_rx_queues),
      tx_ring_(sim, cfg.tx_batch, on_tx) {
  rx_.reserve(static_cast<std::size_t>(cfg.n_rx_queues));
  for (int i = 0; i < cfg.n_rx_queues; ++i) {
    rx_.push_back(std::make_unique<RxRing>(sim, cfg.rx_ring_size));
  }
  if (cfg.max_pps > 0.0) {
    per_packet_ns_ = static_cast<sim::Time>(1e9 / cfg.max_pps);
  }
}

Port::~Port() {
  if (ingress_ != nullptr) sim_.detach_lazy(ingress_.get());
}

void Port::set_ingress(std::unique_ptr<sim::LazySource> ingress) {
  if (ingress == nullptr) throw std::invalid_argument("set_ingress: null ingress");
  if (ingress_ != nullptr) throw std::logic_error("set_ingress: the port already has an ingress");
  ingress_ = std::move(ingress);
  for (auto& ring : rx_) ring->set_ingress(ingress_.get());
  sim_.attach_lazy(ingress_.get());
  if (has_parked_reader()) ingress_->arm();
}

bool Port::has_parked_reader() const noexcept {
  for (const auto& ring : rx_) {
    if (ring->has_waiters()) return true;
  }
  return false;
}

bool Port::accept(const PacketDesc& pkt) {
  // Device-level processing cap (XL710 spec update #13): packets arriving
  // faster than the device can process are dropped at the MAC. Credit
  // accounting (next_accept_ advances by the per-packet budget, not to the
  // arrival time) makes the sustained accept rate 1e9 / per_packet_ns_.
  // The budget is truncated to whole ns, so that is at or above max_pps:
  // the XL710's 37 Mpps (27.03 ns) becomes 27 ns, i.e. 37.04 Mpps.
  if (per_packet_ns_ > 0) {
    if (pkt.arrival < next_accept_) {
      ++cap_drops_;
      return false;
    }
    next_accept_ = std::max(pkt.arrival - per_packet_ns_, next_accept_) + per_packet_ns_;
  }
  ++total_rx_;
  const std::uint16_t q = reta_.queue_for(pkt.rss_hash);
  return rx_[q]->push(pkt);
}

bool Port::rx(const PacketDesc& pkt) {
  if (faults_ == nullptr) return accept(pkt);
  // The injector decides how many copies (0, 1 or 2, possibly mutated or
  // reordered) actually reach the MAC; each surviving copy runs the full
  // healthy ingress body.
  bool accepted = false;
  faults_->ingress(pkt, [&](const PacketDesc& p) { accepted = accept(p) || accepted; });
  return accepted;
}

void Port::set_fault_injector(fault::FaultInjector* faults) {
  faults_ = faults;
  for (auto& ring : rx_) ring->set_fault_injector(faults);
}

int Port::rx_burst(const PacketDesc* pkts, int n) {
  int accepted = 0;
  if (faults_ != nullptr) {
    // Faults are per packet, so a faulty burst is exactly n rx() calls —
    // the fault stream is consumed in arrival order either way.
    for (int i = 0; i < n; ++i) accepted += rx(pkts[i]) ? 1 : 0;
    trace_burst(pkts, n, accepted);
    return accepted;
  }
  // One load of the cap/RETA state for the whole group; the per-packet
  // body is the same accounting rx() performs.
  if (per_packet_ns_ > 0) {
    for (int i = 0; i < n; ++i) {
      const PacketDesc& pkt = pkts[i];
      if (pkt.arrival < next_accept_) {
        ++cap_drops_;
        continue;
      }
      next_accept_ = std::max(pkt.arrival - per_packet_ns_, next_accept_) + per_packet_ns_;
      ++total_rx_;
      accepted += rx_[reta_.queue_for(pkt.rss_hash)]->push(pkt) ? 1 : 0;
    }
  } else {
    total_rx_ += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      const PacketDesc& pkt = pkts[i];
      accepted += rx_[reta_.queue_for(pkt.rss_hash)]->push(pkt) ? 1 : 0;
    }
  }
  trace_burst(pkts, n, accepted);
  return accepted;
}

void Port::trace_burst(const PacketDesc* pkts, int n, int accepted) {
  if (trace::Tracer* t = sim_.tracer(); t != nullptr) [[unlikely]] {
    // One instant per group (not per packet): the burst boundary is the
    // interesting structure; arrival of the group's last packet stamps it.
    t->instant(trace::id::kRxBurst, n > 0 ? pkts[n - 1].arrival : sim_.now(),
               static_cast<std::uint64_t>(accepted), 0, static_cast<std::uint32_t>(n));
  }
}

std::uint64_t Port::total_dropped() const {
  std::uint64_t drops = cap_drops_;
  for (const auto& ring : rx_) drops += ring->total_dropped();
  return drops;
}

void Port::register_metrics(stats::MetricSet& set, const std::string& prefix) {
  set.attach_counter(prefix + ".rx", total_rx_);
  set.attach_counter(prefix + ".cap_drops", cap_drops_);
  for (std::size_t q = 0; q < rx_.size(); ++q) {
    rx_[q]->register_metrics(set, prefix + ".q" + std::to_string(q));
  }
  tx_ring_.register_metrics(set, prefix + ".tx");
}

}  // namespace metro::nic
