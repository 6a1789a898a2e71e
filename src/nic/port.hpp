// Simulated NIC port: RSS dispatch onto N Rx queues plus a Tx side.
//
// Models the Intel X520 (10 GbE, default single queue, 512-descriptor
// rings) and XL710 (40 GbE, multi-queue, capped at ~37 Mpps aggregate
// processing by the device itself — spec update #13, which the paper hits
// in §V-F). Traffic sources push descriptors through `rx()` — or, for
// already-grouped deliveries, through `rx_burst()`, which runs the whole
// group through cap accounting and RSS dispatch in one call — and the
// port tail-drops on full rings.
//
// A stream source is installed instead as the port's lazy ingress
// (set_ingress; tgen::attach does it), which calls rx_burst() itself only
// when the port's state is looked at: a ring read, a telemetry sample
// (Simulation::sync_lazy), the end of a run slice, or the kernel event it
// keeps armed while a reader is parked (see rings.hpp). Each first
// delivers every group due by now(), so what is read is what it would be
// had each group arrived at its own instant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nic/rings.hpp"
#include "nic/rss.hpp"
#include "nic/sim_packet.hpp"
#include "sim/calibration.hpp"
#include "sim/simulation.hpp"

namespace metro::nic {

struct PortConfig {
  int n_rx_queues = 1;
  int rx_ring_size = sim::calib::kX520DefaultRingSize;
  int tx_batch = sim::calib::kTxBatchDefault;
  /// Aggregate device processing cap in packets/s (0 = uncapped).
  /// XL710: ~37 Mpps regardless of configured rate.
  double max_pps = 0.0;
};

/// Factory presets matching the paper's two NICs.
PortConfig x520_config(int n_queues = 1);
PortConfig xl710_config(int n_queues);

class Port {
 public:
  Port(sim::Simulation& sim, PortConfig cfg, TxCallback on_tx = {});
  ~Port();

  int n_rx_queues() const noexcept { return static_cast<int>(rx_.size()); }
  RxRing& rx_queue(int i) { return *rx_[static_cast<std::size_t>(i)]; }
  TxRing& tx() noexcept { return tx_ring_; }
  const PortConfig& config() const noexcept { return cfg_; }

  /// NIC-side ingress: RSS-dispatch one descriptor. Returns false if the
  /// packet was dropped (fault plane, ring full or device cap exceeded).
  bool rx(const PacketDesc& pkt);

  /// Ingress of `n` descriptors with non-decreasing arrival times (a
  /// feeder group). Semantically identical to n rx() calls — same cap
  /// accounting, same RSS dispatch, same drop counters — but one call per
  /// group instead of one per packet. Returns how many were accepted.
  /// With a fault plane attached the burst degrades to the per-packet
  /// path, because faults are defined per packet (drop / corrupt / dup /
  /// reorder decisions consume the fault stream in arrival order).
  int rx_burst(const PacketDesc* pkts, int n);

  /// Install the port's lazy ingress (see the file comment) and register
  /// it with the kernel. When a reader is already parked on a ring, the
  /// ingress is armed at once. A port takes one ingress; a second throws
  /// std::logic_error.
  void set_ingress(std::unique_ptr<sim::LazySource> ingress);

  /// True while a reader is parked on any of the port's rings.
  bool has_parked_reader() const noexcept;

  /// Attach (or detach, with nullptr) the deterministic fault plane.
  /// Plumbs the stall hook into every rx ring as well. The injector must
  /// outlive the port; a null injector restores the healthy fast path.
  void set_fault_injector(fault::FaultInjector* faults);

  // --- counters ---------------------------------------------------------
  std::uint64_t total_rx() const noexcept { return total_rx_; }
  std::uint64_t total_dropped() const;
  std::uint64_t device_cap_drops() const noexcept { return cap_drops_; }

  /// Attach the port's whole counter tree to `set` under `prefix`:
  /// `<prefix>.rx`, `<prefix>.cap_drops`, per-queue
  /// `<prefix>.qN.received/.dropped` and `<prefix>.tx.transmitted`.
  /// Registration only — the data path is untouched.
  void register_metrics(stats::MetricSet& set, const std::string& prefix);

 private:
  /// The healthy ingress body (cap accounting + RSS dispatch); rx() is the
  /// fault-plane wrapper around it.
  bool accept(const PacketDesc& pkt);

  /// Record one kRxBurst instant when the kernel has a tracer attached.
  void trace_burst(const PacketDesc* pkts, int n, int accepted);

  sim::Simulation& sim_;
  PortConfig cfg_;
  RssReta reta_;
  std::vector<std::unique_ptr<RxRing>> rx_;
  TxRing tx_ring_;
  fault::FaultInjector* faults_ = nullptr;  // borrowed; nullptr = healthy
  std::unique_ptr<sim::LazySource> ingress_;  // set_ingress(); nullptr = none
  std::uint64_t total_rx_ = 0;
  std::uint64_t cap_drops_ = 0;
  /// Device pacing: earliest time the NIC can accept the next packet.
  sim::Time next_accept_ = 0;
  sim::Time per_packet_ns_ = 0;  // 1/max_pps, 0 if uncapped
};

}  // namespace metro::nic
