// NIC descriptor rings.
//
// RxRing models the hardware Rx descriptor ring: the NIC DMA-writes
// arriving packets into it; when it is full, further packets are tail-
// dropped (`imissed` in DPDK counters). Drivers retrieve descriptors in
// bursts of up to 32, exactly like rte_eth_rx_burst.
//
// TxRing models the transmit side including the *Tx batch threshold*
// discussed in §V-C: descriptors are buffered until `batch` of them are
// pending, then flushed to the wire in one shot. A small batch improves
// latency at low rates (no packet is stranded across a vacation period) at
// the cost of more MMIO doorbells — the paper measures both settings.
//
// When ring state is current: a port with a lazy ingress (a
// sim::LazySource installed by tgen::attach) delivers arrivals only when
// something looks. pop_burst(), size() and empty() first deliver each
// group whose instant is at or before now(); parking through
// wait_arrival()/wait_arrival_for() keeps a kernel event armed at the next
// group's instant; and Simulation::run_until() delivers what is due by
// the slice end. Between those points the counters (what a MetricSet
// reads) may lag the wire, which is why the telemetry readers call
// Simulation::sync_lazy() first.
//
// Per-packet cost discipline: these two paths run once per simulated
// packet, so they carry no avoidable per-packet work —
//   * RxRing::push notifies the arrival signal only on the empty→non-empty
//     edge (waiters block only on an empty ring, so notifies at depth 2, 3,
//     ... could never wake anyone — they were pure loop overhead);
//   * TxRing's transmit callback is a non-owning FunctionRef (one indirect
//     call, no std::function machinery) and flush() tests it once per
//     flush, not once per packet.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fault/fault.hpp"
#include "nic/sim_packet.hpp"
#include "sim/simulation.hpp"
#include "stats/metric_set.hpp"
#include "util/function_ref.hpp"

namespace metro::nic {

/// Per-packet transmit hook `on_tx(pkt, tx_time)`, invoked at flush time —
/// the experiment harness binds its latency-histogram recorder here. Non-
/// owning: the callable must outlive the ring (the harness owns both).
using TxCallback = util::FunctionRef<void(const PacketDesc&, sim::Time)>;

class RxRing {
 public:
  /// Storage is rounded up to a power of two so index wrap is a mask, not
  /// a division; the *logical* capacity (full/drop threshold) stays exactly
  /// as requested, matching the configured descriptor count.
  RxRing(sim::Simulation& sim, int capacity)
      : sim_(sim),
        capacity_(static_cast<std::size_t>(capacity)),
        mask_(std::bit_ceil(static_cast<std::size_t>(capacity)) - 1),
        slots_(mask_ + 1),
        arrival_signal_(sim) {}

  /// NIC-side enqueue. Returns false (and counts a drop) when full.
  /// Edge-triggered arrival notification: waiters only ever block on an
  /// empty ring (every driver drains before waiting), so only the
  /// empty→non-empty transition can have an audience.
  bool push(const PacketDesc& pkt) {
    // A stalled ring behaves exactly like a full one: DMA writes that land
    // during the stall window are tail-dropped (imissed). The check is one
    // predicted-false branch when no fault plane is attached.
    if (faults_ != nullptr && faults_->rx_stalled(pkt.arrival)) {
      ++dropped_;
      return false;
    }
    if (count_ == capacity_) {
      ++dropped_;
      return false;
    }
    slots_[tail_ & mask_] = pkt;
    ++tail_;
    ++received_;
    if (count_++ == 0) arrival_signal_.notify_all();
    return true;
  }

  /// Driver-side burst retrieval (rte_eth_rx_burst semantics). Copies out
  /// at most two contiguous runs (descriptors are PODs).
  int pop_burst(PacketDesc* out, int max) {
    sync();
    if (max <= 0) return 0;
    std::size_t n = count_;
    if (n > static_cast<std::size_t>(max)) n = static_cast<std::size_t>(max);
    if (n == 0) return 0;
    const std::size_t start = head_ & mask_;
    const std::size_t first = std::min(n, (mask_ + 1) - start);
    std::memcpy(out, slots_.data() + start, first * sizeof(PacketDesc));
    if (n > first) {
      std::memcpy(out + first, slots_.data(), (n - first) * sizeof(PacketDesc));
    }
    head_ += n;
    count_ -= n;
    return static_cast<int>(n);
  }

  bool empty() const {
    sync();
    return count_ == 0;
  }
  std::size_t size() const {
    sync();
    return count_;
  }
  std::size_t capacity() const noexcept { return capacity_; }

  std::uint64_t total_received() const noexcept { return received_; }
  std::uint64_t total_dropped() const noexcept { return dropped_; }

  /// co_await ring.wait_arrival(): park until this ring receives its next
  /// packet; wait_arrival_for(t) also resumes after `t` (true when a
  /// packet woke it). Used by polling drivers to fast-forward idle
  /// stretches without per-poll events. Park only with the ring drained
  /// (all drivers do): only the empty→non-empty edge notifies. Parking
  /// arms the port's ingress first, so its next group wakes the reader at
  /// that group's instant.
  auto wait_arrival() {
    if (ingress_ != nullptr) ingress_->arm();
    return arrival_signal_.wait();
  }
  auto wait_arrival_for(sim::Time timeout) {
    if (ingress_ != nullptr) ingress_->arm();
    return arrival_signal_.wait_for(timeout);
  }
  /// True while a reader is parked on the ring.
  bool has_waiters() const noexcept { return arrival_signal_.has_waiters(); }

  /// Route reads through the port's lazy ingress (nullptr detaches); wired
  /// by Port::set_ingress.
  void set_ingress(sim::LazySource* ingress) noexcept { ingress_ = ingress; }

  /// Attach this ring's counters to `set` under `prefix` (setup only; the
  /// hot path keeps its plain increments).
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".received", received_);
    set.attach_counter(prefix + ".dropped", dropped_);
  }

  /// Attach (or detach, with nullptr) the fault plane's stall hook. The
  /// injector must outlive the ring; normally wired by Port.
  void set_fault_injector(fault::FaultInjector* faults) noexcept { faults_ = faults; }

 private:
  /// Deliver every ingress group due by now(). The deliveries push into
  /// this ring through the port, so a const read may update the slots: the
  /// state it returns is the state eager delivery would have left.
  void sync() const {
    if (ingress_ != nullptr) ingress_->deliver_until(sim_.now());
  }

  sim::Simulation& sim_;
  sim::LazySource* ingress_ = nullptr;  // the port's lazy ingress, if any
  std::size_t capacity_;  // logical capacity (full threshold)
  std::size_t mask_;      // storage size - 1 (power of two)
  std::vector<PacketDesc> slots_;
  std::size_t head_ = 0;  // monotonically increasing; masked on access
  std::size_t tail_ = 0;
  std::size_t count_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_ = 0;
  fault::FaultInjector* faults_ = nullptr;  // borrowed; nullptr = healthy
  sim::Signal arrival_signal_;
};

class TxRing {
 public:
  /// Per-packet transmit hook (see nic::TxCallback). Kept as a member
  /// alias so existing `TxRing::TxCallback` spellings stay valid.
  using TxCallback = nic::TxCallback;

  TxRing(sim::Simulation& sim, int batch_threshold, TxCallback on_tx = {})
      : sim_(sim), batch_(batch_threshold < 1 ? 1 : batch_threshold), on_tx_(on_tx) {
    // send() fills at most `batch_` entries before flushing, so one warm-up
    // reservation makes the steady-state path allocation-free.
    pending_.reserve(static_cast<std::size_t>(batch_));
  }

  /// Queue one descriptor for transmission; flushes when the batch fills.
  void send(const PacketDesc& pkt) {
    pending_.push_back(pkt);
    if (static_cast<int>(pending_.size()) >= batch_) flush();
  }

  /// Force out whatever is pending (used by the Tx-drain ablation). The
  /// callback test is hoisted out of the per-packet loop.
  void flush() {
    if (trace::Tracer* t = sim_.tracer(); t != nullptr) [[unlikely]] {
      if (!pending_.empty()) {
        t->instant(trace::id::kTxFlush, sim_.now(), pending_.size());
      }
    }
    transmitted_ += pending_.size();
    if (on_tx_) {
      const sim::Time now = sim_.now();
      for (const PacketDesc& p : pending_) on_tx_(p, now);
    }
    pending_.clear();
  }

  std::size_t pending() const noexcept { return pending_.size(); }
  std::uint64_t total_transmitted() const noexcept { return transmitted_; }
  int batch_threshold() const noexcept { return batch_; }

  /// Attach this ring's counters to `set` under `prefix` (setup only).
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_counter(prefix + ".transmitted", transmitted_);
  }

 private:
  sim::Simulation& sim_;
  int batch_;
  TxCallback on_tx_;
  std::vector<PacketDesc> pending_;
  std::uint64_t transmitted_ = 0;
};

}  // namespace metro::nic
