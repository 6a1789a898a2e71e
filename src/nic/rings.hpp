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
// Per-packet cost discipline: these two paths move every simulated
// packet, so they work a burst at a time and carry no avoidable
// per-packet work —
//   * RxRing::push inlines into Port::rx_burst's loop; the arrival signal
//     is notified out of line, and only on the empty→non-empty edge
//     (waiters block only on an empty ring, so notifies at depth 2, 3,
//     ... could never wake anyone);
//   * TxRing::send takes a driver's whole drained burst, and its transmit
//     callback is a non-owning FunctionRef (no std::function machinery)
//     invoked once per flush with the flushed span, not once per packet.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "nic/sim_packet.hpp"
#include "sim/simulation.hpp"
#include "stats/metric_set.hpp"
#include "util/function_ref.hpp"

namespace metro::nic {

/// Transmit hook `on_tx(pkts, tx_time)`, invoked once per flush with the
/// flushed descriptors in send order — the experiment harness binds its
/// latency-histogram recorder here. The span is valid only during the
/// call. Non-owning: the callable must outlive the ring (the harness owns
/// both).
using TxCallback = util::FunctionRef<void(std::span<const PacketDesc>, sim::Time)>;

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
    if (count_++ == 0) notify_arrival();
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
  /// Out of line so that push() stays small enough to inline into
  /// Port::rx_burst: the edge is rare, the per-packet rest is a store and
  /// three increments.
  [[gnu::noinline]] void notify_arrival() { arrival_signal_.notify_all(); }

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
  TxRing(sim::Simulation& sim, int batch_threshold, TxCallback on_tx = {})
      : sim_(sim), batch_(batch_threshold < 1 ? 1 : batch_threshold), on_tx_(on_tx) {
    // send() holds fewer than `batch_` entries between calls, so one
    // warm-up reservation makes the steady-state path allocation-free.
    pending_.reserve(static_cast<std::size_t>(batch_));
  }

  /// Queue `n` descriptors for transmission, in order: each time the
  /// pending batch fills it is flushed, so the callback sees exactly the
  /// flushes n one-packet sends would make, all at now(). A full batch
  /// with nothing pending goes out straight from `pkts`, uncopied.
  void send(const PacketDesc* pkts, int n) {
    const auto batch = static_cast<std::size_t>(batch_);
    auto left = static_cast<std::size_t>(n < 0 ? 0 : n);
    if (!pending_.empty()) {
      const std::size_t take = std::min(left, batch - pending_.size());
      pending_.insert(pending_.end(), pkts, pkts + take);
      pkts += take;
      left -= take;
      if (pending_.size() < batch) return;
      flush();
    }
    for (; left >= batch; pkts += batch, left -= batch) emit({pkts, batch});
    pending_.insert(pending_.end(), pkts, pkts + left);
  }

  /// Force out whatever is pending (the Tx drain of the polling drivers
  /// and XDP's per-NAPI-cycle flush).
  void flush() {
    if (pending_.empty()) return;
    emit(pending_);
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
  /// Put one non-empty flush on the wire at now().
  void emit(std::span<const PacketDesc> pkts) {
    if (trace::Tracer* t = sim_.tracer(); t != nullptr) [[unlikely]] {
      t->instant(trace::id::kTxFlush, sim_.now(), pkts.size());
    }
    transmitted_ += pkts.size();
    if (on_tx_) on_tx_(pkts, sim_.now());
  }

  sim::Simulation& sim_;
  int batch_;
  TxCallback on_tx_;
  std::vector<PacketDesc> pending_;
  std::uint64_t transmitted_ = 0;
};

}  // namespace metro::nic
