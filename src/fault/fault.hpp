// Deterministic fault-injection plane.
//
// The paper's premise is that intermittent packet retrieval must stay
// correct and bounded under adverse timing — so the reproduction needs a
// way to *express* adversity: lossy links, bit-flipped headers,
// duplicated and reordered deliveries, link flaps and NIC rx-ring stalls.
// This header defines the whole plane:
//
//   * `FaultSpec` — a declarative, per-scenario description carried in
//     `WorkloadConfig` (and therefore `ScenarioSpec`). A default spec is
//     inert: every hook short-circuits and the healthy data path is
//     byte-for-byte what it was before this subsystem existed.
//   * `FaultInjector` — the runtime: one xoshiro256** stream seeded via
//     `derive_seed(shard_seed)` (SplitMix64-mixed on a dedicated stream
//     tag, so fault randomness never aliases workload randomness). The
//     injector is driven exclusively by packet arrival timestamps and the
//     arrival *order* at the port — both already bit-identical across
//     backends and `--jobs` — so fault sequences inherit the
//     determinism contract and `fingerprint()` gates extend to faulty
//     runs unchanged.
//   * Counters (`fault.dropped`, `fault.corrupted`, `fault.dup`,
//     `fault.reordered`, `fault.link_down_ns`, `fault.stall_ns`)
//     registered in `stats::MetricSet` like every other layer's.
//
// Hook points: `Port::rx`/`rx_burst` route each descriptor through
// `ingress()` (drop / corrupt / duplicate / reorder / link-down), and
// `RxRing::push` consults `rx_stalled()` (a stalled ring tail-drops
// as if full — DMA writes that land during a stall are lost, which is
// what a wedged descriptor ring does to real hardware).
//
// Link-down and stall windows are *stateless* functions of the sim clock:
// with period `every + for`, the link is down during the trailing `for`
// of each period. No events, no timers — a packet's own timestamp decides
// its fate, so the windows cost nothing when no packet arrives and are
// trivially identical across event orderings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "nic/sim_packet.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "stats/metric_set.hpp"
#include "stats/trace.hpp"
#include "util/seed_mix.hpp"

namespace metro::fault {

/// Declarative fault description, carried per scenario. All probabilities
/// are per-packet in [0, 1]; all windows are sim-clock nanoseconds. The
/// default-constructed spec is inert (`any()` is false) and costs nothing.
struct FaultSpec {
  double drop_prob = 0.0;     ///< silently lose the packet
  double corrupt_prob = 0.0;  ///< flip header bits (rss_hash / wire_size)
  double dup_prob = 0.0;      ///< deliver the packet twice
  double reorder_prob = 0.0;  ///< hold the packet behind its successor

  /// Link flap: up for `link_down_every`, then down for `link_down_for`,
  /// repeating. Packets arriving in a down window are lost. Both must be
  /// > 0 for the flap to be active.
  sim::Time link_down_every = 0;
  sim::Time link_down_for = 0;

  /// Rx-ring stall: every `stall_every` the ring wedges for `stall_for`;
  /// pushes during the stall tail-drop (counted in the ring's own
  /// `dropped` counter). Both must be > 0 to be active.
  sim::Time stall_every = 0;
  sim::Time stall_for = 0;

  bool any() const noexcept {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0 ||
           (link_down_every > 0 && link_down_for > 0) || (stall_every > 0 && stall_for > 0);
  }
};

/// The six plane-level observables (registration via register_metrics;
/// the hooks keep plain increments, per the repo's telemetry discipline).
struct FaultCounters {
  std::uint64_t dropped = 0;       ///< lost to drop_prob or a down link
  std::uint64_t corrupted = 0;     ///< headers bit-flipped
  std::uint64_t dup = 0;           ///< extra copies delivered
  std::uint64_t reordered = 0;     ///< packets held behind a successor
  std::uint64_t link_down_ns = 0;  ///< down-time actually witnessed by packets
  std::uint64_t stall_ns = 0;      ///< stall-time actually witnessed by pushes
};

class FaultInjector {
 public:
  /// Stream tag folded into the shard seed so the fault stream never
  /// collides with the workload stream (`mix_seed(cfg.seed, 1)`) or any
  /// other derived seed family.
  static constexpr std::uint64_t kFaultSeedStream = 0xFA01'7B1A'DE5EULL;

  static constexpr std::uint64_t derive_seed(std::uint64_t shard_seed) noexcept {
    return util::mix_seed(shard_seed, kFaultSeedStream);
  }

  FaultInjector(const FaultSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

  const FaultSpec& spec() const noexcept { return spec_; }
  const FaultCounters& counters() const noexcept { return counters_; }

  /// Run one descriptor through the ingress pipeline, invoking
  /// `deliver(const nic::PacketDesc&)` zero, one or two times:
  ///   link-down? -> lost.  drop? -> lost.  corrupt? -> flip bits.
  ///   reorder? -> hold until the next delivered packet goes first.
  ///   deliver; dup? -> deliver again; then release any held packet.
  /// RNG draws are guarded by spec probabilities, so a given spec + seed
  /// always consumes the stream identically for the same packet sequence.
  template <typename Deliver>
  void ingress(nic::PacketDesc pkt, Deliver&& deliver) {
    if (link_down(pkt.arrival)) {
      ++counters_.dropped;
      if (tracer_ != nullptr) [[unlikely]] {
        tracer_->instant(trace::id::kFaultLinkDown, pkt.arrival, pkt.flow_id);
      }
      return;
    }
    if (spec_.drop_prob > 0.0 && rng_.chance(spec_.drop_prob)) {
      ++counters_.dropped;
      if (tracer_ != nullptr) [[unlikely]] {
        tracer_->instant(trace::id::kFaultDrop, pkt.arrival, pkt.flow_id);
      }
      return;
    }
    if (spec_.corrupt_prob > 0.0 && rng_.chance(spec_.corrupt_prob)) {
      corrupt(pkt);
      ++counters_.corrupted;
    }
    if (spec_.reorder_prob > 0.0 && !held_.has_value() && rng_.chance(spec_.reorder_prob)) {
      held_ = pkt;
      ++counters_.reordered;
      if (tracer_ != nullptr) [[unlikely]] {
        tracer_->instant(trace::id::kFaultReorder, pkt.arrival, pkt.flow_id);
      }
      return;
    }
    deliver(static_cast<const nic::PacketDesc&>(pkt));
    if (spec_.dup_prob > 0.0 && rng_.chance(spec_.dup_prob)) {
      ++counters_.dup;
      deliver(static_cast<const nic::PacketDesc&>(pkt));
    }
    if (held_.has_value()) {
      const nic::PacketDesc late = *held_;
      held_.reset();
      deliver(late);  // behind its successor: the reordering is now real
    }
  }

  /// True while the rx ring is wedged at sim time `t`. Called from
  /// RxRing::push; no RNG (stateless in the clock), but accounts
  /// witnessed stall time lazily (once per stall window a push lands in).
  bool rx_stalled(sim::Time t);

  /// Flip `n_bits` randomly-chosen bits of `data` (functional-path
  /// corruption for the byte-level apps: l3fwd / FloWatcher / IPsec
  /// harnesses feed packets through this before parsing).
  void flip_bits(std::uint8_t* data, std::size_t len, int n_bits);

  /// Attach the six plane counters to `set` as `<prefix>.dropped`,
  /// `.corrupted`, `.dup`, `.reordered`, `.link_down_ns`, `.stall_ns`.
  void register_metrics(stats::MetricSet& set, const std::string& prefix);

  /// Attach (or detach, with nullptr) a trace recorder: drop / reorder /
  /// link-down / stall decisions then emit instants. Read-only observer —
  /// fault sequences and counters are identical with or without it.
  void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }

 private:
  bool link_down(sim::Time t);
  void corrupt(nic::PacketDesc& pkt);

  FaultSpec spec_;
  sim::Rng rng_;
  FaultCounters counters_;
  trace::Tracer* tracer_ = nullptr;  // borrowed; nullptr = no tracing
  std::optional<nic::PacketDesc> held_;
  std::int64_t last_down_window_ = -1;
  std::int64_t last_stall_window_ = -1;
};

}  // namespace metro::fault
