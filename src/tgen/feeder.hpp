// Feeder: drives a Generator's packet stream into a simulated Port.
//
// To keep the event count tractable at 10-40 Gbps line rates, arrivals are
// grouped: the feeder pulls packets whose timestamps fall within a 2 us
// window (at most 32 of them), sleeps until the *last* arrival of the
// group, and pushes the group into the port with one rx_burst() call.
// Per-packet timestamps inside the group are exact, but the ring "sees"
// each packet up to one window late, and a driver cannot pop a packet
// before it is visible. Latency therefore carries that delay: at 14.88
// Mpps on the X520 single-queue testbed the p50 is 17.63 us grouped
// against 16.13 us with per-packet delivery (0.744 Mpps: 34.98 us
// either way). CPU %, TS and wake-ups agree within 0.5%.
//
// For scenarios where the *pending-event population* is the point (the
// fig13 full-stack regime: thousands to millions of concurrently armed
// flow timers), the per-flow entry points keep one timer armed per flow,
// so N flows put N events in the kernel's pending store — the workload
// the timing-wheel backend exists for. One event per
// packet; use the grouped feeder when simulation speed matters more than
// population realism. Two implementations share the exact event stream:
//
//   * attach_per_flow_sources() — one coroutine per flow. The readable
//     reference; a heap-allocated frame per flow makes it unaffordable at
//     the million-flow mark.
//   * PerFlowSourceArena — the same processes as a structure-of-arrays
//     arena plus one kernel timer event per flow. 16 bytes of arena
//     state per flow across three packed lanes plus the timer's 32-byte
//     event record, steady-state allocation-free, and construction is a
//     few vector fills instead of millions of coroutine frames. Emits
//     the byte-identical event stream (enforced by tests/test_tgen.cpp).
//
// All entry points are generic over the kernel instantiation; defined in
// feeder.cpp and instantiated for both shipped backends.
#pragma once

#include <memory>
#include <vector>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "tgen/generator.hpp"

namespace metro::tgen {

/// Spawn a coroutine that feeds `gen` into `port` in groups (see the file
/// comment) until exhaustion. The generator must outlive the simulation
/// run.
template <typename Sim>
void attach(Sim& sim, nic::BasicPort<Sim>& port, Generator& gen);

/// Per-flow arrival processes (see the file comment).
struct PerFlowSourceConfig {
  double total_rate_pps = 14.88e6;  ///< aggregate over all flows
  bool poisson = true;              ///< exponential vs constant per-flow gaps
  std::uint16_t wire_size = 64;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
};

/// Spawn one arrival process per flow of `flows` (flows.size() concurrent
/// pending timers). All randomness is drawn from the owning simulation's
/// RNG in event order, so runs stay bit-identical across backends. The
/// flow set must outlive the simulation run.
template <typename Sim>
void attach_per_flow_sources(Sim& sim, nic::BasicPort<Sim>& port, const FlowSet& flows,
                             PerFlowSourceConfig cfg);

/// Arena-backed per-flow arrival processes: the multi-million-flow form
/// of attach_per_flow_sources. The arena is a structure of arrays — three
/// packed lanes, 16 bytes per flow in total, sized exactly (no growth
/// slack at 2^24 flows):
///
///   * rss hash (4 B)       — the precomputed RSS hash, contiguous so the
///                            fire path touches one dense cache line per
///                            16 flows instead of a FlowSet stride;
///   * next-fire time (8 B) — the instant of the flow's pending timer
///                            (kIdle once the flow retires past its end);
///   * draw state (4 B)     — packets this flow has emitted, i.e. the
///                            gap draws it has consumed from the shared
///                            RNG (per-flow accounting for the at-scale
///                            invariant tests).
///
/// One pending kernel timer per flow (a kTimer event, see
/// sim::TimerTarget) carries only the arena and the flow index inside its
/// 32-byte event record, so a fire touches the firing flow's lane entries
/// and nothing else — no coroutine frame, no callback slot, no per-arrival
/// allocation, no shared record to false-share.
///
/// Re-arming is batched where the population is batched: constructing the
/// arena schedules a single bootstrap callback that first streams the
/// uniform phase draws into the next-fire lane (one sequential pass, flow
/// order) and then arms the timers in a second sequential pass, so
/// building a 2^22-flow population is a handful of lane fills plus the
/// kernel inserts — not millions of interleaved draw/spawn round trips
/// through cold kernel structures.
///
/// Equivalence contract: the arena consumes the simulation RNG in the
/// same order as the coroutine path (phase draws in flow order at t=now,
/// then one gap draw per arrival in event order) and arms its timers in
/// the same relative sequence order (the phase/arm split does not change
/// seq assignment: RNG draws consume no sequence numbers, and flows past
/// their end are skipped by both passes exactly as the coroutine's
/// `while (next <= end)` bound would). The emitted packet stream — every
/// field, every delivery instant, and hence every downstream observable —
/// is bit-identical to attach_per_flow_sources for every backend
/// (tests/test_tgen.cpp pins this). Only the kernel's internal event
/// count differs: one bootstrap event replaces the n spawn resumes.
///
/// The arena must outlive the simulation run; it is pinned (its bootstrap
/// callback and its timers point at `this`).
template <typename Sim>
class PerFlowSourceArena final : public sim::TimerTarget {
 public:
  /// next_fire_at() value of a flow with no pending timer (retired past
  /// `start + duration`, or not yet bootstrapped).
  static constexpr sim::Time kIdle = -1;

  PerFlowSourceArena(Sim& sim, nic::BasicPort<Sim>& port, const FlowSet& flows,
                     PerFlowSourceConfig cfg);
  PerFlowSourceArena(const PerFlowSourceArena&) = delete;
  PerFlowSourceArena& operator=(const PerFlowSourceArena&) = delete;

  std::size_t flow_count() const noexcept { return rss_.size(); }
  /// Timers currently pending in the kernel (0 once every flow passed
  /// `start + duration`).
  std::size_t armed() const noexcept { return armed_; }
  /// Packets emitted so far.
  std::uint64_t fired() const noexcept { return fired_; }

  // --- per-flow lane accessors (accounting tests and diagnostics) -------
  /// True while `flow` has a timer pending in the kernel.
  bool flow_armed(std::uint32_t flow) const noexcept { return next_at_[flow] != kIdle; }
  /// The pending timer's fire instant, or kIdle when the flow retired.
  sim::Time next_fire_at(std::uint32_t flow) const noexcept { return next_at_[flow]; }
  /// Packets this flow emitted (== gap draws it consumed).
  std::uint32_t flow_fired(std::uint32_t flow) const noexcept { return emitted_[flow]; }

 private:
  void bootstrap();
  /// One flow's timer fired: emit its packet, draw its next gap, re-arm.
  void on_timer(std::uint32_t flow) override;
  void arm(std::uint32_t flow);

  Sim& sim_;
  nic::BasicPort<Sim>& port_;
  // The SoA lanes (16 B per flow; see the class comment).
  std::vector<std::uint32_t> rss_;      ///< RSS hash lane
  std::vector<sim::Time> next_at_;      ///< next-fire lane (kIdle = retired)
  std::vector<std::uint32_t> emitted_;  ///< draw-state lane (packets emitted)
  PerFlowSourceConfig cfg_;
  double mean_gap_ns_ = 0.0;
  sim::Time end_ = 0;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace metro::tgen
