// Feeder: drives a Generator's packet stream into a simulated Port.
//
// attach() installs the stream as the port's grouped ingress. To keep the
// cost tractable at 10-40 Gbps line rates, arrivals are grouped: a group
// is the packets whose timestamps fall within kGroupWindow (2 us) of its
// first one, at most kGroupCap (32) of them, and it becomes visible at its
// *last* packet's arrival, through one Port::rx_burst() call. Per-packet
// timestamps inside the group are exact, but the ring "sees" each packet
// up to one window late, and a driver cannot pop a packet before it is
// visible. Latency therefore carries that delay: at 14.88 Mpps on the X520
// single-queue testbed the p50 is 17.63 us grouped against 16.13 us with
// per-packet delivery (0.744 Mpps: 34.98 us either way). CPU %, TS and
// wake-ups agree within 0.5%.
//
// The ingress is lazy (a sim::LazySource the port owns) and runs no
// coroutine: a group goes through rx_burst() only when the port's state is
// looked at — a ring read, a telemetry sample, the end of a run slice —
// and then every group due by now() goes, in order. Only while a reader
// is parked on a drained ring (static polling, frequency scaling, XDP;
// never Metronome) does the ingress keep one kernel event armed, at the
// next group's instant. So a Metronome thread that sleeps through a
// hundred groups costs no kernel event for them. The observables match
// one kernel event per group: tests/test_ingress.cpp holds the ingress to
// that eager feeder, kept there as the reference, and every tracked
// telemetry fingerprint is unchanged.
//
// For scenarios where the *population of armed flows* is the point (the
// fig13 full-stack regime: thousands to millions of concurrently armed
// flow timers), the per-flow entry points keep one arrival armed per flow.
// One event per packet; use the grouped feeder when simulation speed
// matters more than population realism. Two implementations share the
// exact event stream:
//
//   * attach_per_flow_sources() — one coroutine per flow, each a pending
//     kernel event. The readable reference; a heap-allocated frame per
//     flow makes it unaffordable at the million-flow mark.
//   * PerFlowSourceArena — the same processes as a structure-of-arrays
//     arena that keeps its own timers: a private (at, seq) calendar the
//     kernel merges as its one sim::EventSource. 28 bytes of arena state
//     per flow across five packed lanes plus ~4 bytes of calendar bucket,
//     no kernel event per flow, steady-state allocation-free, and
//     construction is a few vector fills instead of millions of coroutine
//     frames. Emits the byte-identical event stream (enforced by
//     tests/test_tgen.cpp).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "tgen/generator.hpp"

namespace metro::tgen {

/// An ingress group spans arrivals within this window of its first packet...
inline constexpr sim::Time kGroupWindow = 2 * sim::kMicrosecond;
/// ...and holds at most this many packets.
inline constexpr std::size_t kGroupCap = 32;

/// Install `gen` as the port's grouped ingress (see the file comment),
/// delivered until exhaustion. The generator must outlive the simulation
/// run; a port takes one stream (a second attach throws
/// std::logic_error).
void attach(sim::Simulation& sim, nic::Port& port, Generator& gen);

/// Per-flow arrival processes (see the file comment).
struct PerFlowSourceConfig {
  double total_rate_pps = 14.88e6;  ///< aggregate over all flows
  bool poisson = true;              ///< exponential vs constant per-flow gaps
  std::uint16_t wire_size = 64;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
};

/// Throw std::invalid_argument for a per-flow config no run can honour: a
/// non-finite total_rate_pps (NaN would reach an undefined float-to-time
/// cast, infinity makes every gap 1 ns), a negative duration, or
/// 2^32 - 1 flows or more (flow ids are 32-bit and the arena reserves
/// the top value as its nil link). Both per-flow entry points call it
/// before touching the simulation. A non-positive finite rate is valid:
/// it offers no traffic.
void check_per_flow_config(std::size_t n_flows, const PerFlowSourceConfig& cfg);

/// Spawn one arrival process per flow of `flows` (flows.size() concurrent
/// pending kernel events). All randomness is drawn from the owning
/// simulation's RNG in event order, so runs stay bit-identical on either
/// event store. The flow set must outlive the simulation run. Throws as
/// check_per_flow_config.
void attach_per_flow_sources(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                             PerFlowSourceConfig cfg);

/// Arena-backed per-flow arrival processes: the multi-million-flow form
/// of attach_per_flow_sources. The arena is a structure of arrays — five
/// packed lanes, 28 bytes per flow in total, sized exactly (no growth
/// slack at 2^24 flows):
///
///   * rss hash (4 B)       — the precomputed RSS hash, contiguous so the
///                            fire path touches one dense cache line per
///                            16 flows instead of a FlowSet stride;
///   * next-fire time (8 B) — the planned instant of the flow's armed
///                            arrival (kIdle once the flow retires past
///                            its end); an arm planned behind now fires
///                            at now but keeps this phase;
///   * draw state (4 B)     — packets this flow has emitted, i.e. the
///                            gap draws it has consumed from the shared
///                            RNG (per-flow accounting for the at-scale
///                            invariant tests);
///   * seq (8 B)            — the kernel sequence number its arm took;
///   * link (4 B)           — the intrusive calendar-chain link.
///
/// The arena owns its timers: it is the kernel's sim::EventSource, and
/// the kernel's event store holds nothing per flow. Armed flows wait in a
/// calendar queue (Brown, CACM 31(10), 1988) keyed by (at, seq):
///
///   * buckets a power of two of ns wide, about 8 aggregate arrivals each,
///     with enough of them to cover about 8 mean per-flow gaps — both
///     derived from the flow count and the rate; each bucket is an
///     intrusive chain through the link lane;
///   * an overflow chain for arms beyond that horizon, folded back in when
///     the horizon reaches its earliest entry (or jumped to when the
///     buckets run dry);
///   * a short run of {at, seq, flow} records: the next few non-empty
///     buckets, in (at, seq) order. Its front is the head the kernel
///     merges. The chains are walked interleaved, so beyond the LLC the
///     walk pays for several independent cache misses at once instead of
///     one dependent miss per step. An arm that lands before the end of
///     the loaded buckets (rare: a gap shorter than a few buckets), or is
///     clamped to now, goes straight into the run in order.
///
/// A refill orders the run without a comparison sort. The loaded buckets
/// are disjoint in time and loaded in time order, so the walk keys each
/// record by its bucket's load index and the 1/16 slice of the bucket its
/// arrival falls in, and counts the keys. A counting-sort scatter by key
/// then leaves only inversions inside one slice (a record or two at the
/// usual ~8 arrivals per bucket), and one insertion pass on (at, seq)
/// removes them. That pass alone decides the order; the key only makes
/// it short. A slice holding more than 16 records (many arrivals at one
/// instant, as sub-ns per-flow gaps give) sends the whole refill to
/// std::sort instead, since an insertion pass over a long LIFO chain of
/// ties would be quadratic.
///
/// A fire touches the firing flow's lane entries plus the run — no
/// coroutine frame, no kernel store push, pop or cascade, and no
/// per-arrival allocation.
///
/// Arming is batched where the population is batched: constructing the
/// arena schedules a single bootstrap callback that builds the calendar,
/// streams the uniform phase draws into the next-fire lane (one
/// sequential pass, flow order) and then arms the flows in a second
/// sequential pass — a handful of lane fills, not millions of interleaved
/// draw/spawn round trips through cold kernel structures.
///
/// Equivalence contract: the arena consumes the simulation RNG in the
/// same order as the coroutine path (phase draws in flow order at t=now,
/// then one gap draw per arrival in event order), and every arm takes its
/// kernel sequence number (sim.take_seq()) at the point the coroutine's
/// resume would have been scheduled, with the same `t < now -> now` clamp,
/// and draws the next gap from the planned instant, not the clamped one.
/// The kernel merges the calendar's head with its own events by
/// (at, seq), so the merged order is the order the per-flow events would
/// have had in the store. The emitted packet stream — every field, every
/// delivery instant, and hence every downstream observable — is
/// bit-identical to attach_per_flow_sources on either event store
/// (tests/test_tgen.cpp pins this). Only the kernel's internal event
/// count differs: one bootstrap event replaces the n spawn resumes.
///
/// The arena must outlive the simulation run; it is pinned (the kernel
/// and its bootstrap callback point at `this`). Throws as
/// check_per_flow_config.
class PerFlowSourceArena final : public sim::EventSource {
 public:
  /// next_fire_at() value of a flow with no armed arrival (retired past
  /// `start + duration`, or not yet bootstrapped).
  static constexpr sim::Time kIdle = -1;

  PerFlowSourceArena(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                     PerFlowSourceConfig cfg);
  PerFlowSourceArena(const PerFlowSourceArena&) = delete;
  PerFlowSourceArena& operator=(const PerFlowSourceArena&) = delete;

  std::size_t flow_count() const noexcept { return rss_.size(); }
  /// Packets emitted so far. (armed(), from sim::EventSource, counts the
  /// flows with an arrival pending: 0 once every flow passed
  /// `start + duration`.)
  std::uint64_t fired() const noexcept { return fired_; }

  // --- per-flow lane accessors (accounting tests and diagnostics) -------
  /// True while `flow` has an arrival armed.
  bool flow_armed(std::uint32_t flow) const noexcept { return next_at_[flow] != kIdle; }
  /// The armed arrival's instant, or kIdle when the flow retired. (A
  /// clamped arm fires at the instant it was armed, and the clock cannot
  /// pass that instant while the arm is pending.)
  sim::Time next_fire_at(std::uint32_t flow) const noexcept {
    return next_at_[flow] == kIdle ? kIdle : std::max(next_at_[flow], sim_.now());
  }
  /// Packets this flow emitted (== gap draws it consumed).
  std::uint32_t flow_fired(std::uint32_t flow) const noexcept { return emitted_[flow]; }

 private:
  /// One armed arrival in the run. `key` is its refill sort key (load
  /// index and slice; see the class comment); it fills the padding.
  struct Pending {
    sim::Time at;
    std::uint64_t seq;
    std::uint32_t flow;
    std::uint32_t key = 0;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  void bootstrap();
  /// The head flow's arrival is due: emit its packet, draw its next gap,
  /// re-arm it, publish the new head.
  void fire() override;
  /// Arm `flow` at `at` (clamped to now) under a fresh kernel seq.
  void arm(std::uint32_t flow, sim::Time at);
  /// Chain `flow`, armed in bucket `b >= cur_`, into its ring bucket, or
  /// into overflow when `b` lies past the ring.
  void chain(std::uint32_t flow, std::int64_t b);
  /// Make the run's front the earliest armed arrival and publish it.
  void publish_head();
  /// Load the next non-empty buckets into the (empty) run, in order.
  void refill();
  /// Put the freshly loaded run in (at, seq) order. `count` holds each
  /// key's record count; it is overwritten.
  void order_run(std::span<std::uint32_t> count);
  /// Move overflow entries now inside the horizon into their buckets.
  void absorb_overflow();

  sim::Simulation& sim_;
  nic::Port& port_;
  // The SoA lanes (28 B per flow; see the class comment).
  std::vector<std::uint32_t> rss_;      ///< RSS hash lane
  std::vector<sim::Time> next_at_;      ///< next-fire lane (kIdle = retired)
  std::vector<std::uint32_t> emitted_;  ///< draw-state lane (packets emitted)
  std::vector<std::uint64_t> seq_;      ///< kernel seq of the armed arrival
  std::vector<std::uint32_t> link_;     ///< calendar chain link
  PerFlowSourceConfig cfg_;
  double mean_gap_ns_ = 0.0;
  sim::Time end_ = 0;
  std::uint64_t fired_ = 0;
  // The calendar (see the class comment). Buckets are absolute indices
  // `at >> shift_`; the ring holds [cur_, cur_ + ring size).
  std::vector<std::uint32_t> heads_;  ///< bucket chain heads (ring)
  std::uint32_t shift_ = 0;           ///< log2(bucket width, ns)
  std::int64_t cur_ = 0;              ///< first bucket not yet in the run
  std::size_t in_buckets_ = 0;        ///< flows chained in the ring
  std::uint32_t overflow_ = kNil;     ///< overflow chain head
  std::int64_t overflow_min_ = INT64_MAX;  ///< earliest overflow bucket
  std::vector<Pending> run_;          ///< in order; consumed from run_head_
  std::size_t run_head_ = 0;
  std::vector<Pending> scatter_;      ///< order_run's second run buffer
};

}  // namespace metro::tgen
