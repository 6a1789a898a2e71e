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
// and then every group due by now() goes, in order. It reads the stream
// kPrefetch packets at a time into one buffer and hands each group to
// rx_burst() as a range of that buffer, uncopied; the unread tail moves to
// the front only when it can no longer hold a full group plus the packet
// that ends it. Only while a reader
// is parked on a drained ring (static polling, frequency scaling, XDP;
// never Metronome) does the ingress keep one kernel event armed, at the
// next group's instant. So a Metronome thread that sleeps through a
// hundred groups costs no kernel event for them. The observables match
// one kernel event per group: tests/test_ingress.cpp holds the ingress to
// that eager feeder, kept there as the reference, and every tracked
// telemetry fingerprint is unchanged.
//
// Where the *population of armed flows* is the point (the fig13 full-stack
// regime: up to millions of armed flow timers), attach_per_flow() installs
// a PerFlowSourceArena as the port's ingress instead: one arrival armed
// per flow, each packet visible at its own arrival (no grouping), lazy in
// the same way as a stream.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "tgen/generator.hpp"
#include "util/seed_mix.hpp"

namespace metro::tgen {

/// An ingress group spans arrivals within this window of its first packet...
inline constexpr sim::Time kGroupWindow = 2 * sim::kMicrosecond;
/// ...and holds at most this many packets.
inline constexpr std::size_t kGroupCap = 32;
/// The grouped ingress reads the stream this many packets at a time into
/// a prefetch buffer and delivers each group straight from it.
inline constexpr std::size_t kPrefetch = 8 * kGroupCap;

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
  std::uint64_t seed = 1;  ///< keys every flow's draws (PerFlowDraws)
};

/// Throw std::invalid_argument for a per-flow config no run can honour: a
/// non-finite total_rate_pps (NaN would reach an undefined float-to-time
/// cast, infinity makes every gap 1 ns), a positive rate so small that a
/// gap could overflow sim::Time, a negative duration, or 2^32 - 1 flows
/// or more (flow ids are 32-bit and the arena reserves the top value as
/// its nil link). attach_per_flow() calls it before
/// touching the simulation. A non-positive finite rate is valid: it
/// offers no traffic.
void check_per_flow_config(std::size_t n_flows, const PerFlowSourceConfig& cfg);

/// Flow arrival schedules as a pure function of the seed: draw k of flow f
/// is output k of a SplitMix64 generator seeded with
/// util::mix_seed(cfg.seed, f). Draw 0 gives the phase, draw k the gap
/// after the flow's k-th packet. Nothing comes from the simulation's RNG,
/// so what consumes the packets cannot change them.
class PerFlowDraws {
 public:
  PerFlowDraws(std::size_t n_flows, const PerFlowSourceConfig& cfg);

  double mean_gap_ns() const noexcept { return mean_gap_ns_; }
  /// start plus a uniform offset in [0, mean gap).
  sim::Time phase(std::uint32_t flow) const noexcept {
    return start_ + static_cast<sim::Time>(unit(flow, 0) * mean_gap_ns_);
  }
  /// Exponential or constant with the mean gap, truncated, at least 1 ns.
  sim::Time gap(std::uint32_t flow, std::uint64_t k) const noexcept {
    // 1 - unit lies in (0, 1], so the log is finite.
    const double g = poisson_ ? -mean_gap_ns_ * std::log(1.0 - unit(flow, k)) : mean_gap_ns_;
    return std::max<sim::Time>(1, static_cast<sim::Time>(g));
  }

 private:
  /// Draw `k` of the flow's stream, uniform in [0, 1).
  double unit(std::uint32_t flow, std::uint64_t k) const noexcept {
    const std::uint64_t key = util::splitmix64(seed_mix_ ^ flow);
    const std::uint64_t x = util::splitmix64(key + k * 0x9e3779b97f4a7c15ULL);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::uint64_t seed_mix_;  ///< splitmix64(seed): mix_seed's first step, hoisted
  double mean_gap_ns_;
  sim::Time start_;
  bool poisson_;
};

class PerFlowSourceArena;

/// Install a PerFlowSourceArena for `flows` as the port's ingress; the
/// port owns it, the flow set must outlive the run. Throws as
/// check_per_flow_config, std::invalid_argument when `cfg.start` lies
/// before now (no arrival may be due before the attach), or
/// std::logic_error if the port has an ingress.
PerFlowSourceArena& attach_per_flow(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                                    PerFlowSourceConfig cfg);

/// Per-flow arrival processes as a structure of arrays — five packed
/// lanes, 28 bytes per flow in total, sized exactly (no growth slack at
/// 2^24 flows):
///
///   * rss hash (4 B)       — the precomputed RSS hash, contiguous so the
///                            delivery path touches one dense cache line
///                            per 16 flows instead of a FlowSet stride;
///   * next-fire time (8 B) — the instant of the flow's armed arrival
///                            (kIdle once the flow retires past its end);
///   * draw state (4 B)     — packets this flow has emitted, which is also
///                            the counter of its next gap draw;
///   * seq (8 B)            — the arena's arm counter when the arrival was
///                            armed: it orders arrivals at one instant;
///   * link (4 B)           — the intrusive calendar-chain link.
///
/// The arena is a sim::LazySource: it schedules nothing per arrival.
/// Armed flows wait in a calendar queue (Brown, CACM 31(10), 1988) keyed
/// by (at, seq):
///
///   * buckets a power of two of ns wide, about 8 aggregate arrivals each,
///     with enough of them to cover about 8 mean per-flow gaps — both
///     derived from the flow count and the rate; each bucket is an
///     intrusive chain through the link lane;
///   * an overflow chain for arms beyond that horizon, folded back in when
///     the horizon reaches its earliest entry (or jumped to when the
///     buckets run dry);
///   * a short run of {at, seq, flow} records: the next few non-empty
///     buckets, in (at, seq) order. Its front is due_at(). The chains are
///     walked interleaved, so beyond the LLC the walk pays for several
///     independent cache misses at once instead of one dependent miss per
///     step. An arm that lands before the end of the loaded buckets (rare:
///     a gap shorter than a few buckets) goes straight into the run in
///     order.
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
/// deliver() pops the due run records in order and hands their packets to
/// the port: no coroutine frame, kernel event or allocation per arrival
/// (a parked reader keeps the one armed event of sim::LazySource). The
/// first delivery builds the calendar and arms the phases.
///
/// Equivalence contract: what a reader sees is what one process per flow
/// would leave — arrive at `phase`, then `next += gap` after each packet,
/// until the plan passes start + duration — each arrival a kernel event
/// scheduled at its flow's previous arrival, or at the attach instant for
/// a phase (the `since` rule's schedule instant). Every gap is at least
/// 1 ns, so a flow is never re-armed at the instant it is delivering.
/// tests/test_tgen.cpp holds the arena to that reference
/// (tests/per_flow_oracle.hpp) on either store.
class PerFlowSourceArena final : public sim::LazySource {
 public:
  /// next_fire_at() value of a flow with no armed arrival (retired past
  /// `start + duration`, or not yet bootstrapped).
  static constexpr sim::Time kIdle = -1;

  std::size_t flow_count() const noexcept { return rss_.size(); }
  /// Packets handed to the port so far.
  std::uint64_t fired() const noexcept { return fired_; }
  /// Flows with an arrival armed: 0 before the bootstrap and once every
  /// flow passed `start + duration`.
  std::size_t armed() const noexcept { return armed_; }

  // --- per-flow lane accessors (accounting tests and diagnostics) -------
  // They read the delivered state: an arrival due but not yet delivered
  // still counts as armed.
  /// The armed arrival's instant, or kIdle when the flow retired.
  sim::Time next_fire_at(std::uint32_t flow) const noexcept { return next_at_[flow]; }
  /// Packets this flow emitted (== gap draws it consumed).
  std::uint32_t flow_fired(std::uint32_t flow) const noexcept { return emitted_[flow]; }

  void deliver(sim::Time t, sim::Time since) override;

 private:
  friend PerFlowSourceArena& attach_per_flow(sim::Simulation&, nic::Port&, const FlowSet&,
                                             PerFlowSourceConfig);

  /// One armed arrival in the run. `key` is its refill sort key (load
  /// index and slice; see the class comment); it fills the padding.
  struct Pending {
    sim::Time at;
    std::uint64_t seq;
    std::uint32_t flow;
    std::uint32_t key = 0;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  PerFlowSourceArena(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                     PerFlowSourceConfig cfg);

  bool stay_armed() const override { return port_.has_parked_reader(); }

  void bootstrap();
  /// Hand `flow`'s arrival at `at` to the port, draw the flow's next gap
  /// and re-arm it, or retire it past its end.
  void emit(std::uint32_t flow, sim::Time at);
  /// The `since` rule's schedule instant of a run record.
  sim::Time scheduled_at(const Pending& p) const noexcept;
  /// Arm `flow` at `at`.
  void arm_flow(std::uint32_t flow, sim::Time at);
  /// Chain `flow`, armed in bucket `b >= cur_`, into its ring bucket, or
  /// into overflow when `b` lies past the ring.
  void chain(std::uint32_t flow, std::int64_t b);
  /// Make the run's front the earliest armed arrival and publish it as
  /// due_at().
  void publish_head();
  /// Load the next non-empty buckets into the (empty) run, in order.
  void refill();
  /// Put the freshly loaded run in (at, seq) order. `count` holds each
  /// key's record count; it is overwritten.
  void order_run(std::span<std::uint32_t> count);
  /// Move overflow entries now inside the horizon into their buckets.
  void absorb_overflow();

  nic::Port& port_;
  // The SoA lanes (28 B per flow; see the class comment).
  std::vector<std::uint32_t> rss_;      ///< RSS hash lane
  std::vector<sim::Time> next_at_;      ///< next-fire lane (kIdle = retired)
  std::vector<std::uint32_t> emitted_;  ///< draw-state lane (packets emitted)
  std::vector<std::uint64_t> seq_;      ///< arm counter of the armed arrival
  std::vector<std::uint32_t> link_;     ///< calendar chain link
  PerFlowDraws draws_;
  std::uint16_t wire_size_;
  sim::Time attach_;  ///< construction instant: when the phases were armed
  sim::Time end_ = 0;
  bool booted_ = false;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t next_seq_ = 0;
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
