#include "tgen/feeder.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace metro::tgen {

namespace {

/// The grouped ingress behind attach(): the port's lazy arrival stream
/// (see the file comment). No coroutine and no kernel event per group:
/// the next group is the range [group_, group_end_) of the prefetch
/// buffer, `due_at_` its instant, and deliver() hands every due group to
/// Port::rx_burst in order, straight from the buffer.
class GroupedIngress final : public sim::LazySource {
 public:
  GroupedIngress(sim::Simulation& sim, nic::Port& port, Generator& gen)
      : LazySource(sim), port_(port), gen_(gen), sched_(sim.now()) {
    // The first top-up grows the buffer to kPrefetch; erase() keeps that
    // capacity, so later top-ups do not allocate.
    next_group();
  }

  void deliver(sim::Time t, sim::Time since) override {
    while (due_at() < t || (due_at() == t && sched_ < since)) {
      port_.rx_burst(buf_.data() + group_, static_cast<int>(group_end_ - group_));
      // An eager feeder schedules the next group's event while it delivers
      // this one.
      sched_ = std::max(sched_, due_at());
      next_group();
    }
  }

 private:
  /// The armed event stays armed while a reader is still parked (its ring
  /// got nothing from this group).
  bool stay_armed() const override { return port_.has_parked_reader(); }

  /// Make the next group current: the packets within kGroupWindow of its
  /// first one, at most kGroupCap of them. Before grouping, the buffer is
  /// topped up so it holds the group and the one packet after it, which
  /// decides where the group ends; only a stream that has run dry can
  /// leave it shorter.
  void next_group() {
    group_ = group_end_;
    if (buf_.size() - group_ <= kGroupCap) top_up();
    if (group_ == buf_.size()) {
      set_due(kNever);
      return;
    }
    const std::size_t cap_end = std::min(buf_.size(), group_ + kGroupCap);
    const sim::Time window_end = buf_[group_].arrival + kGroupWindow;
    group_end_ = group_ + 1;
    while (group_end_ < cap_end && buf_[group_end_].arrival <= window_end) ++group_end_;
    // Visible when its last packet has arrived on the wire.
    set_due(buf_[group_end_ - 1].arrival);
  }

  /// Move the unread tail to the front and refill the buffer behind it.
  /// next_batch() draws the exact next() stream from the generator's own
  /// RNG, so how far ahead the buffer reads is not observable.
  void top_up() {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(group_));
    group_ = 0;
    group_end_ = 0;
    while (buf_.size() < kPrefetch && gen_.next_batch(buf_, kPrefetch - buf_.size()) > 0) {
    }
  }

  nic::Port& port_;
  Generator& gen_;
  std::vector<nic::PacketDesc> buf_;  ///< prefetched packets, kPrefetch at most
  std::size_t group_ = 0;             ///< the current group: [group_, group_end_)
  std::size_t group_end_ = 0;
  /// When an eager feeder would have scheduled the next group's event:
  /// the previous group's instant, or the attach instant for the first.
  sim::Time sched_;
};

}  // namespace

void check_per_flow_config(std::size_t n_flows, const PerFlowSourceConfig& cfg) {
  if (!std::isfinite(cfg.total_rate_pps)) {
    throw std::invalid_argument("per-flow sources: total_rate_pps must be finite");
  }
  if (cfg.duration < 0) {
    throw std::invalid_argument("per-flow sources: duration must not be negative");
  }
  if (n_flows >= 0xffffffffu) {
    throw std::invalid_argument("per-flow sources: at most 2^32 - 2 flows");
  }
  // The longest gap a draw gives is 53 ln 2 (under 37) mean gaps.
  const double longest_gap_ns = 37e9 * static_cast<double>(n_flows) / cfg.total_rate_pps;
  if (cfg.total_rate_pps > 0.0 && longest_gap_ns >= 0x1p63) {
    throw std::invalid_argument("per-flow sources: total_rate_pps too small for its gaps to fit");
  }
}

void attach(sim::Simulation& sim, nic::Port& port, Generator& gen) {
  port.set_ingress(std::make_unique<GroupedIngress>(sim, port, gen));
}

PerFlowDraws::PerFlowDraws(std::size_t n_flows, const PerFlowSourceConfig& cfg)
    : seed_mix_(util::splitmix64(cfg.seed)),
      mean_gap_ns_(1e9 * static_cast<double>(n_flows) / cfg.total_rate_pps),
      start_(cfg.start),
      poisson_(cfg.poisson) {}

PerFlowSourceArena& attach_per_flow(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                                    PerFlowSourceConfig cfg) {
  check_per_flow_config(flows.size(), cfg);
  if (cfg.start < sim.now()) {
    throw std::invalid_argument("per-flow sources: start must not lie before the attach instant");
  }
  std::unique_ptr<PerFlowSourceArena> arena(new PerFlowSourceArena(sim, port, flows, cfg));
  PerFlowSourceArena& ref = *arena;
  port.set_ingress(std::move(arena));
  return ref;
}

namespace {

/// Calendar geometry targets: about this many aggregate arrivals per
/// bucket, and a horizon of about this many mean per-flow gaps (an
/// exponential gap overflows it with probability e^-8).
constexpr double kArrivalsPerBucket = 8.0;
constexpr double kHorizonGaps = 8.0;
/// Bucket width and ring size caps: 2^40 ns is 18 minutes, and the ring
/// never needs more buckets than flows.
constexpr std::uint32_t kMaxShift = 40;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 24;
/// A refill loads at most this many non-empty buckets and walks their
/// chains interleaved...
constexpr std::size_t kRefillBuckets = 4;
/// ...and, once it has one, scans at most this many buckets looking for
/// more, so a sparse ring does not push the run far ahead of time.
constexpr std::int64_t kRefillScan = 16;
/// Initial run capacity (records); a refill of kRefillBuckets buckets
/// holds ~38 (perflow_24k).
constexpr std::size_t kRunReserve = 256;
/// A refill keys each record by the 1/2^kSubBits slice of its bucket...
constexpr std::uint32_t kSubBits = 4;
constexpr std::size_t kRefillKeys = kRefillBuckets << kSubBits;
/// ...and falls back to std::sort when a slice holds more records than
/// this: an insertion pass over a crowded slice would be quadratic.
constexpr std::uint32_t kSliceCap = 16;

/// The calendar's total order on run records.
constexpr auto earlier = [](const auto& a, const auto& b) noexcept {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
};

}  // namespace

PerFlowSourceArena::PerFlowSourceArena(sim::Simulation& sim, nic::Port& port,
                                       const FlowSet& flows, PerFlowSourceConfig cfg)
    : LazySource(sim),
      port_(port),
      draws_(flows.size(), cfg),
      wire_size_(cfg.wire_size),
      attach_(sim.now()),
      end_(cfg.start + cfg.duration) {
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
  // The bootstrap is the first effect, at the attach instant: the first
  // delivery, not the attach, pays for the calendar and the phase draws.
  set_due(attach_);
}

void PerFlowSourceArena::bootstrap() {
  booted_ = true;
  const auto n = static_cast<std::uint32_t>(rss_.size());
  const double mean_gap = draws_.mean_gap_ns();
  // The calendar. Bucket width: the power of two of ns at or above
  // kArrivalsPerBucket aggregate gaps...
  const double width = std::ceil(kArrivalsPerBucket * mean_gap / n);
  shift_ = width >= std::ldexp(1.0, kMaxShift)
               ? kMaxShift
               : static_cast<std::uint32_t>(std::bit_width(static_cast<std::uint64_t>(width) - 1));
  // ...and a power-of-two ring of buckets spanning kHorizonGaps mean
  // per-flow gaps.
  const double span = std::ceil(kHorizonGaps * mean_gap / std::ldexp(1.0, shift_));
  const std::size_t max_buckets = std::min(kMaxBuckets, std::bit_ceil(rss_.size()));
  heads_.assign(
      std::bit_ceil(static_cast<std::size_t>(std::clamp(span, 1.0, static_cast<double>(max_buckets)))),
      kNil);
  cur_ = attach_ >> shift_;
  seq_.resize(n);
  link_.resize(n);
  run_.reserve(std::min<std::size_t>(n, kRunReserve));
  scatter_.reserve(run_.capacity());
  // One sequential pass arms the phases in flow order, the order one
  // process per flow would arm them in; a phase past the end never arrives.
  for (std::uint32_t f = 0; f < n; ++f) {
    if (const sim::Time phase = draws_.phase(f); phase <= end_) arm_flow(f, phase);
  }
  publish_head();
}

void PerFlowSourceArena::arm_flow(std::uint32_t flow, sim::Time at) {
  const std::uint64_t seq = next_seq_++;
  next_at_[flow] = at;
  seq_[flow] = seq;
  ++armed_;
  const std::int64_t b = at >> shift_;
  if (b < cur_) {
    // Behind the loaded buckets: straight into the run. The new seq is the
    // largest taken so far, so it goes after every equal `at`.
    const auto pos = std::upper_bound(
        run_.begin() + static_cast<std::ptrdiff_t>(run_head_), run_.end(), at,
        [](sim::Time v, const Pending& p) { return v < p.at; });
    run_.insert(pos, Pending{at, seq, flow});
  } else {
    chain(flow, b);
  }
}

void PerFlowSourceArena::chain(std::uint32_t flow, std::int64_t b) {
  if (b - cur_ < static_cast<std::int64_t>(heads_.size())) {
    std::uint32_t& head = heads_[static_cast<std::size_t>(b) & (heads_.size() - 1)];
    link_[flow] = head;
    head = flow;
    ++in_buckets_;
  } else {
    link_[flow] = overflow_;
    overflow_ = flow;
    overflow_min_ = std::min(overflow_min_, b);
  }
}

void PerFlowSourceArena::publish_head() {
  if (run_head_ == run_.size() && armed_ != 0) refill();
  set_due(run_head_ == run_.size() ? kNever : run_[run_head_].at);
}

void PerFlowSourceArena::absorb_overflow() {
  std::uint32_t f = overflow_;
  overflow_ = kNil;
  overflow_min_ = INT64_MAX;
  while (f != kNil) {
    const std::uint32_t next = link_[f];
    chain(f, next_at_[f] >> shift_);
    f = next;
  }
}

void PerFlowSourceArena::refill() {
  run_.clear();
  run_head_ = 0;
  const auto ring = static_cast<std::int64_t>(heads_.size());
  if (overflow_ != kNil && overflow_min_ - cur_ < ring) absorb_overflow();
  if (in_buckets_ == 0) {
    // The ring is empty: jump to the earliest overflow bucket. Every
    // overflow entry is at or past it, so the ring window starts there.
    cur_ = overflow_min_;
    absorb_overflow();
  }
  // Take up to kRefillBuckets non-empty buckets, stopping at the horizon
  // (every chained flow sits before it) or a short scan past the first.
  // Each keeps its load index, pre-shifted into the key's high bits.
  std::uint32_t chains[kRefillBuckets];
  std::uint32_t bases[kRefillBuckets];
  std::size_t live = 0;
  const std::int64_t horizon = cur_ + ring;
  for (std::int64_t scanned = 0; live < kRefillBuckets && cur_ < horizon; ++scanned) {
    if (live != 0 && scanned >= kRefillScan) break;
    std::uint32_t& head = heads_[static_cast<std::size_t>(cur_++) & (heads_.size() - 1)];
    if (head != kNil) {
      bases[live] = static_cast<std::uint32_t>(live) << kSubBits;
      chains[live++] = head;
      head = kNil;
    }
  }
  const std::size_t keys = live << kSubBits;
  // Walk the chains round-robin: each step's three lane loads for one
  // chain do not depend on the other chains' loads. Key and count each
  // record on the way: its bucket's load index, then the slice of the
  // bucket its arrival falls in.
  const sim::Time in_bucket = (sim::Time{1} << shift_) - 1;
  std::uint32_t count[kRefillKeys] = {};
  while (live != 0) {
    for (std::size_t i = 0; i < live;) {
      const std::uint32_t f = chains[i];
      const sim::Time at = next_at_[f];
      const auto key =
          bases[i] | static_cast<std::uint32_t>(((at & in_bucket) << kSubBits) >> shift_);
      ++count[key];
      run_.push_back(Pending{at, seq_[f], f, key});
      chains[i] = link_[f];
      if (chains[i] == kNil) {
        --live;
        chains[i] = chains[live];
        bases[i] = bases[live];
      } else {
        ++i;
      }
    }
  }
  in_buckets_ -= run_.size();
  order_run(std::span(count, keys));
  assert(std::is_sorted(run_.begin(), run_.end(), earlier));
}

void PerFlowSourceArena::order_run(std::span<std::uint32_t> count) {
  // Counts to start offsets, unless a slice is crowded.
  std::uint32_t start = 0;
  for (std::uint32_t& c : count) {
    if (c > kSliceCap) {
      std::sort(run_.begin(), run_.end(), earlier);
      return;
    }
    start += std::exchange(c, start);
  }
  // Scatter by key (stable) into the second buffer and swap: every
  // inversion left lies inside one slice...
  scatter_.resize(run_.size());
  for (const Pending& p : run_) scatter_[count[p.key]++] = p;
  run_.swap(scatter_);
  // ...so the insertion pass that decides the order rarely moves a record.
  for (std::size_t i = 1; i < run_.size(); ++i) {
    if (!earlier(run_[i], run_[i - 1])) continue;
    const Pending p = run_[i];
    std::size_t j = i;
    do {
      run_[j] = run_[j - 1];
    } while (--j != 0 && earlier(p, run_[j - 1]));
    run_[j] = p;
  }
}

void PerFlowSourceArena::deliver(sim::Time t, sim::Time since) {
  if (!booted_) bootstrap();
  while (due_at() < t ||
         (due_at() == t && (since == kNever || scheduled_at(run_[run_head_]) < since))) {
    const Pending p = run_[run_head_++];
    if (run_head_ + 1 < run_.size()) {
      // Two arrivals ahead: start pulling that flow's read lanes in (past
      // the LLC at the 4M+ rungs, each is a cold line).
      const std::uint32_t ahead = run_[run_head_ + 1].flow;
      __builtin_prefetch(&rss_[ahead]);
      __builtin_prefetch(&emitted_[ahead], 1);
    }
    emit(p.flow, p.at);
    publish_head();
  }
}

sim::Time PerFlowSourceArena::scheduled_at(const Pending& p) const noexcept {
  // Arrival k was armed by arrival k - 1, at its instant (the current one
  // less gap k); a phase was armed at the attach instant.
  const std::uint32_t k = emitted_[p.flow];
  return k == 0 ? attach_ : next_at_[p.flow] - draws_.gap(p.flow, k);
}

void PerFlowSourceArena::emit(std::uint32_t flow, sim::Time at) {
  // Touches only the flow's lane entries (rss read, draw-state bump,
  // next-fire/seq/link writes) plus the run — no neighbouring flow state
  // comes into the working set.
  --armed_;
  nic::PacketDesc pkt;
  pkt.flow_id = flow;
  pkt.rss_hash = rss_[flow];
  pkt.wire_size = wire_size_;
  pkt.arrival = at;
  port_.rx(pkt);
  ++fired_;
  // Every gap is at least 1 ns, so the next arrival is always later.
  const sim::Time next = at + draws_.gap(flow, ++emitted_[flow]);
  if (next > end_) {
    next_at_[flow] = kIdle;  // retired: planned past the end
  } else {
    arm_flow(flow, next);
  }
}

}  // namespace metro::tgen
