/// \file event_queue.hpp
/// The pending-event stores of the discrete-event kernel.
///
/// A Simulation (simulation.hpp) picks its store at construction: the
/// data structure that holds every future-timestamped event. Two stores
/// are provided:
///
///   * BinaryHeapBackend — the default. A binary min-heap of 32-byte POD
///     entries with Floyd pops. Best up to a few thousand pending events;
///     its pop cost grows as log n. It is also the order oracle the wheel
///     is tested against.
///   * TimingWheelBackend — a hierarchical timing wheel (the structure OS
///     timer subsystems use): fixed power-of-two slot grids per level,
///     each level covering its parent slot at finer granularity, with a
///     per-level cascade on consumption and an unsorted overflow pool for
///     events beyond the top level's horizon. O(1) insert, and each event
///     cascades at most once per level — built for very large stored
///     populations. The per-flow arrival timers that once made up such
///     populations now live in the arena's own calendar (a lazy source,
///     tgen/feeder.hpp), so no registry scenario keeps more than a handful
///     of events in either store.
///
/// ## Store contract
///
/// Each store is a plain priority queue of EventEntry records with the
/// same operations — push(e), peek(), pop_min() (the last two require
/// !empty()), size(), empty(), for_each(f), erase_if(pred) and clear().
/// It knows nothing of the kernel's callback table and nothing of
/// cancellation — every entry pushed is stored until it is popped or
/// dropped by erase_if(). Two invariants:
///
///   1. **Total order.** peek()/pop_min() yield stored entries in strictly
///      increasing (at, seq) order — the pair is unique, so the order is a
///      total one and runs are bit-for-bit reproducible on either store.
///   2. **Allocation freedom in steady state.** Internal storage may grow
///      while warming up but must be recycled, never released, so that a
///      periodic steady-state workload performs zero heap allocations
///      (enforced by tests/test_alloc_free.cpp for both stores).
///
/// size() counts stored entries. Live accounting belongs to the kernel
/// (simulation.hpp): a cancelled callback stays stored as a *tombstone*
/// until it reaches the front or the kernel purges it with erase_if().
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "stats/trace.hpp"

namespace metro::sim {

/// Discriminates the two event payload flavours carried by EventEntry.
enum class EventKind : std::uint32_t {
  kCoroutine,  ///< payload is a raw coroutine frame address (hot path)
  kCallback    ///< slot indexes the simulation's pooled callback table
};

/// 32-byte POD event record; comparisons and moves stay inside contiguous
/// store storage. What `payload` and `slot` mean depends on the kind:
///
///   * kCoroutine — payload is the frame address; slot is unused.
///   * kCallback  — slot indexes the simulation's callback pool and
///     payload carries that slot's *generation* at scheduling time, which
///     is how the kernel recognises a tombstone (a cancelled slot's
///     generation has been bumped). The only kind that can be cancelled.
struct EventEntry {
  Time at;            ///< absolute virtual timestamp, ns
  std::uint64_t seq;  ///< global insertion sequence; ties broken by it
  void* payload;      ///< coroutine frame or encoded generation
  std::uint32_t slot; ///< kCallback: pool index
  EventKind kind;     ///< payload discriminator
};
static_assert(sizeof(EventEntry) == 32);
static_assert(std::is_trivially_copyable_v<EventEntry>);

/// Strict weak (in fact total) order: earlier time first, then earlier
/// insertion. (at, seq) pairs are unique, so this is the total execution
/// order shared by both stores and the now-FIFO.
inline bool event_precedes(const EventEntry& a, const EventEntry& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

/// Branch-free event_precedes as 0/1. The heap descent picks a child by a
/// data-dependent 50/50 choice; as a conditional branch that is a
/// mispredict every other level and dominates pop cost, so the pick is
/// computed with flag arithmetic instead.
inline std::uint32_t event_precedes_u(const EventEntry& a, const EventEntry& b) noexcept {
  return static_cast<std::uint32_t>(
      static_cast<unsigned>(a.at < b.at) |
      (static_cast<unsigned>(a.at == b.at) & static_cast<unsigned>(a.seq < b.seq)));
}

// ---------------------------------------------------------------------------
// Binary heap backend (default)
// ---------------------------------------------------------------------------

/// Binary min-heap over (at, seq) with Floyd pops and a branch-free
/// descent.
class BinaryHeapBackend {
 public:
  /// Insert an entry; O(log n).
  void push(const EventEntry& e) {
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), e);
  }

  /// The minimum. Precondition: !empty().
  const EventEntry& peek() const noexcept { return heap_[0]; }

  /// Remove the minimum (Floyd's optimisation): percolate the hole to the
  /// bottom choosing the smaller child — one compare per level instead of
  /// two — then bubble the displaced last element up. In an event queue
  /// the last element is almost always late, so the bubble-up is O(1).
  void pop_min() {
    const EventEntry last = heap_.back();
    heap_.pop_back();
    const auto n = static_cast<std::uint32_t>(heap_.size());
    if (n == 0) return;
    std::uint32_t pos = 0;
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      // Branch-free smaller-child pick; when there is no right child this
      // compares the left child against itself (false), which is safe.
      const auto has_right = static_cast<std::uint32_t>(child + 1 < n);
      child += has_right & event_precedes_u(heap_[child + has_right], heap_[child]);
      heap_[pos] = heap_[child];
      pos = child;
    }
    sift_up(pos, last);
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  /// Visit every stored entry (pending-event cleanup on destruction).
  template <typename F>
  void for_each(F f) const {
    for (const EventEntry& e : heap_) f(e);
  }

  /// Drop every entry matching `pred`, then re-heapify; O(n).
  template <typename Pred>
  void erase_if(Pred pred) {
    std::erase_if(heap_, pred);
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const EventEntry& a, const EventEntry& b) { return event_precedes(b, a); });
  }

  void clear() { heap_.clear(); }

 private:
  /// Move `e` up from the hole at `pos` to its final position.
  void sift_up(std::uint32_t pos, const EventEntry& e) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!event_precedes(e, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = e;
  }

  std::vector<EventEntry> heap_;
};

// ---------------------------------------------------------------------------
// Hierarchical timing-wheel backend
// ---------------------------------------------------------------------------

/// Geometry of the TimingWheelBackend. The defaults give five levels of
/// 256 slots over a 1.024 us base tick — a ~13-day horizon before the
/// overflow pool kicks in, with per-slot resolution fine enough that a
/// level-0 slot holds only a handful of events even at 40 Mpps.
struct WheelConfig {
  /// log2(slots per level); every level has `1 << slot_bits` slots.
  std::uint32_t slot_bits = 8;
  /// log2(level-0 slot width in ns): the wheel's base tick.
  std::uint32_t tick_shift = 10;
  /// Hierarchy depth; level k slots are `1 << (tick_shift + k*slot_bits)`
  /// ns wide. Events beyond level `levels - 1`'s horizon go to overflow.
  std::uint32_t levels = 5;
};

/// Hierarchical timing wheel tuned for very large pending populations of
/// mostly near-future timers.
///
/// Structure (coarsest at the top):
///
///     overflow — unsorted pool for events at/after `overflow_floor_`
///                (beyond the top level's horizon this epoch)
///     levels   — `cfg.levels` wheels of `1 << cfg.slot_bits` slots each;
///                level k slots are `1 << (tick_shift + k*slot_bits)` ns
///                wide and one level-(k+1) slot covers a whole level-k wheel
///     bottom   — the already-consumed-slot range, kept sorted by (at, seq)
///
/// An insert hashes the timestamp into the lowest level whose window still
/// covers it — O(1), no comparisons. Consumption advances a per-level
/// cursor of *absolute* slot indices: the next non-empty level-0 slot
/// (found through per-level occupancy bitmaps) is sorted into bottom;
/// when level 0 is exhausted up to a level-1 slot boundary, that level-1
/// slot *cascades* — its entries are redistributed one level down — and so
/// on up the hierarchy. Each event is therefore touched at most once per
/// level plus one bounded sort, independent of how many are pending.
///
/// The overflow pool opens a new *epoch* when the wheels drain: cursors
/// re-base at the overflow minimum and the pool is repartitioned.
/// `overflow_floor_` is latched per epoch so
/// every stored wheel entry is strictly earlier than every overflow entry
/// — that is what makes the (at, seq) order total across the split. All
/// horizon arithmetic saturates at the Time maximum, so timestamps near
/// INT64_MAX roll through overflow epochs instead of overflowing.
///
/// Steady-state allocation freedom: slot vectors are pooled per (level,
/// slot) — cleared on consumption, never shrunk — and bottom/overflow/
/// scratch recycle their capacity, so a periodic workload stops
/// allocating once every container has seen its peak.
class TimingWheelBackend {
 public:
  /// Default geometry (WheelConfig defaults).
  TimingWheelBackend() : TimingWheelBackend(WheelConfig{}) {}
  /// Custom geometry. Degenerate or overflowing grids are rejected loudly
  /// in every build type (a Release assert would vanish): the top
  /// level's slot width must still fit in
  /// the non-negative Time range.
  explicit TimingWheelBackend(const WheelConfig& cfg) : cfg_(cfg) {
    if (cfg.slot_bits < 1 || cfg.slot_bits > 20 || cfg.levels < 1 || cfg.levels > 16 ||
        cfg.tick_shift + cfg.levels * cfg.slot_bits > 62) {
      throw std::invalid_argument(
          "WheelConfig: need 1 <= slot_bits <= 20, 1 <= levels <= 16 and "
          "tick_shift + levels*slot_bits <= 62");
    }
    slots_per_level_ = 1u << cfg.slot_bits;
    mask_ = slots_per_level_ - 1;
    words_per_level_ = (slots_per_level_ + 63) / 64;
    slots_.resize(static_cast<std::size_t>(cfg.levels) * slots_per_level_);
    bits_.assign(static_cast<std::size_t>(cfg.levels) * words_per_level_, 0);
    cur_.assign(cfg.levels, 0);
    overflow_floor_ = sat_shl(slots_per_level_, shift(cfg.levels - 1));
  }

  /// The geometry this instance runs with.
  const WheelConfig& config() const noexcept { return cfg_; }

  /// Insert an entry: O(1) slot hash, or a bounded sorted insert into
  /// bottom for timestamps behind the consumption floor.
  void push(const EventEntry& e) {
    ++stored_;
    if (e.at >= overflow_floor_) {
      overflow_.push_back(e);
      return;
    }
    if (e.at < floor_) {
      insert_bottom(e);
      return;
    }
    place_in_wheel(e);
  }

  /// The minimum. Precondition: !empty().
  const EventEntry& peek() {
    ensure_bottom();
    return bottom_[bottom_head_];
  }

  /// Remove the minimum. Precondition: !empty().
  void pop_min() {
    ensure_bottom();
    --stored_;
    if (++bottom_head_ == bottom_.size()) {
      bottom_.clear();  // recycle capacity, never shrink
      bottom_head_ = 0;
    }
  }

  std::size_t size() const noexcept { return stored_; }
  bool empty() const noexcept { return stored_ == 0; }

  /// Visit every stored entry (pending-event cleanup on destruction).
  template <typename F>
  void for_each(F f) const {
    for (std::size_t i = bottom_head_; i < bottom_.size(); ++i) f(bottom_[i]);
    for (const auto& slot : slots_) {
      for (const EventEntry& e : slot) f(e);
    }
    for (const EventEntry& e : overflow_) f(e);
  }

  void clear() {
    bottom_.clear();
    bottom_head_ = 0;
    for (auto& slot : slots_) slot.clear();  // keep capacities
    std::fill(bits_.begin(), bits_.end(), 0);
    std::fill(cur_.begin(), cur_.end(), std::int64_t{0});
    floor_ = 0;
    overflow_.clear();
    overflow_floor_ = sat_shl(slots_per_level_, shift(cfg_.levels - 1));
    stored_ = 0;
  }

  /// Drop every entry matching `pred`, visiting only occupied slots (by
  /// their bits); a slot left empty loses its bit.
  template <typename Pred>
  void erase_if(Pred pred) {
    bottom_.erase(bottom_.begin(), bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
    std::size_t n = std::erase_if(bottom_, pred) + std::erase_if(overflow_, pred);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      const std::size_t first = i / words_per_level_ * slots_per_level_ + i % words_per_level_ * 64;
      for (std::uint64_t occupied = bits_[i]; occupied != 0; occupied &= occupied - 1) {
        const int bit = std::countr_zero(occupied);
        n += std::erase_if(slots_[first + bit], pred);
        if (slots_[first + bit].empty()) bits_[i] &= ~(std::uint64_t{1} << bit);
      }
    }
    stored_ -= n;
  }

  // --- observability (tests and the bench probe these) --------------------

  /// Non-empty slots at `level`.
  std::uint32_t occupancy(std::uint32_t level) const noexcept {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < words_per_level_; ++w) {
      n += static_cast<std::uint32_t>(std::popcount(bits_[level * words_per_level_ + w]));
    }
    return n;
  }
  /// Start of this epoch's overflow region (beyond the top horizon).
  Time overflow_floor() const noexcept { return overflow_floor_; }
  /// Entries in the overflow pool.
  std::size_t overflow_stored() const noexcept { return overflow_.size(); }

  /// Attach a trace recorder for structural events (cascade, epoch rebase).
  void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }

 private:
  /// v << s, saturated at the Time maximum (epoch arithmetic near
  /// INT64_MAX must clamp, not overflow). v is a non-negative slot index.
  static Time sat_shl(std::int64_t v, std::uint32_t s) noexcept {
    return v > (INT64_MAX >> s) ? INT64_MAX : (v << s);
  }

  std::uint32_t shift(std::uint32_t level) const noexcept {
    return cfg_.tick_shift + level * cfg_.slot_bits;
  }
  /// Absolute (non-wrapped) slot index of `at` on `level`.
  std::int64_t slot_of(Time at, std::uint32_t level) const noexcept {
    return at >> shift(level);
  }
  std::vector<EventEntry>& slot_ref(std::uint32_t level, std::int64_t abs_slot) noexcept {
    return slots_[static_cast<std::size_t>(level) * slots_per_level_ +
                  (static_cast<std::uint64_t>(abs_slot) & mask_)];
  }
  void set_bit(std::uint32_t level, std::int64_t abs_slot) noexcept {
    const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(abs_slot) & mask_);
    bits_[level * words_per_level_ + (p >> 6)] |= std::uint64_t{1} << (p & 63);
  }
  void clear_bit(std::uint32_t level, std::int64_t abs_slot) noexcept {
    const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(abs_slot) & mask_);
    bits_[level * words_per_level_ + (p >> 6)] &= ~(std::uint64_t{1} << (p & 63));
  }

  /// Drop an entry into the lowest level whose current window covers it.
  /// Levels are windows of `slots_per_level_` *absolute* slot indices
  /// starting at the level cursor, so the hash is wrap-free: one physical
  /// slot maps to exactly one absolute slot of the window. Returns false
  /// when no window fits (only possible at/above the overflow floor).
  bool try_place(const EventEntry& e) {
    for (std::uint32_t k = 0; k < cfg_.levels; ++k) {
      const std::int64_t s = slot_of(e.at, k);
      if (static_cast<std::uint64_t>(s - cur_[k]) < slots_per_level_) {
        slot_ref(k, s).push_back(e);
        set_bit(k, s);
        return true;
      }
    }
    return false;
  }

  void place_in_wheel(const EventEntry& e) {
    if (try_place(e)) return;
    // Unreachable while the routing invariants hold: every at below
    // overflow_floor_ lands in the top level's window at the latest.
    assert(false && "timing-wheel routing gap");
    overflow_.push_back(e);
  }

  void insert_bottom(const EventEntry& e) {
    const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
    const auto pos = std::upper_bound(first, bottom_.end(), e,
                                      [](const EventEntry& a, const EventEntry& b) {
                                        return event_precedes(a, b);
                                      });
    bottom_.insert(pos, e);
  }

  /// First non-empty absolute slot of `level` in [from, to), or -1. The
  /// range never exceeds one wheel revolution, so physical slots in it are
  /// alias-free; the occupancy bitmap turns the scan into a handful of
  /// word tests.
  std::int64_t find_slot(std::uint32_t level, std::int64_t from, std::int64_t to) const
      noexcept {
    std::int64_t a = from;
    while (a < to) {
      const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(a) & mask_);
      const std::uint64_t word = bits_[level * words_per_level_ + (p >> 6)] >> (p & 63);
      // Clamp each step at the word boundary *and* the physical ring end:
      // for geometries narrower than one word the ring wraps mid-word, and
      // bits past `slots_per_level_` are dead — stepping over them would
      // skip the wrapped slots entirely.
      const std::int64_t span =
          std::min({std::int64_t{64} - (p & 63), to - a,
                    static_cast<std::int64_t>(slots_per_level_ - p)});
      if (word != 0) {
        const int tz = std::countr_zero(word);
        if (tz < span) return a + tz;
      }
      a += span;
    }
    return -1;
  }

  /// Refill bottom if it is drained, so that its front is the global
  /// minimum. Precondition: stored_ > 0.
  void ensure_bottom() {
    if (bottom_head_ == bottom_.size()) refill_bottom();
  }

  /// Consume the next non-empty level-0 slot into bottom, cascading
  /// higher levels (and re-basing from overflow) as needed. Each pass
  /// either consumes a level-0 slot, cascades one coarse slot a level
  /// down, or drains overflow, so progress is guaranteed while stored_ > 0.
  void refill_bottom() {
    for (;;) {
      // Top-down pass: level k searches [cur_[k], cap). The cap is the
      // first non-empty slot of the level above scaled down — content
      // under an *empty* parent slot needs no cascade, so the scan may
      // run past the parent cursor — and is additionally clamped to one
      // revolution: stored entries always sit within `slots_per_level_`
      // of their cursor, so clamped ranges are alias-free in the
      // physical slot array. The lowest level that finds a slot wins.
      std::int64_t limit = cur_[cfg_.levels - 1] + slots_per_level_;
      std::uint32_t clevel = 0;
      std::int64_t cslot = -1;
      for (std::uint32_t k = cfg_.levels; k-- > 1;) {
        const std::int64_t cap =
            std::min<std::int64_t>(limit, cur_[k] + slots_per_level_);
        const std::int64_t s = find_slot(k, cur_[k], cap);
        if (s >= 0) {
          clevel = k;
          cslot = s;
          limit = s;
        }
        limit = sat_shl(limit, cfg_.slot_bits);
      }
      const std::int64_t cap0 =
          std::min<std::int64_t>(limit, cur_[0] + slots_per_level_);
      const std::int64_t s0 = find_slot(0, cur_[0], cap0);
      if (s0 >= 0) {
        // s0 fires before every coarse slot found above: consume it.
        auto& slot = slot_ref(0, s0);
        sort_into_bottom(slot);
        slot.clear();  // recycle capacity
        clear_bit(0, s0);
        floor_ = sat_shl(s0 + 1, cfg_.tick_shift);
        // Pull every cursor up to the new floor so push windows track
        // time; slots strictly below the floor are empty at every level.
        for (std::uint32_t k = 0; k < cfg_.levels; ++k) {
          cur_[k] = std::max(cur_[k], slot_of(floor_, k));
        }
        return;
      }
      if (cslot >= 0) {
        // No level-0 slot fires before the lowest found coarse slot:
        // cascade it one level down and rescan. Lower cursors jump to
        // the slot's left edge (never backward) — the skipped range was
        // just verified empty at every level below.
        for (std::uint32_t j = 0; j < clevel; ++j) {
          cur_[j] = std::max(cur_[j], sat_shl(cslot, (clevel - j) * cfg_.slot_bits));
        }
        floor_ = std::max(floor_, sat_shl(cur_[0], cfg_.tick_shift));
        auto& slot = slot_ref(clevel, cslot);
        if (tracer_ != nullptr) [[unlikely]] {
          tracer_->instant(trace::id::kWheelCascade, sat_shl(cslot, shift(clevel)),
                           slot.size(), 0, clevel);
        }
        for (const EventEntry& e : slot) {
          const std::int64_t down = slot_of(e.at, clevel - 1);
          assert(static_cast<std::uint64_t>(down - cur_[clevel - 1]) < slots_per_level_);
          slot_ref(clevel - 1, down).push_back(e);
          set_bit(clevel - 1, down);
        }
        slot.clear();  // recycle capacity
        clear_bit(clevel, cslot);
        cur_[clevel] = cslot + 1;
        continue;
      }
      // Wheels fully drained: open the next epoch from overflow.
      assert(!overflow_.empty() && "stored_ > 0 but no entries stored");
      rebase_from_overflow();
    }
  }

  /// Move one consumed level-0 slot into bottom, sorted by the total
  /// (at, seq) order.
  void sort_into_bottom(const std::vector<EventEntry>& slot) {
    assert(bottom_.empty() && bottom_head_ == 0);
    bottom_.insert(bottom_.end(), slot.begin(), slot.end());
    std::sort(bottom_.begin(), bottom_.end(),
              [](const EventEntry& a, const EventEntry& b) { return event_precedes(a, b); });
  }

  /// Open a new epoch at the overflow minimum: re-base every cursor,
  /// re-latch overflow_floor_ to the new top horizon and repartition the
  /// pool — entries inside the horizon drop into the wheels, the rest
  /// stay in overflow. Precondition: bottom and all wheels are empty.
  void rebase_from_overflow() {
    Time lo = INT64_MAX;
    for (const EventEntry& e : overflow_) lo = std::min(lo, e.at);
    if (tracer_ != nullptr) [[unlikely]] {
      tracer_->instant(trace::id::kWheelEpoch, lo, overflow_.size());
    }
    for (std::uint32_t k = 0; k < cfg_.levels; ++k) cur_[k] = slot_of(lo, k);
    floor_ = sat_shl(cur_[0], cfg_.tick_shift);
    overflow_floor_ = sat_shl(cur_[cfg_.levels - 1] + slots_per_level_,
                              shift(cfg_.levels - 1));
    scratch_.swap(overflow_);
    overflow_.clear();
    // Partition by fit rather than by the floor compare: when the new
    // horizon saturates at the Time maximum, entries *at* the maximum
    // must enter the wheels (they fit the re-based windows) or the pool
    // would cycle forever.
    for (const EventEntry& e : scratch_) {
      if (!try_place(e)) overflow_.push_back(e);
    }
    scratch_.clear();  // recycle capacity
  }

  WheelConfig cfg_{};
  std::uint32_t slots_per_level_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t words_per_level_ = 0;
  std::vector<std::vector<EventEntry>> slots_;  // pooled, levels * slots flat
  std::vector<std::uint64_t> bits_;             // per-level occupancy bitmaps
  std::vector<std::int64_t> cur_;  // per-level absolute slot cursors
  Time floor_ = 0;                 // bottom/wheel split: below it -> bottom
  std::vector<EventEntry> bottom_;  // sorted; consumed from bottom_head_
  std::size_t bottom_head_ = 0;
  std::vector<EventEntry> overflow_;  // unsorted beyond-horizon pool
  Time overflow_floor_ = 0;  // latched per epoch; entries at/after it -> overflow
  std::vector<EventEntry> scratch_;  // detached pool during a rebase
  std::size_t stored_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace metro::sim
