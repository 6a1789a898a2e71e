// Timing-wheel store edge cases.
//
// The hierarchical timing wheel (src/sim/event_queue.hpp) hashes events
// into per-level slot grids, cascades a coarse slot one level down when
// the finer wheel drains past its boundary, keeps far-future events in an
// unsorted overflow pool and re-bases all cursors when the wheels empty
// (an epoch rollover). These tests drive exactly the transitions where a
// hashed structure can lose the total (at, seq) order — per-level
// cascades, same-tick floods, cancels surfacing as tombstones, overflow
// epochs, cursor arithmetic saturating near the clock limit — and compare
// every firing against the binary heap running the identical script.
//
// This suite lives in its own test binary (metro_wheel_test): the
// randomized mirrors are the longest-running unit tests in the tree, and
// a dedicated binary gets its own ctest TIMEOUT instead of eating into
// metro_tests' budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/seed_mix.hpp"

namespace metro::sim {
namespace {

using Firing = std::pair<Time, int>;  // (virtual time, event tag)

/// A deliberately tiny geometry: 4-slot levels, 16 ns base tick, 3 levels
/// (1024 ns total horizon). Scripts spanning microseconds force constant
/// cascading and several overflow epochs — the machinery a default-sized
/// wheel would only reach after days of virtual time.
WheelConfig tiny_geometry() {
  WheelConfig cfg;
  cfg.slot_bits = 2;
  cfg.tick_shift = 4;
  cfg.levels = 3;
  return cfg;
}

/// Run `script(sim, trace)` to completion on `sim` and return every
/// firing in execution order.
template <typename Script>
std::vector<Firing> run_trace(Simulation&& sim, Script script) {
  std::vector<Firing> trace;
  script(sim, trace);
  sim.run();
  EXPECT_TRUE(sim.idle());
  return trace;
}

/// The heap store is the oracle: identical scripts must produce
/// bit-identical traces on the wheel — under the default geometry and
/// under the tiny cascade-heavy one.
template <typename Script>
void expect_heap_agrees(Script script) {
  const auto heap = run_trace(Simulation(1), script);
  EXPECT_EQ(heap, run_trace(Simulation(1, TimingWheelBackend{}), script));
  EXPECT_EQ(heap, run_trace(Simulation(1, TimingWheelBackend(tiny_geometry())), script));
  EXPECT_FALSE(heap.empty());
}

/// Coverage counters for the wheel machinery a script engages: the peak
/// per-level slot occupancy (a non-zero upper level means events really
/// were parked coarse and cascaded down) and how often the overflow floor
/// moved (one change per epoch re-base). A sampling callback rides along
/// with the script; it does not touch the trace.
struct WheelStats {
  std::vector<unsigned> max_occupancy;  // one entry per level
  unsigned epoch_changes = 0;
};

template <typename Script>
WheelStats wheel_stats_during(Script script, const WheelConfig& cfg) {
  Simulation sim(1, TimingWheelBackend(cfg));
  std::vector<Firing> trace;
  WheelStats stats;
  stats.max_occupancy.assign(cfg.levels, 0);
  struct Probe {
    Simulation* s;
    WheelStats* stats;
    Time last_floor;
    void operator()() const {
      const TimingWheelBackend& wheel = *s->wheel();
      for (std::uint32_t k = 0; k < wheel.config().levels; ++k) {
        stats->max_occupancy[k] = std::max(stats->max_occupancy[k], wheel.occupancy(k));
      }
      Time floor = wheel.overflow_floor();
      if (floor != last_floor) ++stats->epoch_changes;
      if (s->pending_events() > 0) {
        s->schedule_after(50, Probe{s, stats, floor});
      }
    }
  };
  script(sim, trace);
  sim.schedule_at(0, Probe{&sim, &stats, sim.wheel()->overflow_floor()});
  sim.run();
  return stats;
}

void tag_at(Simulation& sim, std::vector<Firing>& trace, Time t, int tag) {
  sim.schedule_at(t, [&sim, &trace, tag] { trace.emplace_back(sim.now(), tag); });
}

TEST(TimingWheelTest, GeometryIsValidatedLoudly) {
  EXPECT_THROW(TimingWheelBackend(WheelConfig{0, 10, 5}), std::invalid_argument);
  EXPECT_THROW(TimingWheelBackend(WheelConfig{21, 10, 5}), std::invalid_argument);
  EXPECT_THROW(TimingWheelBackend(WheelConfig{8, 10, 0}), std::invalid_argument);
  // tick_shift + levels*slot_bits must stay under the sign bit.
  EXPECT_THROW(TimingWheelBackend(WheelConfig{8, 31, 4}), std::invalid_argument);
  EXPECT_NO_THROW(TimingWheelBackend{WheelConfig{}});
  EXPECT_NO_THROW(TimingWheelBackend{tiny_geometry()});
}

TEST(TimingWheelTest, PerLevelCascadeKeepsTotalOrder) {
  // Events spread across several level-1 and level-2 slot spans: coarse
  // slots must cascade down exactly once per level and fire in (at, seq)
  // order, interleaved with imminent events inserted mid-consumption.
  const auto script = [](auto& sim, std::vector<Firing>& trace) {
    using SimT = std::remove_reference_t<decltype(sim)>;
    for (int i = 0; i < 400; ++i) {
      tag_at(sim, trace, 1 + (i * 7919) % 60'000, i);
    }
    // Chains crawling in small steps keep inserting below the consumption
    // floor while cascades are in flight.
    struct Chain {
      SimT* s;
      std::vector<Firing>* tr;
      int left;
      int tag;
      void operator()() const {
        tr->emplace_back(s->now(), tag);
        if (left > 0) s->schedule_after(3 + (tag % 13), Chain{s, tr, left - 1, tag + 1});
      }
    };
    for (int c = 0; c < 8; ++c) {
      sim.schedule_at(5 + c, Chain{&sim, &trace, 300, 10'000 + c * 1000});
    }
  };
  expect_heap_agrees(script);
  // The hierarchy must actually engage: with the tiny geometry the 60 us
  // field loads every level and the overflow pool (epoch re-bases).
  const auto stats = wheel_stats_during(script, tiny_geometry());
  ASSERT_EQ(stats.max_occupancy.size(), 3u);
  EXPECT_GT(stats.max_occupancy[1], 0u) << "level 1 never held a slot: no cascade tested";
  EXPECT_GT(stats.max_occupancy[2], 0u) << "level 2 never held a slot: no cascade tested";
  EXPECT_GE(stats.epoch_changes, 2u) << "the 60 us field must outrun the 1 us horizon";
}

TEST(TimingWheelTest, SameTickFloodRunsInInsertionOrder) {
  // A single timestamp hashes every event into one slot; the whole flood
  // must still fire in insertion order via the seq tiebreak, with the
  // neighbouring ticks unaffected.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    for (int i = 0; i < 500; ++i) tag_at(sim, trace, 1000, i);
    for (int i = 0; i < 100; ++i) tag_at(sim, trace, 999, 1000 + i);
    for (int i = 0; i < 100; ++i) tag_at(sim, trace, 1001, 2000 + i);
  });
}

TEST(TimingWheelTest, CancelLastPendingEventLeavesWheelIdle) {
  // Tombstoning the only stored entry must drop the kernel's live count to
  // zero, the dead entry must never fire, and the structure must absorb a
  // fresh workload afterwards.
  Simulation sim(1, TimingWheelBackend{});
  int fired = 0;
  const auto id = sim.schedule_at(5'000, [&fired] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0);

  std::vector<Firing> trace;
  for (int i = 0; i < 100; ++i) tag_at(sim, trace, 10 + i * 31, i);
  sim.run();
  ASSERT_EQ(trace.size(), 100u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first);
  }
  EXPECT_EQ(fired, 0) << "tombstoned handlers must never fire";
}

TEST(TimingWheelTest, CancelAcrossCascadesAndEpochs) {
  // Ids issued while events sit in coarse levels or overflow stay
  // cancellable after cascades and epoch re-bases have moved the entries
  // between containers; tombstones must never fire.
  Simulation sim(1, TimingWheelBackend(tiny_geometry()));
  Rng rng(99);
  std::vector<Simulation::EventId> ids;
  std::uint64_t fired = 0;
  for (int i = 0; i < 3000; ++i) {
    const Time t = static_cast<Time>(rng.uniform_u64(5'000'000));
    ids.push_back(sim.schedule_at(t, [&fired] { ++fired; }));
  }
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    if (sim.cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(sim.pending_events(), ids.size() - cancelled);
  sim.run();
  EXPECT_EQ(fired, ids.size() - cancelled);
  EXPECT_TRUE(sim.idle());
}

TEST(TimingWheelTest, FarFutureTimersSitInOverflowUntilTheirEpoch) {
  // Timers far beyond the top level's horizon must park in the overflow
  // pool (no per-level storage cost), then fire in exact order once the
  // wheels drain and the epoch re-bases onto them.
  Simulation sim(1, TimingWheelBackend(tiny_geometry()));
  std::vector<Firing> trace;
  // Horizon with the tiny geometry is 1024 ns; everything below is wheel,
  // everything at/after is overflow this epoch.
  for (int i = 0; i < 20; ++i) tag_at(sim, trace, 10 + i * 40, i);
  for (int i = 0; i < 50; ++i) tag_at(sim, trace, 100'000 + i * 977, 100 + i);
  for (int i = 0; i < 10; ++i) tag_at(sim, trace, 50'000'000 + i * 3, 200 + i);
  EXPECT_GE(sim.wheel()->overflow_stored(), 60u)
      << "far-future timers must not occupy wheel slots";
  sim.run();
  ASSERT_EQ(trace.size(), 80u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first);
  }
  // Identical script against the heap oracle.
  expect_heap_agrees([](auto& s, std::vector<Firing>& tr) {
    for (int i = 0; i < 20; ++i) tag_at(s, tr, 10 + i * 40, i);
    for (int i = 0; i < 50; ++i) tag_at(s, tr, 100'000 + i * 977, 100 + i);
    for (int i = 0; i < 10; ++i) tag_at(s, tr, 50'000'000 + i * 3, 200 + i);
  });
}

TEST(TimingWheelTest, OverflowEpochInterleavesWithLaterWheelInserts) {
  // The ordering trap of a latched overflow region: an entry parked in
  // overflow, then — after the horizon has advanced — a *later-scheduled*
  // entry with a *smaller* timestamp entering the wheels. The overflow
  // entry must still fire strictly in (at, seq) order.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    using SimT = std::remove_reference_t<decltype(sim)>;
    // Park timers at several far-future distances immediately.
    for (int i = 0; i < 30; ++i) {
      tag_at(sim, trace, 2'000'000 + i * 501, 500 + i);
    }
    // A chain that, as virtual time advances, keeps scheduling nearer
    // timestamps that undercut the parked ones.
    struct Wave {
      SimT* s;
      std::vector<Firing>* tr;
      int wave;
      void operator()() const {
        tr->emplace_back(s->now(), -wave);
        if (wave >= 40) return;
        tag_at(*s, *tr, s->now() + 47'000, 1000 + wave);
        s->schedule_after(49'000, Wave{s, tr, wave + 1});
      }
    };
    sim.schedule_at(0, Wave{&sim, &trace, 0});
  });
}

TEST(TimingWheelTest, EpochRolloverNearClockLimitSaturates) {
  // Timestamps spanning the whole non-negative int64 range: cursor and
  // horizon arithmetic must saturate at INT64_MAX instead of overflowing,
  // and entries *at* the saturated boundary must still drain (no infinite
  // re-base loop), in exact order.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    constexpr Time kHuge = INT64_MAX;
    tag_at(sim, trace, 10, 0);
    tag_at(sim, trace, kHuge - 1, 90);
    tag_at(sim, trace, kHuge / 2, 50);
    tag_at(sim, trace, 1'000'000, 10);
    tag_at(sim, trace, kHuge - 1'000'000, 80);
    for (int i = 0; i < 100; ++i) {
      tag_at(sim, trace, 2'000'000 + i * 999, 100 + i);
    }
  });
  // The clock-limit edge proper: multiple entries exactly at INT64_MAX
  // (the saturated floor) must all fire; a miscomputed epoch would spin
  // or drop them.
  Simulation sim(1, TimingWheelBackend(tiny_geometry()));
  std::vector<Firing> trace;
  tag_at(sim, trace, 100, 0);
  for (int i = 0; i < 5; ++i) tag_at(sim, trace, INT64_MAX, 1 + i);
  tag_at(sim, trace, INT64_MAX - 3, -1);
  sim.run();
  ASSERT_EQ(trace.size(), 7u);
  EXPECT_EQ(trace[0], Firing(100, 0));
  EXPECT_EQ(trace[1], Firing(INT64_MAX - 3, -1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(trace[static_cast<std::size_t>(2 + i)], Firing(INT64_MAX, 1 + i));
  }
}

TEST(TimingWheelTest, RandomisedMirrorAgainstHeap) {
  // Randomised schedule/cancel interleavings mirrored on both stores,
  // including handler-side scheduling: the strongest order oracle. The
  // tiny-geometry run inside expect_heap_agrees crosses slot, level and
  // epoch boundaries constantly.
  for (std::uint64_t seed : {1u, 42u, 1234u}) {
    expect_heap_agrees([seed](auto& sim, std::vector<Firing>& trace) {
      using SimT = std::remove_reference_t<decltype(sim)>;
      struct Spawner {
        SimT* s;
        std::vector<Firing>* tr;
        std::uint64_t state;
        int left;
        int tag;
        void operator()() const {
          tr->emplace_back(s->now(), tag);
          if (left <= 0) return;
          std::uint64_t x = state;
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          s->schedule_after(static_cast<Time>(x % 20'000),
                            Spawner{s, tr, x, left - 1, tag + 1});
        }
      };
      Rng rng(seed);
      for (int i = 0; i < 128; ++i) {
        const auto spawn_seed = util::mix_seed(seed, static_cast<std::uint64_t>(i));
        sim.schedule_at(static_cast<Time>(rng.uniform_u64(100'000)),
                        Spawner{&sim, &trace, spawn_seed, 60, i * 1000});
      }
    });
  }
}

TEST(TimingWheelTest, RandomisedCancelMirrorAgainstHeap) {
  // Schedule-then-cancel churn mirrored against the heap: cancellation is
  // eager on the heap and lazy tombstoning on the wheel, yet the surviving
  // firings must be bit-identical.
  for (std::uint64_t seed : {7u, 321u}) {
    const auto script = [seed](auto& sim, std::vector<Firing>& trace) {
      using SimT = std::remove_reference_t<decltype(sim)>;
      std::vector<typename SimT::EventId> ids;
      Rng rng(seed);
      for (int i = 0; i < 600; ++i) {
        const Time t = static_cast<Time>(rng.uniform_u64(3'000'000));
        const int tag = i;
        ids.push_back(
            sim.schedule_at(t, [&sim, &trace, tag] { trace.emplace_back(sim.now(), tag); }));
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (rng.uniform_u64(3) == 0) sim.cancel(ids[i]);
      }
    };
    expect_heap_agrees(script);
  }
}

}  // namespace
}  // namespace metro::sim
