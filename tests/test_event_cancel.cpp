// The event-ID API: stable-id timer cancellation and id staleness,
// parameterized over both event stores. Cancellation is the
// kernel's: a cancelled callback stays stored as a tombstone that the
// kernel discards when it reaches the front or purges once tombstones
// dominate the store, so the observable contract is identical on both. The
// middle case merges stored, now-FIFO and cancelled events and pins their
// shared (at, seq) order. The last ones pin when advance_inline() may
// stand in for an event: never while a stored or FIFO event could run
// first, and never past the running slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "store_param.hpp"

namespace metro::sim {
namespace {

class EventCancelTest : public StoreTest {};
INSTANTIATE_TEST_SUITE_P(Store, EventCancelTest, kStores, store_name);

TEST_P(EventCancelTest, CancelledEventNeverFires) {
  Simulation& sim = this->sim();
  std::vector<int> fired;
  sim.schedule_at(10, [&] { fired.push_back(1); });
  const auto id = sim.schedule_at(20, [&] { fired.push_back(2); });
  sim.schedule_at(30, [&] { fired.push_back(3); });
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_P(EventCancelTest, CancelIsIdempotentAndStaleAfterFire) {
  Simulation& sim = this->sim();
  int fired = 0;
  const auto id = sim.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id)) << "double cancel must be a no-op";
  sim.run();
  EXPECT_EQ(fired, 0);

  const auto id2 = sim.schedule_after(10, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(id2)) << "fired events are stale";
  EXPECT_FALSE(sim.cancel(Simulation::kInvalidEvent));
}

TEST_P(EventCancelTest, StaleIdCannotAliasReusedSlot) {
  Simulation& sim = this->sim();
  int first = 0, second = 0;
  const auto id = sim.schedule_at(10, [&] { ++first; });
  ASSERT_TRUE(sim.cancel(id));
  // The freed slot is reused by the next callback; the old id must not
  // cancel the new event.
  sim.schedule_at(10, [&] { ++second; });
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_P(EventCancelTest, CancelFromInsideAHandler) {
  Simulation& sim = this->sim();
  int fired = 0;
  const auto doomed = sim.schedule_at(50, [&] { ++fired; });
  sim.schedule_at(10, [&] { EXPECT_TRUE(sim.cancel(doomed)); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 10);
}

TEST_P(EventCancelTest, CancelLastPendingEventLeavesKernelIdle) {
  // Cancelling the only pending event must report the kernel idle even
  // though its tombstone still occupies the store, and a later schedule
  // must work.
  Simulation& sim = this->sim();
  int fired = 0;
  const auto id = sim.schedule_at(100, [&] { ++fired; });
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0) << "no live event may advance the clock";
  EXPECT_EQ(fired, 0);

  // The kernel must remain fully usable past the all-cancelled state —
  // including an event scheduled *earlier* than the dead one.
  sim.schedule_at(50, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.idle());
}

/// Logs the clock, negated, at its first resume and finishes.
Task log_negated_clock(Simulation& sim, std::vector<Time>& log) {
  log.push_back(-sim.now());
  co_return;
}

TEST_P(EventCancelTest, TombstonesLeaveNoTrace) {
  // Cancel the latest-scheduled events so the last stored entries are
  // tombstones: the clock, the processed count and the live counts must
  // all ignore them.
  Simulation& sim = this->sim();
  std::vector<Time> fired;
  const auto at = [&](Time t) {
    return sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  };
  at(10);
  at(20);
  at(30);
  const auto late_a = at(40);
  const auto late_b = at(50);
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_TRUE(sim.cancel(late_b));
  EXPECT_TRUE(sim.cancel(late_a));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_FALSE(sim.idle());
  ASSERT_EQ(sim.stored_events(), 5u) << "the tombstones must still be stored";

  EXPECT_EQ(sim.run(), 30) << "run() returns the time of the last live event";
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(sim.events_processed(), 3u) << "tombstones are not processed events";
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stored_events(), 0u) << "run() drains the trailing tombstones";

  // run_until(end) with a tombstone before `end` still runs the live
  // events between it and `end`, and stops there.
  at(100);
  const auto doomed = at(110);
  at(120);
  at(140);
  at(200);
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.run_until(150), 150);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 100, 120, 140}));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.idle());

  // A tombstone at the current instant ahead of a now-FIFO resume (a
  // spawn at the same time, with a larger seq) must not stall the merge.
  sim.schedule_at(170, [&] {
    EXPECT_TRUE(sim.cancel(at(sim.now())));
    sim.spawn(log_negated_clock(sim, fired));
    EXPECT_EQ(sim.pending_events(), 2u) << "the resume and the event at 200";
  });
  EXPECT_EQ(sim.run(), 200);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 100, 120, 140, -170, 200}));
  EXPECT_EQ(sim.events_processed(), 9u) << "the hook, the resume and the event at 200";
  EXPECT_TRUE(sim.idle());
}

Task sleep_then_log_clock(Simulation& sim, Time delay, std::vector<Time>& log) {
  co_await sim.sleep_for(delay);
  log.push_back(sim.now());
}

TEST_P(EventCancelTest, PurgeDropsTombstonesAndKeepsOrder) {
  // Cancelling most of a large store makes tombstones outnumber the live
  // entries, and cancel() purges them all at once. The survivors — live
  // callbacks and a sleeping coroutine — must still run in (at, seq)
  // order. The far times span every wheel level and the overflow pool;
  // the near ones, armed after run_until has consumed part of the store,
  // sit in the wheel's sorted bottom or one per level-0 slot, and the
  // cancels run from a handler halfway through that bottom.
  Simulation& sim = this->sim();
  std::vector<Time> fired;
  std::vector<std::pair<Simulation::EventId, Time>> events;
  const auto arm = [&](Time t) {
    events.emplace_back(sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); }), t);
  };
  for (int i = 0; i < 400; ++i) {
    arm(i % 50 == 0 ? (Time{1} << 51) + i : 1'000 + (i * 7'919 % 400) * Time{997'000});
  }
  sim.spawn(sleep_then_log_clock(sim, 150 * kMillisecond, fired));
  const Time mid = 50 * kMillisecond;
  sim.run_until(mid);
  // The next event after mid (at ~50.85 ms) set the wheel's floor, and
  // its level-0 window reaches ~262 us past it.
  for (int j = 1; j <= 100; ++j) {
    arm(mid + j * Time{1'024});                 // behind the floor: the sorted bottom
    arm(mid + kMillisecond + j * Time{1'024});  // one per level-0 slot
  }
  if (const TimingWheelBackend* wheel = sim.wheel()) {
    ASSERT_GE(wheel->occupancy(0), 100u) << "near events must sit in level-0 slots";
  }

  const Time cut = mid + 50 * Time{1'024} + 512;
  std::vector<Time> expect{150 * kMillisecond};
  std::size_t live_after_cut = 1;  // the coroutine
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Time t = events[i].second;
    if (t <= cut || i % 4 == 0) expect.push_back(t);
    live_after_cut += t > cut && i % 4 == 0;
  }
  sim.schedule_at(cut, [&] {
    const std::size_t stored = sim.stored_events();
    for (std::size_t i = events.size(); i-- > 0;) {  // near ones first: the purge takes them
      const auto [id, t] = events[i];
      if (t > cut && i % 4 != 0) {
        EXPECT_TRUE(sim.cancel(id));
      }
    }
    EXPECT_EQ(sim.pending_events(), live_after_cut);
    EXPECT_LT(sim.stored_events(), stored / 2) << "a purge must have run";
    EXPECT_LE(sim.stored_events() - sim.pending_events(),
              std::max<std::size_t>(64, sim.pending_events()))
        << "tombstones never outnumber live entries past the purge threshold";
  });
  sim.run();
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stored_events(), 0u);
}

TEST_P(EventCancelTest, CancelMiddleOfManyKeepsOrdering) {
  Simulation& sim = this->sim();
  std::vector<int> order;
  std::vector<Simulation::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(5 + (i % 10), [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event.
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    } else {
      expected.push_back(i);
    }
  }
  sim.run();
  // Survivors still run in (time, insertion) order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](int a, int b) { return a % 10 < b % 10; });
  EXPECT_EQ(order, expected);
}

TEST_P(EventCancelTest, QueueStaysConsistentUnderChurn) {
  // Deterministic schedule/cancel churn; the run must execute exactly the
  // surviving events in order.
  Simulation& sim = this->sim();
  Rng rng(123);
  std::vector<Simulation::EventId> live;
  std::uint64_t scheduled = 0, cancelled = 0, fired = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto t = static_cast<Time>(rng.uniform_u64(10000));
    live.push_back(sim.schedule_at(t, [&fired] { ++fired; }));
    ++scheduled;
    if (!live.empty() && rng.chance(0.4)) {
      const auto pick = rng.uniform_u64(live.size());
      if (sim.cancel(live[pick])) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  sim.run();
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_TRUE(sim.idle());
}

TEST_P(EventCancelTest, ChurnWhileRunning) {
  // Cancels issued from inside handlers while the queue is mid-drain, with
  // reschedules that reuse freed slots across the full range of pending
  // times.
  Simulation& sim = this->sim();
  Rng rng(7);
  std::vector<Simulation::EventId> live;
  std::uint64_t fired = 0, cancelled = 0, scheduled = 0;
  struct Churn {
    Simulation* sim;
    Rng* rng;
    std::vector<Simulation::EventId>* live;
    std::uint64_t *fired, *cancelled, *scheduled;
    int depth;
    void operator()() const {
      ++*fired;
      if (depth <= 0) return;
      auto id = sim->schedule_after(static_cast<Time>(1 + rng->uniform_u64(5000)),
                                    Churn{sim, rng, live, fired, cancelled, scheduled,
                                          depth - 1});
      ++*scheduled;
      live->push_back(id);
      if (!live->empty() && rng->chance(0.3)) {
        const auto pick = rng->uniform_u64(live->size());
        if (sim->cancel((*live)[pick])) ++*cancelled;
        live->erase(live->begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  };
  for (int i = 0; i < 64; ++i) {
    live.push_back(sim.schedule_at(static_cast<Time>(rng.uniform_u64(1000)),
                                   Churn{&sim, &rng, &live, &fired, &cancelled,
                                         &scheduled, 50}));
    ++scheduled;
  }
  sim.run();
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(fired, 1000u) << "churn must do real work";
}

// --- stored, FIFO and cancelled events merged into one order ---------------
//
// Every schedule call below first takes a tag from MixedOrderLog::note(),
// with no other schedule in between, so tags are handed out in the
// kernel's seq order and the expected execution is the live (at, tag)
// pairs sorted.

struct MixedOrderLog {
  std::vector<std::pair<Time, std::uint32_t>> expected;  // (at, tag) per live event
  std::vector<std::pair<Time, std::uint32_t>> fired;     // (now, tag) per execution
  std::uint32_t next_tag = 0;

  std::uint32_t note(Time at) {
    expected.emplace_back(at, next_tag);
    return next_tag++;
  }
};

/// Logs its first resume under `resume_tag`, then sleeps until `at` and
/// logs the wake-up under the tag it takes just before suspending.
Task tag_sleeper(Simulation& sim, MixedOrderLog& log, std::uint32_t resume_tag, Time at) {
  log.fired.emplace_back(sim.now(), resume_tag);
  const std::uint32_t tag = log.note(at);
  co_await sim.sleep_until(at);
  log.fired.emplace_back(sim.now(), tag);
}

TEST_P(EventCancelTest, EventsMergeIntoOneOrder) {
  Simulation& sim = this->sim();
  MixedOrderLog log;
  const auto callback_at = [&](Time at) {
    const std::uint32_t tag = log.note(at);
    const auto id =
        sim.schedule_at(at, [&log, &sim, tag] { log.fired.emplace_back(sim.now(), tag); });
    return std::pair{id, tag};
  };
  const auto cancel = [&](std::pair<Simulation::EventId, std::uint32_t> ev) {
    EXPECT_TRUE(sim.cancel(ev.first));
    std::erase_if(log.expected, [&](const auto& e) { return e.second == ev.second; });
  };
  const auto spawn_now = [&](Time at) {
    const std::uint32_t tag = log.note(sim.now());
    sim.spawn(tag_sleeper(sim, log, tag, at));
  };
  // Every live event noted so far and not yet run is pending.
  const auto expect_pending = [&] {
    EXPECT_EQ(sim.pending_events(), log.expected.size() - log.fired.size());
    EXPECT_EQ(sim.idle(), log.expected.size() == log.fired.size());
  };

  // On the wheel (1024 ns level-0 ticks) everything in [2048, 3072) shares
  // one level-0 slot: live callbacks, a store-held coroutine wake-up and
  // the tombstones of two cancelled callbacks, at equal and at distinct
  // times.
  callback_at(2500);
  callback_at(2100);  // alone at its instant: run_until(2100) ends on it
  const auto doomed_a = callback_at(2200);
  const auto doomed_b = callback_at(2500);
  callback_at(2700);
  spawn_now(2500);  // first resume at 0 via the now-FIFO, wakes at 2500
  // Far enough out to sit in a level-1 slot, next to a tombstone.
  const auto doomed_c = callback_at(400'100);
  callback_at(400'100);
  callback_at(500'000);  // the last pending event
  // At 1000 ns the hook interleaves now-FIFO spawns and stored callbacks,
  // all at now(): they run in the order they were taken.
  const std::uint32_t hook = log.note(1000);
  sim.schedule_at(1000, [&, hook] {
    log.fired.emplace_back(sim.now(), hook);
    spawn_now(2300);
    callback_at(sim.now());
    spawn_now(2600);
    callback_at(sim.now());
  });
  cancel(doomed_a);
  cancel(doomed_b);
  cancel(doomed_c);
  expect_pending();

  sim.run_until(2000);
  EXPECT_EQ(log.fired.size(), 6u) << "the 0 ns resume, the hook and its four events";
  expect_pending();
  sim.run_until(2100);
  EXPECT_EQ(log.fired.back(), (std::pair<Time, std::uint32_t>{2100, 1}))
      << "an event at exactly run_until's end runs";
  expect_pending();
  sim.run_until(400'200);
  EXPECT_EQ(sim.pending_events(), 1u) << "only the 500 us callback is left";
  expect_pending();
  sim.run();
  expect_pending();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.now(), 500'000);

  auto want = log.expected;
  std::sort(want.begin(), want.end());
  // Equal vectors: every live event ran exactly once, at its time, in
  // (at, seq) order; no cancelled callback ran.
  EXPECT_EQ(log.fired, want);
  EXPECT_EQ(want.size(), 14u);
  EXPECT_EQ(sim.events_processed(), 14u);
}

/// advance_inline() asked from inside a callback at 10 ns, on both stores.
class AdvanceInlineTest : public StoreTest {
 protected:
  /// Schedule the asking callback, which runs `setup` first, then asks for
  /// each instant of `ts` in turn and records the answers; run until `end`.
  template <typename F>
  std::vector<bool> ask(std::vector<Time> ts, F setup, Time end = 1'000'000) {
    std::vector<bool> granted;
    sim().schedule_at(10, [this, ts, setup, &granted] {
      setup();
      for (const Time t : ts) granted.push_back(sim().advance_inline(t));
    });
    sim().run_until(end);
    return granted;
  }
};
INSTANTIATE_TEST_SUITE_P(Store, AdvanceInlineTest, kStores, store_name);

Task finish_at_once() { co_return; }

TEST_P(AdvanceInlineTest, GrantMovesTheClockAndCountsAnEvent) {
  Simulation& sim = this->sim();
  Time at = -1;
  sim.schedule_at(10, [&] {
    EXPECT_TRUE(sim.advance_inline(500));
    at = sim.now();
  });
  sim.run();
  EXPECT_EQ(at, 500);
  EXPECT_EQ(sim.events_processed(), 2u) << "the callback and the event it stood for";
  EXPECT_EQ(sim.events_inlined(), 1u);
}

TEST_P(AdvanceInlineTest, RefusedOutsideARun) {
  Simulation& sim = this->sim();
  EXPECT_FALSE(sim.advance_inline(0));
  EXPECT_FALSE(sim.advance_inline(100));
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.advance_inline(20)) << "a finished run() leaves no slice open";
  sim.run_until(50);
  EXPECT_FALSE(sim.advance_inline(50)) << "nor does a finished run_until()";
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.events_inlined(), 0u);
}

TEST_P(AdvanceInlineTest, RefusedPastTheSliceEnd) {
  EXPECT_EQ(ask({101, 100}, [] {}, 100), (std::vector<bool>{false, true}))
      << "the slice's end itself is granted";
  EXPECT_EQ(sim().now(), 100);
  EXPECT_EQ(sim().events_inlined(), 1u);
}

TEST_P(AdvanceInlineTest, RefusedWhileTheFifoHoldsAResume) {
  Simulation& sim = this->sim();
  EXPECT_EQ(ask({500}, [&sim] { sim.spawn(finish_at_once()); }), std::vector<bool>{false});
  EXPECT_EQ(sim.events_processed(), 2u) << "the callback and the spawned resume";
  EXPECT_EQ(sim.events_inlined(), 0u);
}

TEST_P(AdvanceInlineTest, RefusedWhenTheStoreFrontIsDue) {
  Simulation& sim = this->sim();
  Time fired = -1;
  sim.schedule_at(500, [&] { fired = sim.now(); });
  EXPECT_EQ(ask({500, 499}, [] {}), (std::vector<bool>{false, true}));
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(sim.events_inlined(), 1u);
}

TEST_P(AdvanceInlineTest, RefusedBehindATombstone) {
  Simulation& sim = this->sim();
  sim.cancel(sim.schedule_at(500, [] { ADD_FAILURE() << "cancelled"; }));
  ASSERT_EQ(sim.tombstones(), 1u);
  // Conservative: the dead front blocks until it is popped.
  EXPECT_EQ(ask({600, 499}, [] {}), (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.events_inlined(), 1u);
}

}  // namespace
}  // namespace metro::sim
