// The event-ID API: stable-id timer cancellation and id staleness,
// parameterized over both event-queue backends (eager positional erase on
// the binary heap, lazy tombstoning on the timing wheel). The observable
// contract is identical. The last case mixes all three event kinds
// (coroutine, callback, kTimer) and pins their shared (at, seq) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace metro::sim {
namespace {

template <typename Backend>
class EventCancelTest : public ::testing::Test {
 public:
  using Sim = BasicSimulation<Backend>;
};

using Backends = ::testing::Types<BinaryHeapBackend, TimingWheelBackend>;
TYPED_TEST_SUITE(EventCancelTest, Backends);

TYPED_TEST(EventCancelTest, CancelledEventNeverFires) {
  typename TestFixture::Sim sim;
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

TYPED_TEST(EventCancelTest, CancelIsIdempotentAndStaleAfterFire) {
  typename TestFixture::Sim sim;
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
  EXPECT_FALSE(sim.cancel(TestFixture::Sim::kInvalidEvent));
}

TYPED_TEST(EventCancelTest, StaleIdCannotAliasReusedSlot) {
  typename TestFixture::Sim sim;
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

TYPED_TEST(EventCancelTest, CancelFromInsideAHandler) {
  typename TestFixture::Sim sim;
  int fired = 0;
  const auto doomed = sim.schedule_at(50, [&] { ++fired; });
  sim.schedule_at(10, [&] { EXPECT_TRUE(sim.cancel(doomed)); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 10);
}

TYPED_TEST(EventCancelTest, CancelLastPendingEventLeavesKernelIdle) {
  // The edge case tombstoning backends must get right: cancelling the only
  // pending event must report the kernel idle even though the tombstone
  // still occupies internal storage, and a later schedule must work.
  typename TestFixture::Sim sim;
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

TYPED_TEST(EventCancelTest, CancelMiddleOfManyKeepsOrdering) {
  typename TestFixture::Sim sim;
  std::vector<int> order;
  std::vector<typename TestFixture::Sim::EventId> ids;
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

TYPED_TEST(EventCancelTest, QueueStaysConsistentUnderChurn) {
  // Deterministic schedule/cancel churn; the run must execute exactly the
  // surviving events in order.
  typename TestFixture::Sim sim;
  Rng rng(123);
  std::vector<typename TestFixture::Sim::EventId> live;
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

TYPED_TEST(EventCancelTest, ChurnWhileRunning) {
  // Cancels issued from inside handlers while the queue is mid-drain, with
  // reschedules that reuse freed slots across the full range of pending
  // times.
  typename TestFixture::Sim sim;
  Rng rng(7);
  std::vector<typename TestFixture::Sim::EventId> live;
  std::uint64_t fired = 0, cancelled = 0, scheduled = 0;
  struct Churn {
    typename TestFixture::Sim* sim;
    Rng* rng;
    std::vector<typename TestFixture::Sim::EventId>* live;
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

// --- three event kinds in one order ----------------------------------------
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

template <typename Sim>
struct TagTimer final : TimerTarget {
  Sim* sim;
  MixedOrderLog* log;
  TagTimer(Sim& s, MixedOrderLog& l) : sim(&s), log(&l) {}
  void on_timer(std::uint32_t tag) override { log->fired.emplace_back(sim->now(), tag); }
};

/// Logs its first resume under `resume_tag`, then sleeps until `at` and
/// logs the wake-up under the tag it takes just before suspending.
template <typename Sim>
Task tag_sleeper(Sim& sim, MixedOrderLog& log, std::uint32_t resume_tag, Time at) {
  log.fired.emplace_back(sim.now(), resume_tag);
  const std::uint32_t tag = log.note(at);
  co_await sim.sleep_until(at);
  log.fired.emplace_back(sim.now(), tag);
}

TYPED_TEST(EventCancelTest, TimerCallbackAndCoroutineEventsShareOneOrder) {
  using Sim = typename TestFixture::Sim;
  Sim sim;
  MixedOrderLog log;
  TagTimer<Sim> timers(sim, log);
  const auto timer_at = [&](Time at) { sim.schedule_timer_at(at, &timers, log.note(at)); };
  const auto callback_at = [&](Time at) {
    const std::uint32_t tag = log.note(at);
    const auto id =
        sim.schedule_at(at, [&log, &sim, tag] { log.fired.emplace_back(sim.now(), tag); });
    return std::pair{id, tag};
  };
  const auto cancel = [&](std::pair<typename Sim::EventId, std::uint32_t> ev) {
    EXPECT_TRUE(sim.cancel(ev.first));
    std::erase_if(log.expected, [&](const auto& e) { return e.second == ev.second; });
  };
  const auto spawn_now = [&](Time at) {
    const std::uint32_t tag = log.note(sim.now());
    sim.spawn(tag_sleeper(sim, log, tag, at));
  };
  // Every live event noted so far and not yet run is pending — timers too.
  const auto expect_pending = [&] {
    EXPECT_EQ(sim.pending_events(), log.expected.size() - log.fired.size());
  };

  // On the wheel (1024 ns level-0 ticks) everything in [2048, 3072) shares
  // one level-0 slot: timers, live callbacks, a coroutine wake-up and the
  // tombstones of two cancelled callbacks, at equal and at distinct times.
  timer_at(2900);
  timer_at(2500);
  callback_at(2500);
  timer_at(2100);
  const auto doomed_a = callback_at(2200);
  timer_at(2500);
  const auto doomed_b = callback_at(2500);
  callback_at(2700);
  timer_at(2200);
  spawn_now(2500);  // first resume at 0 via the now-FIFO, wakes at 2500
  // Far enough out to sit in a level-1 slot, so timers cascade down next
  // to a tombstone.
  timer_at(400'000);
  const auto doomed_c = callback_at(400'100);
  timer_at(400'100);
  callback_at(400'100);
  // At 1000 ns: two spawns enter the now-FIFO, then a timer and a callback
  // are armed at now(). Both resumes hold lower seqs, so they run first.
  const std::uint32_t hook = log.note(1000);
  sim.schedule_at(1000, [&, hook] {
    log.fired.emplace_back(sim.now(), hook);
    spawn_now(2300);
    spawn_now(2600);
    timer_at(sim.now());
    callback_at(sim.now());
  });
  cancel(doomed_a);
  cancel(doomed_b);
  cancel(doomed_c);
  expect_pending();

  sim.run_until(2000);
  EXPECT_EQ(log.fired.size(), 6u) << "the 0 ns resume, the hook and its four events";
  expect_pending();
  sim.run_until(2500);
  expect_pending();
  sim.run();
  expect_pending();
  EXPECT_TRUE(sim.idle());

  auto want = log.expected;
  std::sort(want.begin(), want.end());
  // Equal vectors: every live event ran exactly once, at its time, in
  // (at, seq) order; no cancelled callback ran.
  EXPECT_EQ(log.fired, want);
  EXPECT_EQ(want.size(), 19u);
}

}  // namespace
}  // namespace metro::sim
