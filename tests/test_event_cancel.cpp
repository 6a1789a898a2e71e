// The event-ID API: stable-id timer cancellation and id staleness,
// parameterized over both event-queue backends (eager positional erase on
// the binary heap, lazy tombstoning on the timing wheel). The observable
// contract is identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
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

}  // namespace
}  // namespace metro::sim
