// Real-thread runtime: actual pthreads, atomics and clock_nanosleep.
// Timing assertions are deliberately loose — this runs in shared CI
// containers; the discrete-event twin carries the quantitative claims.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "rt/hr_sleep.hpp"
#include "rt/metronome_rt.hpp"
#include "rt/spsc_ring.hpp"
#include "rt/trylock.hpp"

namespace metro::rt {
namespace {

TEST(HrSleepTest, SleepsAtLeastTheRequestedTime) {
  set_min_timer_slack();
  for (const std::int64_t ns : {10'000L, 100'000L, 1'000'000L}) {
    const auto actual = measure_sleep_latency(ns);
    EXPECT_GE(actual, ns);
  }
}

TEST(HrSleepTest, ZeroAndNegativeReturnImmediately) {
  const auto t0 = monotonic_ns();
  hr_sleep(0);
  hr_sleep(-5);
  EXPECT_LT(monotonic_ns() - t0, 1'000'000);
}

TEST(HrSleepTest, MonotonicClockAdvances) {
  const auto a = monotonic_ns();
  const auto b = monotonic_ns();
  EXPECT_GE(b, a);
}

TEST(TryLockTest, BasicAcquireRelease) {
  TryLock lock;
  EXPECT_FALSE(lock.locked());
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.locked());
  EXPECT_FALSE(lock.try_lock());  // second acquire fails
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TryLockTest, MutualExclusionUnderContention) {
  // Each thread loops until it has won the lock kPerThread times, so the
  // total is exact however the host schedules the threads. The attempt
  // cap is hundreds of times what an uncontended host needs; it only
  // turns a lock that stops granting into a loud failure, not a hang.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 25'000;
  constexpr std::uint64_t kMaxAttempts = 100'000'000;
  TryLock lock;
  std::atomic<int> in_critical{0};
  std::atomic<bool> violation{false};
  std::atomic<int> capped{0};
  std::atomic<std::uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t won = 0;
      for (std::uint64_t attempt = 0; won < kPerThread; ++attempt) {
        if (attempt == kMaxAttempts) {
          capped.fetch_add(1);
          break;
        }
        if (lock.try_lock()) {
          if (in_critical.fetch_add(1, std::memory_order_acq_rel) != 0) violation.store(true);
          in_critical.fetch_sub(1, std::memory_order_acq_rel);
          acquisitions.fetch_add(1, std::memory_order_relaxed);
          ++won;
          lock.unlock();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(capped.load(), 0) << "a thread made " << kMaxAttempts
                              << " try_lock attempts without winning " << kPerThread << " times";
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(acquisitions.load(), kThreads * kPerThread);
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.push(i));
  int out[16];
  const int n = ring.pop_burst(out, 16);
  ASSERT_EQ(n, 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRingTest, FullRingDrops) {
  SpscRing<int> ring(4);
  std::size_t pushed = 0;
  for (int i = 0; i < 100; ++i) {
    if (ring.push(i)) ++pushed;
  }
  EXPECT_EQ(pushed, ring.capacity());  // every slot usable
  EXPECT_EQ(ring.dropped(), 100 - pushed);
}

TEST(SpscRingTest, CapacityRoundedToPowerOfTwo) {
  SpscRing<int> ring(1000);
  EXPECT_GE(ring.capacity(), 1024u);
  EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
}

TEST(SpscRingTest, ProducerConsumerIntegrity) {
  SpscRing<std::uint64_t> ring(1024);
  constexpr std::uint64_t kCount = 500000;
  std::atomic<bool> done{false};
  std::uint64_t sum_consumed = 0, n_consumed = 0;
  std::uint64_t expected_next = 0;
  bool order_ok = true;

  std::thread consumer([&] {
    std::uint64_t buf[64];
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      const int n = ring.pop_burst(buf, 64);
      for (int i = 0; i < n; ++i) {
        if (buf[i] < expected_next) order_ok = false;  // must be increasing
        expected_next = buf[i];
        sum_consumed += buf[i];
        ++n_consumed;
      }
      if (n == 0) std::this_thread::yield();
    }
  });
  std::uint64_t sum_pushed = 0, n_pushed = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    if (ring.push(i)) {
      sum_pushed += i;
      ++n_pushed;
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(n_consumed, n_pushed);
  EXPECT_EQ(sum_consumed, sum_pushed);
}

TEST(MetronomeRtTest, ConsumesEverythingAtModestRate) {
  RtConfig cfg;
  cfg.rate_pps = 100e3;
  cfg.n_threads = 3;
  MetronomeRt rt(cfg);
  rt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto r = rt.stop();
  EXPECT_GT(r.producer_pushed, 10000u);
  // Exact packet conservation: consumed + leftover + drops == pushed.
  EXPECT_EQ(r.packets_consumed + r.leftover_in_rings + r.producer_drops, r.producer_pushed);
  EXPECT_LT(r.producer_drops, r.producer_pushed / 100 + 1);
}

TEST(MetronomeRtTest, RhoStaysInUnitInterval) {
  RtConfig cfg;
  cfg.rate_pps = 200e3;
  MetronomeRt rt(cfg);
  rt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto r = rt.stop();
  EXPECT_GE(r.final_rho, 0.0);
  EXPECT_LE(r.final_rho, 1.0);
  EXPECT_GT(r.final_ts_us, 0.0);
  EXPECT_GT(r.vacation_us.count(), 50u);
}

/// Poll until `rt` has consumed `target` packets in total; false once
/// `cap` passes first. The adaptation assertions need drain cycles, not
/// elapsed time: a loaded host can starve the threads through a whole
/// fixed sleep.
bool wait_for_consumed(const MetronomeRt& rt, std::uint64_t target, std::chrono::seconds cap) {
  const auto deadline = std::chrono::steady_clock::now() + cap;
  while (rt.packets_consumed() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(MetronomeRtTest, AdaptsTsWhenRateRises) {
  RtConfig cfg;
  cfg.rate_pps = 20e3;
  cfg.target_vacation_us = 100.0;
  MetronomeRt rt(cfg);
  rt.start();
  // Each phase waits for the packets its nominal duration carries (300 ms
  // at 20 kpps, 400 ms at 2 Mpps), however long the host takes to run them.
  constexpr std::uint64_t kLowLoadPackets = 6'000;
  constexpr std::uint64_t kHighLoadPackets = 800'000;
  constexpr std::chrono::seconds kCap{60};
  ASSERT_TRUE(wait_for_consumed(rt, kLowLoadPackets, kCap))
      << "low-load phase consumed only " << rt.packets_consumed() << " of " << kLowLoadPackets
      << " packets in " << kCap.count() << " s";
  const double ts_low_load = rt.current_ts_us();
  rt.set_rate_pps(2e6);  // 100x the load
  const std::uint64_t high_target = rt.packets_consumed() + kHighLoadPackets;
  ASSERT_TRUE(wait_for_consumed(rt, high_target, kCap))
      << "high-load phase consumed only " << rt.packets_consumed() << " of " << high_target
      << " packets in " << kCap.count() << " s";
  const double ts_high_load = rt.current_ts_us();
  const double rho_high = rt.current_rho();
  rt.stop();
  // Eq. 13: TS shrinks from ~M*target toward ~target as rho grows.
  EXPECT_LT(ts_high_load, ts_low_load);
  EXPECT_GT(rho_high, 0.005);
}

TEST(MetronomeRtTest, BusyTriesAccountedUnderManyThreads) {
  RtConfig cfg;
  cfg.rate_pps = 500e3;
  cfg.n_threads = 4;
  cfg.long_timeout_us = 300.0;
  MetronomeRt rt(cfg);
  rt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto r = rt.stop();
  EXPECT_GT(r.total_tries, r.busy_tries);
  EXPECT_GT(r.total_tries, 100u);
}

TEST(MetronomeRtTest, MultiQueueDrainsAllQueues) {
  RtConfig cfg;
  cfg.n_queues = 2;
  cfg.n_threads = 3;
  cfg.rate_pps = 200e3;
  MetronomeRt rt(cfg);
  rt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto r = rt.stop();
  EXPECT_EQ(r.packets_consumed + r.leftover_in_rings + r.producer_drops, r.producer_pushed);
  EXPECT_GT(r.packets_consumed, r.producer_pushed / 2);
}

TEST(MetronomeRtTest, StopIsIdempotentViaDestructor) {
  RtConfig cfg;
  cfg.rate_pps = 50e3;
  {
    MetronomeRt rt(cfg);
    rt.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // destructor stops
  }
  SUCCEED();
}

}  // namespace
}  // namespace metro::rt
