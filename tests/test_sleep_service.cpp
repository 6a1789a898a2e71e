// Sleep-service models: calibrated overheads, slack, dispatch jitter.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulation.hpp"
#include "sim/sleep_service.hpp"
#include "stats/summary.hpp"

namespace metro::sim {
namespace {

stats::Summary sample_latencies(SleepServiceConfig cfg, Time requested, int n = 20000) {
  Simulation sim(99);
  SleepService svc(sim, cfg);
  stats::Summary s;
  for (int i = 0; i < n; ++i) s.add(to_micros(svc.sample_timer_latency(requested)));
  return s;
}

TEST(SleepServiceTest, HrSleepAnchorsMatchCalibration) {
  // Fig. 1 anchors: ~3.85 us actual for a 1 us request, ~13.46 for 10 us,
  // ~108.45 for 100 us.
  SleepServiceConfig cfg;
  cfg.kind = SleepKind::kHrSleep;
  EXPECT_NEAR(sample_latencies(cfg, 1_us).mean(), 3.85, 0.05);
  EXPECT_NEAR(sample_latencies(cfg, 10_us).mean(), 13.46, 0.05);
  EXPECT_NEAR(sample_latencies(cfg, 100_us).mean(), 108.45, 0.10);
}

TEST(SleepServiceTest, NanosleepSlightlyWorseThanHrSleep) {
  SleepServiceConfig hr;
  hr.kind = SleepKind::kHrSleep;
  SleepServiceConfig ns;
  ns.kind = SleepKind::kNanosleep;
  ns.timer_slack = 1_us;
  for (const Time req : {1_us, 10_us, 100_us}) {
    const auto h = sample_latencies(hr, req);
    const auto n = sample_latencies(ns, req);
    EXPECT_GT(n.mean(), h.mean()) << "requested " << req;
    EXPECT_GT(n.stddev(), h.stddev()) << "requested " << req;
  }
}

TEST(SleepServiceTest, DefaultSlackAddsTensOfMicroseconds) {
  SleepServiceConfig tuned;
  tuned.kind = SleepKind::kNanosleep;
  tuned.timer_slack = 1_us;
  SleepServiceConfig vanilla;
  vanilla.kind = SleepKind::kNanosleep;
  vanilla.timer_slack = calib::kDefaultTimerSlack;  // 50 us
  const auto t = sample_latencies(tuned, 10_us);
  const auto v = sample_latencies(vanilla, 10_us);
  EXPECT_GT(v.mean() - t.mean(), 10.0);  // far worse without prctl tuning
}

TEST(SleepServiceTest, OverheadInterpolatesBetweenAnchors) {
  SleepServiceConfig cfg;
  cfg.kind = SleepKind::kHrSleep;
  const double at_1 = sample_latencies(cfg, 1_us).mean() - 1.0;
  const double at_10 = sample_latencies(cfg, 10_us).mean() - 10.0;
  const double at_3 = sample_latencies(cfg, 3_us).mean() - 3.0;
  EXPECT_GT(at_3, std::min(at_1, at_10) - 0.05);
  EXPECT_LT(at_3, std::max(at_1, at_10) + 0.05);
}

TEST(SleepServiceTest, SubMicrosecondFastReturnPatch) {
  SleepServiceConfig cfg;
  cfg.kind = SleepKind::kHrSleep;
  cfg.sub_us_fast_return = true;
  const auto s = sample_latencies(cfg, 500);  // 0.5 us request
  EXPECT_LT(s.mean(), 0.5);  // returns in ~150 ns, no timer
  // At or above 1 us the normal path applies.
  const auto normal = sample_latencies(cfg, 1_us);
  EXPECT_GT(normal.mean(), 3.0);
}

TEST(SleepServiceTest, LatencyNeverNonPositive) {
  SleepServiceConfig cfg;
  cfg.kind = SleepKind::kHrSleep;
  Simulation sim(5);
  SleepService svc(sim, cfg);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(svc.sample_timer_latency(1), 0);
}

TEST(SleepServiceTest, DispatchTailCanBeDisabled) {
  Simulation sim(7);
  SleepServiceConfig cfg;
  cfg.dispatch_tail = false;
  SleepService svc(sim, cfg);
  for (int i = 0; i < 200000; ++i) {
    ASSERT_LE(svc.sample_dispatch_latency(), calib::kDispatchBase);
  }
}

TEST(SleepServiceTest, DispatchTailFiresRarely) {
  Simulation sim(7);
  SleepServiceConfig cfg;
  cfg.dispatch_tail = true;
  SleepService svc(sim, cfg);
  int tails = 0;
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    if (svc.sample_dispatch_latency() > calib::kDispatchTailMin) ++tails;
  }
  const double rate = static_cast<double>(tails) / n;
  EXPECT_NEAR(rate, calib::kDispatchTailProb, calib::kDispatchTailProb);
  EXPECT_GT(tails, 0);
}

Task do_sleep(Simulation& sim, SleepService& svc, Time req, Time& woke) {
  co_await svc.sleep(req);
  woke = sim.now();
}

/// What one sleep leaves behind, for comparing its two kernel paths.
struct LoneSleepRun {
  Time woke = -1;
  std::uint64_t events = 0;
  std::uint64_t inlined = 0;
  std::uint64_t rng_after = 0;
};

/// One 10 us sleep, alone in the kernel or (noop_at >= 0) with a no-op
/// callback parked at `noop_at`.
LoneSleepRun run_lone_sleep(Time noop_at) {
  Simulation sim(11);
  SleepService svc(sim);
  LoneSleepRun r;
  sim.spawn(do_sleep(sim, svc, 10_us, r.woke));
  if (noop_at >= 0) sim.schedule_at(noop_at, [] {});
  sim.run();
  r.events = sim.events_processed();
  r.inlined = sim.events_inlined();
  r.rng_after = sim.rng().next_u64();
  return r;
}

TEST(SleepServiceTest, InPlaceWakeUpMatchesTheStorePath) {
  const LoneSleepRun alone = run_lone_sleep(-1);
  // 1 ns before the wake-up is after the timer fired (dispatch takes at
  // least kDispatchBase), so only the resume is forced through the store.
  const LoneSleepRun stored = run_lone_sleep(alone.woke - 1);
  EXPECT_EQ(alone.inlined, 1u) << "the timer callback resumed the sleeper in place";
  EXPECT_EQ(stored.inlined, 0u);
  EXPECT_EQ(alone.woke, stored.woke);
  EXPECT_EQ(alone.rng_after, stored.rng_after) << "both paths drew the same samples";
  EXPECT_EQ(alone.events + 1, stored.events) << "the paths differ by the no-op alone";
}

TEST(SleepServiceTest, AwaitableSleepResumesNearRequestPlusOverhead) {
  Simulation sim(11);
  SleepServiceConfig cfg;
  cfg.dispatch_tail = false;
  SleepService svc(sim, cfg);
  Time woke = -1;
  sim.spawn(do_sleep(sim, svc, 10_us, woke));
  sim.run();
  EXPECT_GT(woke, 10_us);
  EXPECT_LT(woke, 20_us);
}

TEST(SleepServiceTest, ContendedCoreAddsDispatchLatency) {
  Simulation sim(13);
  Core core(sim, 0);
  const auto spin = core.add_entity("competitor");
  core.set_spinning(spin, true);
  SleepServiceConfig cfg;
  cfg.dispatch_tail = false;
  SleepService contended(sim, cfg, &core);
  SleepService isolated(sim, cfg, nullptr);
  stats::Summary c, i;
  for (int k = 0; k < 20000; ++k) {
    c.add(static_cast<double>(contended.sample_dispatch_latency()));
    i.add(static_cast<double>(isolated.sample_dispatch_latency()));
  }
  EXPECT_GT(c.mean(), i.mean() + static_cast<double>(calib::kDispatchContendedMean) * 0.5);
}

}  // namespace
}  // namespace metro::sim
