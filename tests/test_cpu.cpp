// Core model: processor sharing, CFS weights, governors, power accounting.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/cpu.hpp"
#include "sim/simulation.hpp"

namespace metro::sim {
namespace {

TEST(NiceToWeightTest, KernelTableAnchors) {
  EXPECT_EQ(nice_to_weight(0), 1024);
  EXPECT_EQ(nice_to_weight(-20), 88761);
  EXPECT_EQ(nice_to_weight(19), 15);
  EXPECT_EQ(nice_to_weight(5), 335);
}

TEST(NiceToWeightTest, ClampsOutOfRange) {
  EXPECT_EQ(nice_to_weight(-100), 88761);
  EXPECT_EQ(nice_to_weight(100), 15);
}

Task run_job(Simulation& sim, Core& core, Core::EntityId ent, Time work, Time& finished) {
  co_await core.run_for(ent, work);
  finished = sim.now();
}

TEST(CoreTest, SingleJobRunsAtFullSpeed) {
  Simulation sim;
  Core core(sim, 0);
  const auto ent = core.add_entity("a");
  Time finished = -1;
  sim.spawn(run_job(sim, core, ent, 1000, finished));
  sim.run();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(core.on_cpu_time(ent), 1000);
  EXPECT_EQ(core.busy_time(), 1000);
}

TEST(CoreTest, TwoEqualJobsShareTheCore) {
  Simulation sim;
  Core core(sim, 0);
  const auto a = core.add_entity("a", 0);
  const auto b = core.add_entity("b", 0);
  Time fa = -1, fb = -1;
  sim.spawn(run_job(sim, core, a, 1000, fa));
  sim.spawn(run_job(sim, core, b, 1000, fb));
  sim.run();
  // Each gets 50%: both finish around t = 2000.
  EXPECT_NEAR(static_cast<double>(fa), 2000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(fb), 2000.0, 2.0);
}

TEST(CoreTest, WeightsBiasTheShare) {
  Simulation sim;
  Core core(sim, 0);
  const auto fast = core.add_entity("fast", -20);  // weight 88761
  const auto slow = core.add_entity("slow", 19);   // weight 15
  Time ff = -1, fs = -1;
  sim.spawn(run_job(sim, core, fast, 100000, ff));
  sim.spawn(run_job(sim, core, slow, 100000, fs));
  sim.run();
  // The -20 job barely notices the nice-19 one.
  EXPECT_LT(ff, 100100);
  EXPECT_GT(fs, 150000);
}

TEST(CoreTest, SequentialJobsFromOneEntity) {
  Simulation sim;
  Core core(sim, 0);
  const auto ent = core.add_entity("a");
  Time f1 = -1, f2 = -1;
  sim.spawn([](Simulation& s, Core& c, Core::EntityId e, Time& t1, Time& t2) -> Task {
    co_await c.run_for(e, 500);
    t1 = s.now();
    co_await s.sleep_for(100);
    co_await c.run_for(e, 500);
    t2 = s.now();
  }(sim, core, ent, f1, f2));
  sim.run();
  EXPECT_EQ(f1, 500);
  EXPECT_EQ(f2, 1100);
  EXPECT_EQ(core.on_cpu_time(ent), 1000);
  EXPECT_EQ(core.busy_time(), 1000);  // idle gap not counted busy
}

TEST(CoreTest, SpinningEntityAccruesCpuWithoutWork) {
  Simulation sim;
  Core core(sim, 0);
  const auto spin = core.add_entity("spin");
  core.set_spinning(spin, true);
  sim.schedule_at(10000, [] {});
  sim.run();
  core.snapshot();  // settle
  EXPECT_EQ(core.on_cpu_time(spin), 10000);
  EXPECT_EQ(core.busy_time(), 10000);
}

TEST(CoreTest, SpinnerSlowsJobByHalf) {
  Simulation sim;
  Core core(sim, 0);
  const auto spin = core.add_entity("spin", 0);
  const auto worker = core.add_entity("worker", 0);
  core.set_spinning(spin, true);
  Time finished = -1;
  sim.spawn(run_job(sim, core, worker, 1000, finished));
  sim.run();
  EXPECT_NEAR(static_cast<double>(finished), 2000.0, 2.0);
}

TEST(CoreTest, ZeroWorkCompletesImmediately) {
  Simulation sim;
  Core core(sim, 0);
  const auto ent = core.add_entity("a");
  Time finished = -1;
  sim.spawn(run_job(sim, core, ent, 0, finished));
  sim.run();
  EXPECT_EQ(finished, 0);
}

TEST(CoreTest, OndemandStartsAtMinFrequency) {
  Simulation sim;
  CoreConfig cfg;
  cfg.governor = Governor::kOndemand;
  Core core(sim, 0, cfg);
  EXPECT_NEAR(core.freq_ratio(), cfg.min_freq_ratio, 1e-9);
}

TEST(CoreTest, OndemandRampsUpUnderLoad) {
  Simulation sim;
  CoreConfig cfg;
  cfg.governor = Governor::kOndemand;
  Core core(sim, 0, cfg);
  const auto spin = core.add_entity("spin");
  core.set_spinning(spin, true);
  sim.schedule_at(50 * kMillisecond, [] {});
  sim.run_until(50 * kMillisecond);
  // After a few 10 ms samples at 100% load, frequency must be pinned max.
  EXPECT_DOUBLE_EQ(core.freq_ratio(), 1.0);
}

TEST(CoreTest, OndemandDropsWhenIdle) {
  Simulation sim;
  CoreConfig cfg;
  cfg.governor = Governor::kOndemand;
  Core core(sim, 0, cfg);
  const auto spin = core.add_entity("spin");
  core.set_spinning(spin, true);
  sim.run_until(50 * kMillisecond);
  core.set_spinning(spin, false);
  sim.run_until(120 * kMillisecond);
  EXPECT_NEAR(core.freq_ratio(), cfg.min_freq_ratio, 1e-9);
}

TEST(CoreTest, FrequencyScalesJobDuration) {
  Simulation sim;
  CoreConfig cfg;
  cfg.governor = Governor::kOndemand;  // starts at min freq
  Core core(sim, 0, cfg);
  const auto ent = core.add_entity("a");
  Time finished = -1;
  sim.spawn(run_job(sim, core, ent, 1000, finished));
  sim.run_until(kMillisecond);
  // At min frequency the 1000 ns job takes 1000/min_ratio wall ns.
  const double expect = 1000.0 / cfg.min_freq_ratio;
  EXPECT_NEAR(static_cast<double>(finished), expect, 3.0);
}

TEST(CoreTest, BusyCoreConsumesMorePowerThanIdle) {
  Simulation sim1;
  Core busy(sim1, 0);
  const auto spin = busy.add_entity("spin");
  busy.set_spinning(spin, true);
  sim1.schedule_at(kSecond, [] {});
  sim1.run();
  busy.snapshot();

  Simulation sim2;
  Core idle(sim2, 0);
  sim2.schedule_at(kSecond, [] {});
  sim2.run();
  idle.snapshot();

  EXPECT_GT(busy.energy_joules(), idle.energy_joules() * 5.0);
  // Sanity: 1 s of a fully busy core at nominal f = static + dynamic watts.
  EXPECT_NEAR(busy.energy_joules(), calib::kCoreStaticWatts + calib::kCoreDynamicWatts, 0.01);
  EXPECT_NEAR(idle.energy_joules(), calib::kCoreIdleWatts, 0.01);
}

/// What a lone job leaves behind, for comparing its two kernel paths.
struct LoneJobRun {
  Time finished = -1;
  Time on_cpu = 0;
  Time busy = 0;
  double joules = 0.0;
  std::uint64_t events = 0;
  std::uint64_t inlined = 0;
};

/// One job alone on its core, after an idle stretch and at a frequency
/// that makes its ETA non-integral. With `park_noop` a no-op callback sits
/// inside the job's window, so the completion and the resume go through
/// the store; alone, both run in place.
LoneJobRun run_lone_job(bool park_noop) {
  Simulation sim;
  CoreConfig cfg;
  cfg.governor = Governor::kUserspace;
  Core core(sim, 0, cfg);
  core.request_freq(0.73);
  const auto ent = core.add_entity("a");
  LoneJobRun r;
  sim.spawn([](Simulation& s, Core& c, Core::EntityId e, Time& t) -> Task {
    co_await s.sleep_for(777);
    co_await c.run_for(e, 12345);
    t = s.now();
  }(sim, core, ent, r.finished));
  if (park_noop) sim.schedule_at(5000, [] {});
  sim.run();
  r.on_cpu = core.on_cpu_time(ent);
  r.busy = core.busy_time();
  r.joules = core.energy_joules();
  r.events = sim.events_processed();
  r.inlined = sim.events_inlined();
  return r;
}

TEST(CoreTest, InPlaceJobMatchesTheStorePath) {
  const LoneJobRun alone = run_lone_job(false);
  const LoneJobRun stored = run_lone_job(true);
  EXPECT_EQ(alone.inlined, 2u) << "the completion and the resume ran in place";
  EXPECT_EQ(stored.inlined, 0u) << "the parked no-op forces the store path";
  EXPECT_EQ(alone.finished, 777 + 16911);  // ceil(12345 / 0.73)
  EXPECT_EQ(alone.finished, stored.finished);
  EXPECT_EQ(alone.on_cpu, stored.on_cpu);
  EXPECT_EQ(alone.busy, stored.busy);
  EXPECT_EQ(alone.joules, stored.joules);  // bit for bit, not near
  EXPECT_EQ(alone.events + 1, stored.events) << "the paths differ by the no-op alone";
}

TEST(MachineTest, WindowStatsAggregateCoresAndPackage) {
  Simulation sim;
  Machine machine(sim, 2);
  const auto spin = machine.core(0).add_entity("spin");
  machine.core(0).set_spinning(spin, true);
  const auto start = machine.snapshot_all();
  sim.run_until(kSecond);
  const auto end = machine.snapshot_all();
  const auto ws = machine.window_stats(start, end);
  // One of two cores busy: 100% total CPU (out of 200 possible).
  EXPECT_NEAR(ws.total_cpu_usage_percent, 100.0, 0.5);
  const double expect_watts = calib::kPackageBaseWatts + calib::kCoreStaticWatts +
                              calib::kCoreDynamicWatts + calib::kCoreIdleWatts;
  EXPECT_NEAR(ws.avg_package_watts, expect_watts, 0.05);
}

TEST(MachineTest, EmptyWindowIsZero) {
  Simulation sim;
  Machine machine(sim, 2);
  const auto snap = machine.snapshot_all();
  const auto ws = machine.window_stats(snap, snap);
  EXPECT_EQ(ws.avg_package_watts, 0.0);
  EXPECT_EQ(ws.total_cpu_usage_percent, 0.0);
}

}  // namespace
}  // namespace metro::sim
