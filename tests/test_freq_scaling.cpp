// The frequency-scaling poller baseline and the userspace governor.
#include <gtest/gtest.h>

#include "dpdk/freq_scaling.hpp"
#include "dpdk/static_polling.hpp"
#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"

namespace metro {
namespace {

using sim::Time;

TEST(UserspaceGovernorTest, RequestFreqHonoredAndClamped) {
  sim::Simulation sim;
  sim::CoreConfig cfg;
  cfg.governor = sim::Governor::kUserspace;
  sim::Core core(sim, 0, cfg);
  core.request_freq(0.5);
  EXPECT_DOUBLE_EQ(core.freq_ratio(), 0.5);
  core.request_freq(0.01);  // below the floor
  EXPECT_DOUBLE_EQ(core.freq_ratio(), cfg.min_freq_ratio);
  core.request_freq(2.0);  // above nominal
  EXPECT_DOUBLE_EQ(core.freq_ratio(), 1.0);
}

TEST(UserspaceGovernorTest, IgnoredUnderOtherGovernors) {
  sim::Simulation sim;
  sim::Core core(sim, 0, sim::CoreConfig{});  // performance
  core.request_freq(0.5);
  EXPECT_DOUBLE_EQ(core.freq_ratio(), 1.0);
}

struct FreqScalingBed {
  sim::Simulation sim{1};
  sim::CoreConfig core_cfg;
  std::unique_ptr<sim::Core> core;
  nic::Port port;
  tgen::FlowSet flows{64, 1};
  dpdk::FreqScalingStats stats;
  sim::Core::EntityId ent;

  explicit FreqScalingBed(double rate_mpps)
      : core_cfg{[] {
          sim::CoreConfig c;
          c.governor = sim::Governor::kUserspace;
          return c;
        }()},
        core(std::make_unique<sim::Core>(sim, 0, core_cfg)),
        port(sim, nic::x520_config(1)) {
    ent = dpdk::spawn_freq_scaling_lcore(sim, port, 0, *core, dpdk::FreqScalingConfig{}, stats);
    if (rate_mpps > 0) {
      auto gen = std::make_unique<tgen::StreamGenerator>(
          [&] {
            tgen::StreamConfig s;
            s.rate_pps = rate_mpps * 1e6;
            s.duration = 2 * sim::kSecond;
            return s;
          }(),
          flows, tgen::FlowPicker(64));
      generator = std::move(gen);
      tgen::attach(sim, port, *generator);
    }
  }
  std::unique_ptr<tgen::Generator> generator;
};

TEST(FreqScalingTest, DownclocksWhenIdle) {
  FreqScalingBed bed(0.0);
  bed.sim.run_until(500 * sim::kMillisecond);
  EXPECT_NEAR(bed.core->freq_ratio(), bed.core_cfg.min_freq_ratio, 1e-9);
  EXPECT_GT(bed.stats.freq_steps_down, 0u);
  // But the core still reads 100% busy — the paper's §II criticism.
  bed.core->snapshot();
  EXPECT_NEAR(static_cast<double>(bed.core->busy_time()), 500e6, 1e6);
}

TEST(FreqScalingTest, RampsUpUnderLineRate) {
  FreqScalingBed bed(14.88);
  bed.sim.run_until(500 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(bed.core->freq_ratio(), 1.0);
  EXPECT_EQ(bed.port.total_dropped(), 0u);
  EXPECT_GT(bed.stats.packets_processed, 7'000'000u);
}

TEST(FreqScalingTest, SavesEnergyAtLowLoadVsPlainPolling) {
  // 0.05 Mpps: inter-arrival gaps (20 us ~= 570 empty polls) exceed the
  // 256-poll hysteresis, so the loop downclocks between packets. (At
  // 0.5 Mpps it faithfully does NOT: packets arrive before the threshold.)
  FreqScalingBed scaled(0.05);
  scaled.sim.run_until(500 * sim::kMillisecond);
  scaled.core->snapshot();

  // Plain static poller at full frequency for the same workload.
  sim::Simulation sim2(1);
  sim::Core plain(sim2, 0);
  nic::Port port2(sim2, nic::x520_config(1));
  tgen::FlowSet flows2(64, 1);
  tgen::StreamConfig s;
  s.rate_pps = 0.05e6;
  s.duration = 2 * sim::kSecond;
  tgen::StreamGenerator gen(s, flows2, tgen::FlowPicker(64));
  dpdk::DriverStats pstats;
  dpdk::spawn_static_lcore(sim2, port2, 0, plain, dpdk::StaticPollingConfig{}, pstats);
  tgen::attach(sim2, port2, gen);
  sim2.run_until(500 * sim::kMillisecond);
  plain.snapshot();

  EXPECT_LT(scaled.core->energy_joules(), plain.energy_joules() * 0.8);
  // Both forwarded everything; both burned the whole core.
  EXPECT_EQ(scaled.port.total_dropped(), 0u);
  EXPECT_NEAR(static_cast<double>(scaled.core->busy_time()),
              static_cast<double>(plain.busy_time()), 2e6);
}

TEST(FreqScalingTest, BurstTriggersJumpToMax) {
  FreqScalingBed bed(0.0);
  bed.sim.run_until(200 * sim::kMillisecond);  // fully downclocked
  ASSERT_NEAR(bed.core->freq_ratio(), bed.core_cfg.min_freq_ratio, 1e-9);
  // Inject a burst well above the busy threshold.
  for (int i = 0; i < 256; ++i) {
    nic::PacketDesc p;
    p.arrival = bed.sim.now();
    bed.port.rx(p);
  }
  // Probe right after the burst is drained (a longer idle stretch would
  // legitimately step the frequency back down).
  bed.sim.run_until(bed.sim.now() + 200 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(bed.core->freq_ratio(), 1.0);
  EXPECT_GT(bed.stats.freq_jumps_up, 0u);
}

}  // namespace
}  // namespace metro
