// The frequency-scaling poller baseline and the userspace governor.
#include <gtest/gtest.h>

#include "apps/experiment.hpp"
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
    ent = dpdk::spawn_freq_scaling_lcore(sim, port, 0, *core, stats);
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

/// The measurement-window observables of one frequency-scaling run.
struct WindowRow {
  double cpu = 0.0;
  double watts = 0.0;
  double throughput = 0.0;
};

/// Reference rig: one frequency-scaling lcore on a userspace-governed
/// core, wired by hand from the kernel, machine, port and stream feeder,
/// measured with its own window arithmetic. apps::Testbed's kFreqScaling
/// driver must reproduce it exactly.
WindowRow hand_wired_freq_scaling(double mpps, Time warmup, Time measure) {
  sim::Simulation sim(1);
  sim::CoreConfig core_cfg;
  core_cfg.governor = sim::Governor::kUserspace;
  sim::Machine machine(sim, 1, core_cfg);
  nic::Port port(sim, nic::x520_config(1));
  tgen::FlowSet flows(256, 42);
  tgen::StreamConfig stream;
  stream.rate_pps = mpps * 1e6;
  stream.duration = warmup + measure + 50 * sim::kMillisecond;
  tgen::StreamGenerator gen(stream, flows, tgen::FlowPicker(256));
  dpdk::FreqScalingStats stats;
  const auto ent = dpdk::spawn_freq_scaling_lcore(sim, port, 0, machine.core(0), stats);
  if (mpps > 0) tgen::attach(sim, port, gen);

  sim.run_until(warmup);
  const auto start = machine.snapshot_all();
  const auto cpu0 = machine.core(0).on_cpu_time(ent);
  const auto tx0 = port.tx().total_transmitted();
  sim.run_until(warmup + measure);
  const auto end = machine.snapshot_all();

  WindowRow r;
  r.cpu = 100.0 * static_cast<double>(machine.core(0).on_cpu_time(ent) - cpu0) /
          static_cast<double>(measure);
  r.watts = machine.window_stats(start, end).avg_package_watts;
  r.throughput = static_cast<double>(port.tx().total_transmitted() - tx0) /
                 sim::to_seconds(measure) / 1e6;
  return r;
}

TEST(FreqScalingTest, TestbedMatchesHandWiredLcore) {
  // 5.0 Mpps keeps the core at nominal frequency; at 0.1 Mpps it steps
  // down between packets and each arrival cancels the 1 ms idle timeout.
  const Time warmup = 50 * sim::kMillisecond;
  const Time measure = 100 * sim::kMillisecond;
  for (const double mpps : {5.0, 0.1}) {
    apps::ExperimentConfig cfg;
    cfg.driver = apps::DriverKind::kFreqScaling;
    cfg.governor = sim::Governor::kUserspace;
    cfg.n_cores = 1;
    cfg.workload.rate_mpps = mpps;
    cfg.warmup = warmup;
    cfg.measure = measure;
    apps::Testbed bed(cfg);
    bed.start();
    bed.run_until(warmup);
    bed.begin_measurement();
    bed.run_until(warmup + measure);
    const apps::ExperimentResult got = bed.finish_measurement();

    const WindowRow want = hand_wired_freq_scaling(mpps, warmup, measure);
    EXPECT_EQ(got.cpu_percent, want.cpu) << mpps << " Mpps";
    EXPECT_EQ(got.package_watts, want.watts) << mpps << " Mpps";
    EXPECT_EQ(got.throughput_mpps, want.throughput) << mpps << " Mpps";
    EXPECT_GT(got.throughput_mpps, 0.0) << mpps << " Mpps";
    EXPECT_EQ(bed.telemetry().snapshot().counter("freq.q0.packets"), bed.packets_processed())
        << mpps << " Mpps";
    EXPECT_GT(bed.packets_processed(), 0u) << mpps << " Mpps";
  }
}

}  // namespace
}  // namespace metro
