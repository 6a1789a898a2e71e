// Metronome runtime (simulated): protocol behaviour and adaptivity.
#include <gtest/gtest.h>

#include "apps/experiment.hpp"
#include "core/metronome.hpp"

namespace metro {
namespace {

using apps::DriverKind;
using apps::ExperimentConfig;
using apps::run_experiment;

ExperimentConfig base_config(double rate_mpps) {
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.workload.rate_mpps = rate_mpps;
  cfg.warmup = 100 * sim::kMillisecond;
  cfg.measure = 300 * sim::kMillisecond;
  return cfg;
}

TEST(MetronomeTest, LineRateNoLossAtDefaultSettings) {
  // Table I anchor: V-bar = 10 us, M = 3, TL = 500 us -> no loss at
  // 14.88 Mpps line rate.
  const auto r = run_experiment(base_config(14.88));
  EXPECT_NEAR(r.throughput_mpps, 14.88, 0.1);
  EXPECT_LT(r.loss_permille, 0.05);
}

TEST(MetronomeTest, CpuScalesWithLoad) {
  const auto high = run_experiment(base_config(14.88));
  const auto mid = run_experiment(base_config(7.44));
  const auto low = run_experiment(base_config(0.744));
  EXPECT_GT(high.cpu_percent, mid.cpu_percent);
  EXPECT_GT(mid.cpu_percent, low.cpu_percent);
  EXPECT_LT(high.cpu_percent, 100.0);  // the headline: less than one core
  EXPECT_LT(low.cpu_percent, 25.0);
}

TEST(MetronomeTest, RhoTracksOfferedLoad) {
  // rho = lambda/mu with mu ~= 1/38 ns: at 14.88 Mpps rho ~= 0.57.
  const auto r = run_experiment(base_config(14.88));
  const double mu = 1e9 / static_cast<double>(sim::calib::kL3fwdPerPacketCost);
  const double expect = 14.88e6 / mu;
  EXPECT_NEAR(r.rho, expect, 0.08);
  const auto low = run_experiment(base_config(1.0));
  EXPECT_LT(low.rho, 0.15);
}

TEST(MetronomeTest, VacationTracksTargetAtHighLoad) {
  auto cfg = base_config(14.88);
  cfg.met.target_vacation = 10 * sim::kMicrosecond;
  const auto r = run_experiment(cfg);
  // Table I: measured V overshoots the target because of the sleep-service
  // overhead (~19.5 us measured for a 10 us target); it must land between
  // the target and ~3x the target.
  EXPECT_GT(r.vacation_us.mean(), 10.0);
  EXPECT_LT(r.vacation_us.mean(), 30.0);
}

TEST(MetronomeTest, LargerTargetVacationLowersCpu) {
  auto small = base_config(14.88);
  small.met.target_vacation = 2 * sim::kMicrosecond;
  auto large = base_config(14.88);
  large.met.target_vacation = 10 * sim::kMicrosecond;
  const auto rs = run_experiment(small);
  const auto rl = run_experiment(large);
  EXPECT_GT(rs.cpu_percent, rl.cpu_percent);          // Fig. 5 trade-off
  EXPECT_LT(rs.latency_us.mean, rl.latency_us.mean);  // and its other side
}

TEST(MetronomeTest, TsAdaptsToLoadPerEq13) {
  // Low load: TS -> M * V-bar; high load: TS -> V-bar.
  auto cfg = base_config(0.1);
  cfg.met.target_vacation = 10 * sim::kMicrosecond;
  const auto low = run_experiment(cfg);
  EXPECT_NEAR(low.ts_us, 30.0, 3.0);
  const auto high = run_experiment(base_config(14.88));
  EXPECT_LT(high.ts_us, 20.0);
  EXPECT_GT(high.ts_us, 10.0);
}

TEST(MetronomeTest, BusyTriesGrowWithThreads) {
  // Fig. 7: more threads -> linearly more wasted wake-ups.
  double prev = -1.0;
  for (const int m : {2, 4, 6}) {
    auto cfg = base_config(14.88);
    cfg.met.n_threads = m;
    const auto r = run_experiment(cfg);
    EXPECT_GT(r.busy_tries_pct, prev) << "M=" << m;
    prev = r.busy_tries_pct;
  }
}

TEST(MetronomeTest, BusyTriesShrinkWithLongerTl) {
  // Fig. 6: longer TL -> fewer wasted wake-ups.
  auto short_tl = base_config(14.88);
  short_tl.met.long_timeout = 100 * sim::kMicrosecond;
  auto long_tl = base_config(14.88);
  long_tl.met.long_timeout = 700 * sim::kMicrosecond;
  const auto rs = run_experiment(short_tl);
  const auto rl = run_experiment(long_tl);
  EXPECT_GT(rs.busy_tries_pct, rl.busy_tries_pct);
}

TEST(MetronomeTest, EqualTimeoutsBurnMoreCpuAtHighLoad) {
  // §IV-A's motivation: without the primary/backup diversity, threads keep
  // waking into ongoing busy periods.
  auto diverse = base_config(14.88);
  auto equal = base_config(14.88);
  equal.met.primary_backup = false;
  const auto rd = run_experiment(diverse);
  const auto re = run_experiment(equal);
  EXPECT_GT(re.cpu_percent, rd.cpu_percent * 1.15);
  EXPECT_GT(re.busy_tries_pct, rd.busy_tries_pct);
}

TEST(MetronomeTest, MoreThreadsRaiseLatency) {
  // Fig. 8: larger M -> longer sleeps for primaries (eq. 13) -> latency up.
  auto m2 = base_config(14.88);
  m2.met.n_threads = 2;
  auto m6 = base_config(14.88);
  m6.met.n_threads = 6;
  m6.n_cores = 6;
  const auto r2 = run_experiment(m2);
  const auto r6 = run_experiment(m6);
  EXPECT_GT(r6.latency_us.mean, r2.latency_us.mean);
}

TEST(MetronomeTest, NvMatchesLittlesLaw) {
  // N_V = lambda * E[V] (packets accumulating over a vacation).
  const auto r = run_experiment(base_config(14.88));
  const double expect = 14.88 * r.vacation_us.mean();  // Mpps * us = packets
  EXPECT_NEAR(r.nv.mean(), expect, expect * 0.15);
}

TEST(MetronomeTest, TxBatchOneCutsLowRateLatency) {
  // §V-C: batch = 1 removes the stranded-in-Tx-buffer latency tail.
  auto batched = base_config(0.744);
  batched.tx_batch = 32;
  auto immediate = base_config(0.744);
  immediate.tx_batch = 1;
  const auto rb = run_experiment(batched);
  const auto ri = run_experiment(immediate);
  EXPECT_LT(ri.latency_us.mean, rb.latency_us.mean - 5.0);
  EXPECT_LT(ri.latency_us.stddev, rb.latency_us.stddev);
}

TEST(MetronomeTest, MultiqueueServesAllQueuesEvenly) {
  auto cfg = base_config(30.0);
  cfg.xl710 = true;
  cfg.n_queues = 4;
  cfg.n_cores = 5;
  cfg.met.n_threads = 5;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  const auto r = run_experiment(cfg);
  EXPECT_NEAR(r.throughput_mpps, 30.0, 0.5);
  ASSERT_EQ(r.queues.size(), 4u);
  for (const auto& q : r.queues) {
    EXPECT_GT(q.total_tries, 0u);
    EXPECT_GT(q.rho, 0.05);
  }
}

TEST(MetronomeTest, UnbalancedQueueHasHigherRhoAndFewerTries) {
  // Table III: the hot queue (30% single flow + its share of the rest)
  // shows higher rho, higher busy-try %, fewer total tries.
  auto cfg = base_config(14.0);
  cfg.xl710 = true;
  cfg.n_queues = 3;
  cfg.n_cores = 4;
  cfg.met.n_threads = 4;
  cfg.workload.heavy_share = 0.30;
  cfg.workload.n_flows = 1000;
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.queues.size(), 3u);
  // Identify the hot queue as the one with max rho.
  std::size_t hot = 0;
  for (std::size_t q = 1; q < 3; ++q) {
    if (r.queues[q].rho > r.queues[hot].rho) hot = q;
  }
  for (std::size_t q = 0; q < 3; ++q) {
    if (q == hot) continue;
    EXPECT_GT(r.queues[hot].rho, r.queues[q].rho);
    EXPECT_LT(r.queues[hot].total_tries, r.queues[q].total_tries);
  }
}

TEST(MetronomeTest, SurvivesZeroTraffic) {
  auto cfg = base_config(0.0);
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.throughput_mpps, 0.0);
  EXPECT_GT(r.cpu_percent, 0.0);   // periodic wake-ups still poll
  EXPECT_LT(r.cpu_percent, 30.0);
  EXPECT_LT(r.rho, 0.05);
}

}  // namespace
}  // namespace metro
