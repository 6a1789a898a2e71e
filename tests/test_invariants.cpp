// Property sweep: system invariants that must hold at every operating
// point of the (M, V-bar, rate, arrival-process) grid.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/experiment.hpp"

namespace metro {
namespace {

using Params = std::tuple<int, double, double, bool>;  // M, V-bar us, Mpps, poisson

class InvariantSweep : public ::testing::TestWithParam<Params> {};

TEST_P(InvariantSweep, HoldAtEveryOperatingPoint) {
  const auto [m, vbar, mpps, poisson] = GetParam();

  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.met.n_threads = m;
  cfg.n_cores = std::max(3, m);
  cfg.met.target_vacation = sim::from_micros(vbar);
  cfg.workload.rate_mpps = mpps;
  cfg.workload.poisson = poisson;
  cfg.warmup = 80 * sim::kMillisecond;
  cfg.measure = 150 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);

  // Load estimate is a probability.
  EXPECT_GE(r.rho, 0.0);
  EXPECT_LE(r.rho, 1.0);

  // CPU usage is positive (threads always wake periodically) and bounded
  // by the thread count.
  EXPECT_GT(r.cpu_percent, 0.0);
  EXPECT_LE(r.cpu_percent, 100.0 * m + 1.0);

  // Throughput can never exceed the offer; loss is a fraction.
  EXPECT_LE(r.throughput_mpps, mpps * 1.02 + 0.01);
  EXPECT_GE(r.loss_permille, 0.0);
  EXPECT_LE(r.loss_permille, 1000.0);

  // Vacation periods are positive and at least the sleep floor; the
  // adaptive rule keeps TS within [V-bar, M * V-bar] (eq. 13 envelope).
  EXPECT_GT(r.vacation_us.count(), 0u);
  EXPECT_GT(r.vacation_us.min(), 0.0);
  EXPECT_GE(r.ts_us, vbar * 0.99);
  EXPECT_LE(r.ts_us, vbar * m * 1.01);

  // Latency includes the fixed path and orders correctly.
  EXPECT_GE(r.latency_us.whisker_lo, sim::to_micros(sim::calib::kFixedPathLatency) * 0.99);
  EXPECT_LE(r.latency_us.p25, r.latency_us.median);
  EXPECT_LE(r.latency_us.median, r.latency_us.p75);

  // Busy-try accounting: failures are a subset of tries.
  EXPECT_GE(r.busy_tries_pct, 0.0);
  EXPECT_LE(r.busy_tries_pct, 100.0);

  // N_V consistency (Little): packets per vacation ~= rate * mean V —
  // valid only while the backlog fits the ring (beyond that N_V saturates
  // at the ring size and the surplus shows up as loss, cf. Table I).
  const double expected_nv = mpps * r.vacation_us.mean();
  if (mpps > 1.0 && expected_nv < sim::calib::kX520DefaultRingSize / 2.0) {
    EXPECT_NEAR(r.nv.mean(), expected_nv, expected_nv * 0.35 + 1.0);
  } else if (expected_nv >= sim::calib::kX520DefaultRingSize) {
    EXPECT_LE(r.nv.mean(), sim::calib::kX520DefaultRingSize + 1.0);  // saturated
    EXPECT_GT(r.loss_permille, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantSweep,
    ::testing::Combine(::testing::Values(2, 3, 5),            // M
                       ::testing::Values(5.0, 20.0),          // V-bar (us)
                       ::testing::Values(1.0, 7.44, 14.88),   // rate (Mpps)
                       ::testing::Values(false, true)),       // CBR / Poisson
    [](const ::testing::TestParamInfo<Params>& info) {
      // Appended into one string: chained operator+ temporaries make GCC
      // warn (-Wrestrict) inside char_traits.
      std::string name = "M";
      name += std::to_string(std::get<0>(info.param));
      name += "_V";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += "_R";
      name += std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
      name += std::get<3>(info.param) ? "_poisson" : "_cbr";
      return name;
    });

class MultiqueueInvariantSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiqueueInvariantSweep, QueueAccountingConsistent) {
  const auto [queues, threads] = GetParam();

  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = queues;
  cfg.n_cores = threads;
  cfg.met.n_threads = threads;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 25.0;
  cfg.workload.n_flows = 4096;
  cfg.warmup = 80 * sim::kMillisecond;
  cfg.measure = 150 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);

  ASSERT_EQ(r.queues.size(), static_cast<std::size_t>(queues));
  std::uint64_t total_tries = 0;
  for (const auto& q : r.queues) {
    EXPECT_GT(q.total_tries, 0u);
    EXPECT_GE(q.rho, 0.0);
    EXPECT_LE(q.rho, 1.0);
    total_tries += q.total_tries;
  }
  EXPECT_EQ(total_tries, r.wakeups);
  EXPECT_NEAR(r.throughput_mpps, 25.0, 1.5);
}

INSTANTIATE_TEST_SUITE_P(Grid, MultiqueueInvariantSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),   // queues
                                            ::testing::Values(4, 6, 8)),  // threads
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
                           std::string name = "Q";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_M";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

}  // namespace
}  // namespace metro
