// Scenario subsystem: registry sanity, generator determinism, and
// SweepRunner expansion and merge determinism across worker counts
// (each arrival model's cross-store identity lives with the other
// cross-store tests, in test_backend_fullstack.cpp).
//
// The identity fingerprints here are deliberately deep (counters, event
// totals, final clock, raw latency-histogram digest), because the
// scenario layer's whole claim is that a scenario is a pure function of
// its config under any parallelism.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "tgen/bursty.hpp"
#include "util/seed_mix.hpp"

namespace metro {
namespace {

using apps::ArrivalModel;

// --- seed mixer -------------------------------------------------------------

TEST(SeedMixTest, MatchesSplitMix64Reference) {
  // Reference values of the SplitMix64 stream seeded with 0 (Vigna's
  // splitmix64.c): the mixer must reproduce the published algorithm.
  EXPECT_EQ(util::splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::splitmix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
}

TEST(SeedMixTest, DerivedSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 2ULL, 1000ULL}) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(util::mix_seed(base, stream));
    }
  }
  EXPECT_EQ(seen.size(), 3u * 64u) << "adjacent bases/streams must not collide";
  EXPECT_EQ(util::mix_seed(42, 7), util::mix_seed(42, 7));
}

// --- registry ---------------------------------------------------------------

TEST(ScenarioRegistryTest, RegistersDiverseScenarios) {
  const auto& reg = scenario::all_scenarios();
  ASSERT_GE(reg.size(), 5u) << "the matrix bench needs at least 5 scenarios";
  std::set<std::string> names;
  std::set<ArrivalModel> models;
  for (const auto& s : reg) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.summary.empty());
    EXPECT_GT(s.config.workload.rate_mpps, 0.0) << s.name << " must offer traffic";
    names.insert(s.name);
    models.insert(s.config.workload.model);
  }
  EXPECT_EQ(names.size(), reg.size()) << "names must be unique";
  // Every arrival model ships at least one registered scenario.
  EXPECT_TRUE(models.count(ArrivalModel::kStream));
  EXPECT_TRUE(models.count(ArrivalModel::kPerFlow));
  EXPECT_TRUE(models.count(ArrivalModel::kMmpp));
  EXPECT_TRUE(models.count(ArrivalModel::kParetoTrain));
  EXPECT_TRUE(models.count(ArrivalModel::kIncast));
  EXPECT_TRUE(models.count(ArrivalModel::kTrace));
}

TEST(ScenarioRegistryTest, FindByName) {
  EXPECT_NE(scenario::find_scenario("mmpp_bursty"), nullptr);
  EXPECT_EQ(scenario::find_scenario("no_such_scenario"), nullptr);
}

// --- generator determinism --------------------------------------------------

template <typename Gen>
void expect_identical_streams(Gen& a, Gen& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_EQ(pa.has_value(), pb.has_value()) << "at packet " << i;
    if (!pa.has_value()) return;
    EXPECT_EQ(pa->arrival, pb->arrival);
    EXPECT_EQ(pa->flow_id, pb->flow_id);
    EXPECT_EQ(pa->rss_hash, pb->rss_hash);
    EXPECT_EQ(pa->wire_size, pb->wire_size);
  }
}

template <typename Gen>
void expect_monotone_arrivals(Gen& g, std::size_t n) {
  sim::Time last = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = g.next();
    if (!p.has_value()) return;
    EXPECT_GE(p->arrival, last) << "arrivals must be non-decreasing (packet " << i << ")";
    last = p->arrival;
  }
}

TEST(BurstyGeneratorTest, MmppIsDeterministicAndMonotone) {
  tgen::FlowSet flows(64, 9);
  tgen::MmppConfig cfg;
  cfg.mean_rate_pps = 5e6;
  cfg.duration = 20 * sim::kMillisecond;
  cfg.seed = 77;
  tgen::MmppGenerator a(cfg, flows, tgen::FlowPicker(64));
  tgen::MmppGenerator b(cfg, flows, tgen::FlowPicker(64));
  expect_identical_streams(a, b, 20000);
  tgen::MmppGenerator c(cfg, flows, tgen::FlowPicker(64));
  expect_monotone_arrivals(c, 20000);
}

TEST(BurstyGeneratorTest, MmppLongRunRateTracksMean) {
  tgen::FlowSet flows(64, 9);
  tgen::MmppConfig cfg;
  cfg.mean_rate_pps = 5e6;
  cfg.duration = 200 * sim::kMillisecond;
  cfg.seed = 5;
  tgen::MmppGenerator g(cfg, flows, tgen::FlowPicker(64));
  std::uint64_t n = 0;
  while (g.next().has_value()) ++n;
  const double measured = static_cast<double>(n) / sim::to_seconds(cfg.duration);
  // Defaults keep the configured mean exactly (3.7 * 0.25 + 0.1 * 0.75 = 1);
  // ~500 dwell cycles over the 200 ms horizon leave a few percent of
  // noise, so 8% both catches a biased shape and stays stable.
  EXPECT_NEAR(measured, cfg.mean_rate_pps, 0.08 * cfg.mean_rate_pps);
}

TEST(BurstyGeneratorTest, ParetoTrainsAreDeterministicAndHeavyTailed) {
  tgen::FlowSet flows(256, 9);
  tgen::ParetoTrainConfig cfg;
  cfg.rate_pps = 10e6;
  cfg.duration = 50 * sim::kMillisecond;
  cfg.seed = 123;
  tgen::ParetoTrainGenerator a(cfg, flows);
  tgen::ParetoTrainGenerator b(cfg, flows);
  expect_identical_streams(a, b, 50000);

  // Train lengths: count runs of equal flow_id. Heavy tail => max run far
  // above the mean run.
  tgen::ParetoTrainGenerator c(cfg, flows);
  std::uint64_t runs = 0, packets = 0, cur = 0, max_run = 0;
  std::uint32_t last_flow = 0xffffffffu;
  while (auto p = c.next()) {
    ++packets;
    if (p->flow_id == last_flow) {
      ++cur;
    } else {
      if (cur > 0) ++runs;
      max_run = std::max(max_run, cur);
      cur = 1;
      last_flow = p->flow_id;
    }
  }
  max_run = std::max(max_run, cur);
  ASSERT_GT(runs, 100u);
  const double mean_run = static_cast<double>(packets) / static_cast<double>(runs);
  EXPECT_GT(max_run, static_cast<std::uint64_t>(10.0 * mean_run))
      << "Pareto(1.3) trains should produce elephants well above the mean";
}

TEST(BurstyGeneratorTest, IncastEpochsAreSynchronizedBursts) {
  tgen::FlowSet flows(256, 9);
  tgen::IncastConfig cfg;
  cfg.rate_pps = 5e6;
  cfg.duration = 10 * sim::kMillisecond;
  cfg.seed = 11;
  tgen::IncastGenerator a(cfg, flows);
  tgen::IncastGenerator b(cfg, flows);
  expect_identical_streams(a, b, 30000);

  tgen::IncastGenerator c(cfg, flows);
  expect_monotone_arrivals(c, 30000);

  // Structure: epochs of fan_in * burst_per_sender packets spaced
  // intra_gap apart, separated by long silences.
  tgen::IncastGenerator d(cfg, flows);
  const std::uint32_t per_epoch = cfg.shape.fan_in * cfg.shape.burst_per_sender;
  auto first = d.next();
  ASSERT_TRUE(first.has_value());
  sim::Time prev = first->arrival;
  std::uint32_t in_epoch = 1;
  for (std::uint32_t i = 1; i < 4 * per_epoch; ++i) {
    const auto p = d.next();
    ASSERT_TRUE(p.has_value());
    const sim::Time gap = p->arrival - prev;
    if (gap == cfg.shape.intra_gap) {
      ++in_epoch;
    } else {
      EXPECT_EQ(in_epoch, per_epoch) << "burst must span the whole fan-in";
      EXPECT_GT(gap, 100 * cfg.shape.intra_gap) << "epochs must be separated by silence";
      in_epoch = 1;
    }
    prev = p->arrival;
  }
}

// --- sweep runner -----------------------------------------------------------

struct Fingerprint {
  std::uint64_t telemetry = 0;  ///< full MetricSet digest (all layers)
  scenario::ShardCounters counters;
  std::uint64_t events = 0;
  sim::Time final_clock = 0;
  std::uint64_t latency_count = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const scenario::ShardResult& r) {
  return Fingerprint{r.fingerprint, r.counters, r.events, r.final_clock, r.latency_count};
}

scenario::SweepMatrix small_matrix() {
  scenario::SweepMatrix m;
  m.scenarios = {"cbr_uniform", "mmpp_bursty", "incast_sync"};
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  return m;
}

TEST(SweepRunnerTest, ExpandKeepsRegisteredSeedsAndAppliesOverrides) {
  scenario::SweepMatrix m = small_matrix();
  m.series_interval = sim::kMillisecond;
  const auto shards = scenario::SweepRunner::expand(m);
  ASSERT_EQ(shards.size(), m.scenarios.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const apps::ExperimentConfig& registered = scenario::find_scenario(m.scenarios[i])->config;
    EXPECT_EQ(shards[i].scenario, m.scenarios[i]) << "matrix order";
    EXPECT_EQ(shards[i].config.seed, registered.seed) << shards[i].scenario;
    EXPECT_EQ(shards[i].config.workload.seed, registered.workload.seed) << shards[i].scenario;
    EXPECT_EQ(shards[i].config.warmup, m.warmup);
    EXPECT_EQ(shards[i].config.measure, m.measure);
    EXPECT_EQ(shards[i].config.series_interval, m.series_interval);
  }
}

TEST(SweepRunnerTest, ExpandRejectsUnknownScenario) {
  scenario::SweepMatrix m = small_matrix();
  m.scenarios.push_back("no_such_scenario");
  EXPECT_THROW(scenario::SweepRunner::expand(m), std::invalid_argument);
}

TEST(SweepRunnerTest, ResultsIdenticalForAnyWorkerCount) {
  const auto shards = scenario::SweepRunner::expand(small_matrix());
  const auto serial = scenario::SweepRunner(1).run(shards);
  const auto parallel = scenario::SweepRunner(4).run(shards);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint_of(serial[i]), fingerprint_of(parallel[i])) << "shard " << i;
  }
  // And the JSON report (timing excluded) is byte-identical.
  EXPECT_EQ(scenario::report_json(shards, serial, false),
            scenario::report_json(shards, parallel, false));
}

/// The keys of a JSON document's outermost object, in order.
std::vector<std::string> top_level_keys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '"') {
      const std::size_t start = i + 1;
      for (++i; json[i] != '"'; ++i) {
        if (json[i] == '\\') ++i;
      }
      const std::size_t next = json.find_first_not_of(" \n", i + 1);
      if (depth == 1 && next != std::string::npos && json[next] == ':') {
        keys.push_back(json.substr(start, i - start));
      }
    }
  }
  return keys;
}

TEST(SweepRunnerTest, ReportIsOneRowPerShardPlusFailures) {
  scenario::SweepMatrix m = small_matrix();
  m.scenarios.push_back("cbr_lossy");
  m.series_interval = sim::kMillisecond;
  const auto shards = scenario::SweepRunner::expand(m);
  scenario::SweepRunner runner(1);
  const auto results = runner.run(shards);
  // Nothing is aggregated across shards, fault and series shards included.
  EXPECT_EQ(top_level_keys(scenario::report_json(shards, results, false)),
            (std::vector<std::string>{"shards", "failures"}));
  // The per-worker counters ride only the timing path.
  EXPECT_EQ(top_level_keys(scenario::report_json(shards, results, true, &runner)),
            (std::vector<std::string>{"shards", "failures", "sweep_workers"}));
}

}  // namespace
}  // namespace metro
