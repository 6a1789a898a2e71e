// Telemetry layer: MetricSet registration/window/fingerprint
// semantics, the JsonWriter emission path, and the end-to-end claim the
// refactor makes: the full-set fingerprint catches divergences the old
// hand-picked counter comparison was blind to.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "apps/experiment.hpp"
#include "core/planner.hpp"
#include "scenario/sweep.hpp"
#include "sim/rng.hpp"
#include "stats/json_writer.hpp"
#include "stats/metric_set.hpp"

namespace metro {
namespace {

// --- registration & lookup --------------------------------------------------

TEST(MetricSetTest, OwnedAndAttachedMetricsInRegistrationOrder) {
  stats::MetricSet set;
  std::uint64_t external = 7;
  std::uint64_t& owned = set.counter("owned");
  set.attach_counter("external", external);
  double& g = set.gauge("level");
  stats::Summary& s = set.summary("samples");
  set.histogram("dist", 1.0, 10.0);

  owned = 3;
  external = 11;
  g = 2.5;
  s.add(4.0);

  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set.name(0), "owned");
  EXPECT_EQ(set.name(1), "external");
  EXPECT_EQ(set.kind(4), stats::MetricKind::kHistogram);

  const auto snap = set.snapshot();
  EXPECT_EQ(snap.counter("owned"), 3u);
  EXPECT_EQ(snap.counter("external"), 11u);
  EXPECT_DOUBLE_EQ(snap.gauge("level"), 2.5);
  EXPECT_EQ(snap.summary("samples").count(), 1u);
  EXPECT_EQ(snap.find("no_such_metric"), nullptr);
  EXPECT_THROW(snap.counter("level"), std::invalid_argument);  // kind mismatch
  EXPECT_THROW(snap.counter("missing"), std::out_of_range);
}

TEST(MetricSetTest, DuplicateNameThrows) {
  stats::MetricSet set;
  set.counter("x");
  EXPECT_THROW(set.counter("x"), std::invalid_argument);
  EXPECT_THROW(set.gauge("x"), std::invalid_argument);
}

// --- window semantics -------------------------------------------------------

TEST(MetricSetTest, WindowDeltaSubtractsCountersAndResetsDistributions) {
  stats::MetricSet set;
  std::uint64_t& c = set.counter("events");
  stats::Summary& s = set.summary("lat");
  stats::Histogram& h = set.histogram("hist", 1.0, 10.0);

  c = 100;
  s.add(1.0);
  h.add(2.0);

  const auto start = set.window_start();
  EXPECT_EQ(start.counter("events"), 100u) << "baseline keeps the lifetime total";
  EXPECT_EQ(s.count(), 0u) << "window_start resets summaries";
  EXPECT_EQ(h.count(), 0u) << "window_start resets histograms";

  c += 42;
  s.add(5.0);
  h.add(3.0);

  const auto d = set.delta(start);
  EXPECT_EQ(d.counter("events"), 42u) << "delta is window-relative";
  EXPECT_EQ(d.summary("lat").count(), 1u);
  EXPECT_DOUBLE_EQ(d.summary("lat").mean(), 5.0);
  EXPECT_EQ(d.histogram("hist").count(), 1u);

  // Shape mismatches must fail loudly, not misattribute values.
  stats::MetricSet other;
  other.counter("events");
  EXPECT_THROW(other.delta(start), std::invalid_argument);
}

// --- fingerprint ------------------------------------------------------------

TEST(MetricSetTest, FingerprintMatchesSnapshotAndSeesEveryValue) {
  stats::MetricSet set;
  std::uint64_t& c = set.counter("c");
  double& g = set.gauge("g");
  stats::Summary& s = set.summary("s");
  stats::Histogram& h = set.histogram("h", 1.0, 10.0);
  c = 1;
  g = 2.0;
  s.add(3.0);
  h.add(4.0);

  const std::uint64_t base = set.fingerprint();
  EXPECT_EQ(base, set.snapshot().fingerprint())
      << "live set and its snapshot must digest identically";

  ++c;
  const std::uint64_t after_counter = set.fingerprint();
  EXPECT_NE(base, after_counter);
  g = 2.5;
  EXPECT_NE(after_counter, set.fingerprint());
  const std::uint64_t before_hist = set.fingerprint();
  h.add(9.0);
  EXPECT_NE(before_hist, set.fingerprint()) << "histogram bins are covered";
  const std::uint64_t before_summary = set.fingerprint();
  s.add(3.0);
  EXPECT_NE(before_summary, set.fingerprint());
}

TEST(MetricSetTest, FingerprintIsOrderAndNameSensitive) {
  stats::MetricSet ab;
  ab.counter("a") = 1;
  ab.counter("b") = 2;
  stats::MetricSet ba;
  ba.counter("b") = 2;
  ba.counter("a") = 1;
  EXPECT_NE(ab.fingerprint(), ba.fingerprint()) << "registration order is identity";

  stats::MetricSet renamed;
  renamed.counter("a") = 1;
  renamed.counter("c") = 2;
  EXPECT_NE(ab.fingerprint(), renamed.fingerprint()) << "names are identity";
}

// --- planner gauges ---------------------------------------------------------

TEST(MetricSetTest, PlannerPredictionsRegisterAsGauges) {
  core::PlannerInput in;
  core::PlannerOutput out = core::plan(in);
  stats::MetricSet set;
  out.register_metrics(set, "plan");
  const auto snap = set.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge("plan.rho"), out.rho);
  EXPECT_DOUBLE_EQ(snap.gauge("plan.cpu_percent"), out.cpu_percent);
  EXPECT_GT(snap.gauge("plan.wakeups_per_sec"), 0.0);
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriterTest, NestedStructureCommasAndEscaping) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "line\nbreak \"quoted\"");
  w.kv("n", std::uint64_t{3});
  w.key("arr").begin_array().value(1).value(2.5).end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  w.finish();
  EXPECT_TRUE(w.done());
  const std::string s = os.str();
  EXPECT_NE(s.find("\"line\\nbreak \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"arr\": [\n"), std::string::npos);
  EXPECT_NE(s.find("\"empty\": {}"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
  // Array elements separated by exactly one comma.
  EXPECT_NE(s.find("1,\n    2.5"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  w.kv("inf", 1.0 / 0.0);
  w.kv("nan", 0.0 / 0.0);
  w.end_object();
  const std::string s = os.str();
  EXPECT_NE(s.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(s.find("\"nan\": null"), std::string::npos);
  EXPECT_EQ(s.find("inf,"), std::string::npos);
}

TEST(JsonWriterTest, DoublesRoundTripDeterministically) {
  std::ostringstream a, b;
  stats::JsonWriter wa(a), wb(b);
  const double v = 0.1 + 0.2;  // not representable exactly
  wa.value(v);
  wb.value(v);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(std::stod(a.str()), v) << "printed text must round-trip the exact double";
}

TEST(MetricSnapshotTest, WriteJsonEmitsEveryKind) {
  stats::MetricSet set;
  set.counter("c") = 5;
  set.gauge("g") = 1.5;
  set.summary("s").add(2.0);
  set.histogram("h", 1.0, 4.0).add(1.0);
  std::ostringstream os;
  stats::JsonWriter w(os);
  set.snapshot().write_json(w);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"c\": 5"), std::string::npos);
  EXPECT_NE(s.find("\"g\": 1.5"), std::string::npos);
  EXPECT_NE(s.find("\"mean\""), std::string::npos);
  EXPECT_NE(s.find("\"digest\""), std::string::npos);
  EXPECT_TRUE(w.done());
}

// --- the refactor's end-to-end claim ----------------------------------------
// A seeded single-counter perturbation that leaves rx/dropped/tx/processed
// untouched: invisible to the old hand-picked ShardCounters comparison,
// caught by the full-set fingerprint.

scenario::ShardCounters counters_view(const stats::MetricSnapshot& snap, int n_queues,
                                      std::uint64_t processed) {
  std::uint64_t dropped = snap.counter("port.cap_drops");
  for (int q = 0; q < n_queues; ++q) {
    dropped += snap.counter("port.q" + std::to_string(q) + ".dropped");
  }
  return scenario::ShardCounters{snap.counter("port.rx"), dropped,
                                 snap.counter("port.tx.transmitted"), processed};
}

TEST(TelemetryDivergenceTest, FingerprintCatchesWhatHandPickedCountersMissed) {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 3;
  cfg.met.n_threads = 3;
  cfg.workload.rate_mpps = 8.0;
  cfg.workload.n_flows = 128;
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 5 * sim::kMillisecond;

  const scenario::Shard shard{"t", cfg};
  const auto r = scenario::SweepRunner(1).run({shard}).at(0);
  ASSERT_GT(r.counters.processed, 1000u) << "shard must do real work";
  ASSERT_GT(r.telemetry.counter("met.q0.busy_tries") + r.telemetry.counter("met.q1.busy_tries"),
            0u)
      << "contended 2-queue setup must record busy tries";

  // Seed the perturbation: one busy-try miscount on queue 0 — the kind of
  // divergence a backend bug in the trylock path would produce.
  auto perturbed = r.telemetry;
  perturbed.set_counter("met.q0.busy_tries", perturbed.counter("met.q0.busy_tries") + 1);

  // The old check (rx/dropped/tx/processed equality) is blind to it...
  EXPECT_EQ(counters_view(perturbed, cfg.n_queues, r.counters.processed), r.counters)
      << "hand-picked counters cannot see a busy-try divergence";
  // ...the full-set fingerprint is not.
  EXPECT_NE(perturbed.fingerprint(), r.fingerprint)
      << "full-telemetry fingerprint must catch a single-counter perturbation";
}

// The testbed registers every layer it assembles: spot-check the tree for
// a metronome shard (port + per-ring + per-queue driver stats + latency).
TEST(TelemetryDivergenceTest, TestbedTelemetryCoversAllLayers) {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.n_queues = 1;
  cfg.n_cores = 2;
  cfg.met.n_threads = 2;
  cfg.workload.rate_mpps = 2.0;
  cfg.competitor.n_workers = 1;
  cfg.warmup = sim::kMillisecond;
  cfg.measure = 2 * sim::kMillisecond;
  apps::Testbed bed(cfg);
  bed.start();
  const auto& t = bed.telemetry();
  for (const char* name :
       {"port.rx", "port.cap_drops", "port.q0.received", "port.q0.dropped",
        "port.tx.transmitted", "latency_us", "met.q0.total_tries", "met.q0.busy_tries",
        "met.q0.vacation_us", "competitor.0.chunks_done"}) {
    EXPECT_TRUE(t.contains(name)) << name << " missing from the testbed telemetry set";
  }
}

}  // namespace
}  // namespace metro
