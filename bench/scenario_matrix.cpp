// Scenario matrix: every registered scenario through the sweep driver.
//
// Two jobs in one binary:
//   1. *Coverage* — run the whole scenario registry (src/scenario/) so
//      every workload shape (CBR, Poisson, IMIX, unbalanced, MMPP,
//      Pareto trains, incast, trace replay, per-flow populations) is
//      exercised end to end.
//   2. *Sweep determinism* — the matrix is executed twice, on --jobs
//      workers and again single-threaded, and the two JSON reports
//      (timing excluded) must be byte-identical: every shard's
//      telemetry fingerprint (every registered counter, summary and
//      latency-histogram bin across every layer) included. A scheduling
//      dependence in the runner or any shared mutable state in the app
//      stack fails the bench.
//
// Flags (docs/BENCHMARKS.md): --list and --only=a,b,c select scenarios;
// --trace=<file> replays an external pcap through the kTrace scenarios
// (the determinism check still applies); --deadline=SECONDS arms the
// per-shard wall-clock watchdog.
//
// Hardened execution: a shard that throws is captured into the report's
// `failures` section (and retried once) instead of terminating the
// process; the bench prints a per-shard failure summary to stderr and
// exits nonzero. Fault-bearing scenarios are held to the same determinism
// gate as healthy ones; their `fault.*` counters are in their rows'
// `metrics` objects.
//
// Writes the report (one row per shard, timing included) to
// BENCH_scenarios.json.
#include <iostream>

#include "common.hpp"
#include "scenario/registry.hpp"

using namespace metro;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  if (args.list) {
    // Greppable registry listing for scripts/CI: names only, one per line.
    for (const auto& s : scenario::all_scenarios()) std::cout << s.name << "\n";
    return 0;
  }

  bench::header("Scenario matrix - all registered scenarios",
                "every workload shape runs end to end, and the sweep report must be "
                "identical for any worker count");

  scenario::SweepMatrix matrix;
  if (args.only.empty()) {
    for (const auto& s : scenario::all_scenarios()) matrix.scenarios.push_back(s.name);
  } else {
    // --only=a,b,c: validate the names eagerly (a typo must fail at
    // launch, same policy as the flag parser).
    for (const auto& name : args.only) {
      if (scenario::find_scenario(name) == nullptr) {
        std::cerr << "unknown scenario '" << name << "' in --only (see --list)\n";
        return 2;
      }
      matrix.scenarios.push_back(name);
    }
  }
  if (args.series_us > 0.0) matrix.series_interval = sim::from_micros(args.series_us);
  if (args.fast) {
    // Determinism holds for any window; short ones keep the CI step cheap.
    matrix.warmup = 10 * sim::kMillisecond;
    matrix.measure = 25 * sim::kMillisecond;
  }

  auto shards = scenario::SweepRunner::expand(matrix);
  if (!args.trace.empty()) {
    // ROADMAP item: replay an *external* pcap through the kTrace arrival
    // model. Only trace-model shards are affected; everything else runs
    // its registered workload.
    std::size_t patched = 0;
    for (auto& s : shards) {
      if (s.config.workload.model == apps::ArrivalModel::kTrace) {
        s.config.workload.trace.path = args.trace;
        ++patched;
      }
    }
    std::cout << "external trace '" << args.trace << "' wired into " << patched
              << " kTrace shard(s)\n\n";
  }
  return bench::run_sweep(
      shards, args,
      [&](const std::vector<scenario::ShardResult>& results, double elapsed) {
        stats::Table table(
            {"scenario", "rx", "tx", "dropped", "processed", "p50 lat (us)", "wall (s)"});
        for (std::size_t i = 0; i < shards.size(); ++i) {
          if (results[i].failed) {
            table.add_row({shards[i].scenario, "FAILED", "-", "-", "-", "-", "-"});
            continue;
          }
          const auto& c = results[i].counters;
          table.add_row({shards[i].scenario, std::to_string(c.rx), std::to_string(c.tx),
                         std::to_string(c.dropped), std::to_string(c.processed),
                         bench::num(results[i].result.latency_us.median),
                         bench::num(results[i].wall_seconds)});
        }
        table.print();
        std::cout << "\n"
                  << shards.size() << " shards on " << args.jobs << " job(s), elapsed "
                  << bench::num(elapsed, 2) << " s\n";
      },
      "BENCH_scenarios.json");
}
