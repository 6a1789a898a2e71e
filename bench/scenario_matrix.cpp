// Scenario matrix: every registered scenario on every enabled backend.
//
// Three jobs in one binary:
//   1. *Coverage* — run the whole scenario registry (src/scenario/) so
//      every workload shape (CBR, Poisson, IMIX, unbalanced, MMPP,
//      Pareto trains, incast, trace replay, per-flow populations) is
//      exercised end to end on every event-queue backend.
//   2. *Cross-backend identity* — for each scenario the backends must
//      produce an identical telemetry fingerprint: every registered
//      counter, summary and latency-histogram bin across every layer
//      (stats::MetricSnapshot::fingerprint). Any divergence exits 1;
//      CI runs this with --fast.
//   3. *Sweep determinism* — the matrix is executed twice, on --jobs
//      workers and again single-threaded, and the two merged JSON
//      reports (timing excluded) must be byte-identical. A scheduling
//      dependence in the runner or any shared mutable state in the app
//      stack fails the bench.
//
// Flags (docs/BENCHMARKS.md): --list and --only=a,b,c select scenarios;
// --trace=<file> replays an external pcap through the kTrace scenarios
// (identity checks still apply); --deadline=SECONDS arms the per-shard
// wall-clock watchdog.
//
// Hardened execution: a shard that throws is captured into the report's
// `failures` section (and retried once) instead of terminating the
// process; the bench prints a per-shard failure summary to stderr and
// exits nonzero. Fault-bearing scenarios additionally appear in the
// report's `fault_matrix` block, and are held to the same cross-backend
// and cross-jobs identity gates as healthy ones.
//
// Writes the merged report (timing included) to BENCH_scenarios.json.
#include <iostream>

#include "common.hpp"
#include "scenario/registry.hpp"

using namespace metro;
using scenario::BackendKind;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, bench::BackendChoice::kAll,
                                      bench::default_jobs());
  if (args.list) {
    // Greppable registry listing for scripts/CI: names only, one per line.
    for (const auto& s : scenario::all_scenarios()) std::cout << s.name << "\n";
    return 0;
  }

  bench::header("Scenario matrix - all registered scenarios x event-queue backends",
                "every workload shape must produce an identical full-telemetry "
                "fingerprint on both backends, and the sweep must merge "
                "identically for any worker count");

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
  matrix.backends = bench::backend_kinds(args.backend);
  if (args.series_us > 0.0) matrix.series_interval = sim::from_micros(args.series_us);
  if (args.fast) {
    // Identity holds for any window; short ones keep the CI step cheap.
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
  const auto t0 = std::chrono::steady_clock::now();
  scenario::SweepRunner runner(args.jobs);
  runner.set_shard_deadline(args.deadline_s);
  // Breadth over depth: one small ring per shard keeps the merged Chrome
  // export loadable and cheap across the whole matrix (drops are counted).
  if (!args.trace_out.empty()) runner.set_tracing(1u << 10);
  // The hardened runner captures per-shard exceptions into the results
  // (ShardResult::failed/error) — a shard that cannot even be assembled
  // (e.g. an unreadable --trace file) is reported and counted below
  // instead of taking the whole matrix down.
  std::vector<scenario::ShardResult> results = runner.run(shards);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  stats::Table table({"scenario", "backend", "rx", "tx", "dropped", "processed",
                      "p50 lat (us)", "wall (s)"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (results[i].failed) {
      table.add_row({shards[i].scenario, scenario::backend_name(shards[i].backend), "FAILED",
                     "-", "-", "-", "-", "-"});
      continue;
    }
    const auto& c = results[i].counters;
    table.add_row({shards[i].scenario, scenario::backend_name(shards[i].backend),
                   std::to_string(c.rx), std::to_string(c.tx), std::to_string(c.dropped),
                   std::to_string(c.processed),
                   bench::num(results[i].result.latency_us.median),
                   bench::num(results[i].wall_seconds)});
  }
  table.print();
  std::cout << "\n" << shards.size() << " shards on " << args.jobs << " job(s), elapsed "
            << bench::num(elapsed, 2) << " s\n";

  // --- per-shard failures ----------------------------------------------
  const std::size_t n_failed = scenario::failed_count(results);
  if (n_failed > 0) {
    std::cerr << "\n" << n_failed << " shard(s) failed:\n"
              << scenario::failure_summary(shards, results);
  }

  // --- cross-backend identity ------------------------------------------
  // Full-set identity: the fingerprint covers every registered metric of
  // every layer; the final clock covers the kernel. Failed shards are
  // skipped here: the failure summary and the exit status account them.
  const bool diverged = bench::identity_gate(shards, results) > 0;
  if (!diverged && matrix.backends.size() > 1) {
    std::cout << "cross-backend check: all " << matrix.scenarios.size()
              << " scenarios identical across " << matrix.backends.size() << " backends\n";
  }

  // --- sweep determinism: jobs=N vs jobs=1 must merge identically ------
  bool nondeterministic = false;
  if (args.jobs > 1) {
    // Same runner configuration, one worker: failure capture included —
    // a deterministic failure must produce the identical `failures`
    // section on any worker count. Deliberately untraced: the identity
    // gate below also proves tracing itself never perturbs results.
    scenario::SweepRunner serial_runner(1);
    serial_runner.set_shard_deadline(args.deadline_s);
    const std::vector<scenario::ShardResult> serial = serial_runner.run(shards);
    const std::string parallel_json = scenario::report_json(shards, results, false);
    const std::string serial_json = scenario::report_json(shards, serial, false);
    if (parallel_json != serial_json) {
      nondeterministic = true;
      std::cerr << "SWEEP NONDETERMINISM: merged report differs between --jobs="
                << args.jobs << " and --jobs=1\n";
    } else {
      std::cout << "determinism check: --jobs=" << args.jobs
                << " and --jobs=1 reports are byte-identical\n";
    }
  }

  bench::write_report("BENCH_scenarios.json",
                      scenario::report_json(shards, results, true, &runner));
  std::cout << "wrote BENCH_scenarios.json\n";
  if (!args.trace_out.empty()) bench::write_sweep_trace(args.trace_out, shards, results, runner);
  if (diverged || nondeterministic || n_failed > 0) {
    std::cerr << "\nFAIL:";
    if (diverged) std::cerr << " cross-backend divergence";
    if (nondeterministic) std::cerr << " nondeterministic sweep merge";
    if (n_failed > 0) std::cerr << " " << n_failed << " failed shard(s)";
    std::cerr << "\n";
    return 1;
  }
  return 0;
}
