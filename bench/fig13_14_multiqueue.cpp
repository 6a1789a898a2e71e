// Figures 13 + 14: multi-queue (Intel XL710, 37 Mpps) — CPU and power vs
// the number of Metronome threads, for 2/3/4 Rx queues under both
// governors, plus busy tries and rho (Fig. 14). Static DPDK (one polling
// core per queue) is the reference line.
//
// The full app stack is generic over the event-queue backend, so the bench
// takes --backend=heap|wheel|all (default all). With both backends
// enabled every configuration runs on each and the bench *fails* (exit 1)
// if any run's telemetry fingerprint diverges — every registered counter and
// latency-histogram bin across every layer — because the two backends must
// produce the same execution, only at different simulation speed (the
// tracked wall number lives in BENCH_kernel.json's fig13_fullstack).
//
// The whole configuration matrix is expanded up front and executed by
// scenario::SweepRunner on --jobs worker threads (default: half the
// hardware threads) — results are bit-identical for any job count, so the
// tables below don't depend on the parallelism, only the wall time does.
#include <map>

#include "common.hpp"

using namespace metro;
using scenario::BackendKind;
using scenario::Shard;
using scenario::ShardResult;

namespace {

// Upper bound of the Metronome thread-count sweep (M = queues..kMaxCores);
// the print loop flushes each configuration's table at its kMaxCores row.
constexpr int kMaxCores = 8;

apps::ExperimentConfig static_ref_config(sim::Governor governor, int queues,
                                         const bench::Windows& w) {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kStaticPolling;
  cfg.xl710 = true;
  cfg.n_queues = queues;
  cfg.n_cores = queues;
  cfg.governor = governor;
  cfg.workload.rate_mpps = 37.0;
  cfg.workload.n_flows = 4096;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  return cfg;
}

apps::ExperimentConfig metronome_config(sim::Governor governor, int queues, int m,
                                        const bench::Windows& w) {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = queues;
  cfg.n_cores = m;
  cfg.governor = governor;
  cfg.met.n_threads = m;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 37.0;
  cfg.workload.n_flows = 4096;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, bench::BackendChoice::kAll,
                                      bench::default_jobs());
  const auto w = bench::windows(args.fast);
  const auto backends = bench::backend_kinds(args.backend);

  bench::header("Figures 13+14 - multiqueue CPU/power and busy-tries/rho",
                "with 2 queues per-queue load is high (rho ~0.7): gains are mostly "
                "CPU. More queues -> lower per-queue rho, fewer busy tries, larger "
                "CPU and power gains. ondemand trades extra CPU time for power");

  // Expand the whole matrix up front; shard order is the print order.
  const sim::Time series_interval =
      args.series_us > 0.0 ? sim::from_micros(args.series_us) : 0;
  std::vector<Shard> shards;
  for (const BackendKind backend : backends) {
    for (const auto governor : {sim::Governor::kPerformance, sim::Governor::kOndemand}) {
      const char* gov_name =
          governor == sim::Governor::kPerformance ? "performance" : "ondemand";
      for (const int queues : {2, 3, 4}) {
        const std::string base = std::string(gov_name) + "/" + std::to_string(queues) + "q";
        Shard ref{"static/" + base, backend, static_ref_config(governor, queues, w)};
        ref.config.series_interval = series_interval;
        shards.push_back(std::move(ref));
        for (int m = queues; m <= kMaxCores; ++m) {
          Shard met{"metronome/" + base + "/m" + std::to_string(m), backend,
                    metronome_config(governor, queues, m, w)};
          met.config.series_interval = series_interval;
          shards.push_back(std::move(met));
        }
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  scenario::SweepRunner runner(args.jobs);
  // Sweep traces trade depth for breadth: with >100 shards each exporting
  // a lane, a small per-shard ring keeps the Chrome JSON loadable and the
  // post-run export off the wall-time budget (capped events drop at
  // capacity, counted per lane). Single-lane benches (fig9) keep a deep
  // ring instead.
  if (!args.trace_out.empty()) runner.set_tracing(1u << 10);
  const auto results = runner.run(shards);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Print in shard order: static reference line, then the M table.
  std::map<std::string, double> wall_by_backend;
  stats::Table table({"M (cores)", "CPU (%)", "power (W)", "busy tries (%)", "rho",
                      "throughput (Mpps)"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& s = shards[i];
    const apps::ExperimentResult& r = results[i].result;
    wall_by_backend[scenario::backend_name(s.backend)] += results[i].wall_seconds;
    if (s.config.driver == apps::DriverKind::kStaticPolling) {
      if (s.config.n_queues == 2 && s.config.governor == sim::Governor::kPerformance) {
        std::cout << "--- backend: " << scenario::backend_name(s.backend) << " ---\n\n";
      }
      const char* gov_name =
          s.config.governor == sim::Governor::kPerformance ? "performance" : "ondemand";
      std::cout << gov_name << ", " << s.config.n_queues
                << " queues — static DPDK reference: CPU " << bench::num(r.cpu_percent, 0)
                << "%, power " << bench::num(r.package_watts, 1) << " W, throughput "
                << bench::num(r.throughput_mpps, 1) << " Mpps\n";
      continue;
    }
    table.add_row({bench::num(s.config.n_cores, 0), bench::num(r.cpu_percent, 1),
                   bench::num(r.package_watts, 2), bench::num(r.busy_tries_pct, 1),
                   bench::num(r.rho, 3), bench::num(r.throughput_mpps, 1)});
    if (s.config.n_cores == kMaxCores) {  // last row of this configuration's table
      table.print();
      std::cout << "\n";
      table = stats::Table({"M (cores)", "CPU (%)", "power (W)", "busy tries (%)", "rho",
                            "throughput (Mpps)"});
    }
  }

  for (const auto& [backend, wall] : wall_by_backend) {
    std::cout << "total simulation wall time, " << backend << ": " << bench::num(wall, 2)
              << " s (CPU-seconds across shards)\n";
  }
  std::cout << "elapsed: " << bench::num(elapsed, 2) << " s on " << args.jobs << " job(s)\n";

  // Cross-backend identity: every configuration must have produced the
  // exact same packet counters and latency distribution on every backend.
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < shards.size(); ++i) by_key[shards[i].scenario].push_back(i);
  bool diverged = false;
  for (const auto& [key, idx] : by_key) {
    for (std::size_t j = 1; j < idx.size(); ++j) {
      const ShardResult& a = results[idx[0]];
      const ShardResult& b = results[idx[j]];
      // Full telemetry identity: one fingerprint covers every counter,
      // per-queue statistic and latency-histogram bin of the run.
      if (a.fingerprint != b.fingerprint) {
        diverged = true;
        std::cerr << "BACKEND DIVERGENCE at " << key << ": "
                  << scenario::backend_name(shards[idx[0]].backend) << " (rx "
                  << a.counters.rx << ", tx " << a.counters.tx << ", drop "
                  << a.counters.dropped << ", fingerprint " << a.fingerprint << ") vs "
                  << scenario::backend_name(shards[idx[j]].backend) << " (rx "
                  << b.counters.rx << ", tx " << b.counters.tx << ", drop "
                  << b.counters.dropped << ", fingerprint " << b.fingerprint << ")\n";
      }
    }
  }
  if (diverged) {
    std::cerr << "\nFAIL: event-queue backends must produce bit-identical executions\n";
    return 1;
  }
  if (backends.size() > 1) {
    std::cout << "cross-backend check: all " << by_key.size()
              << " configurations produced identical telemetry fingerprints on "
              << backends.size() << " backends\n";
  }
  if (!args.trace_out.empty()) bench::write_sweep_trace(args.trace_out, shards, results, runner);
  return 0;
}
