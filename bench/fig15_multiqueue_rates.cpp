// Figure 15: multi-queue CPU and power under different loads (XL710,
// 4 Rx queues, M = 5, V-bar = 15 us, performance governor).
//
// Backend-generic: --backend=heap|wheel|all selects the event-queue
// backend(s) the stack runs on (default heap, the traditional
// figure-generation path; results are bit-identical across backends, only
// the simulation speed differs). The rate x driver matrix is executed by
// scenario::SweepRunner on --jobs workers; the table is identical for any
// job count.
#include "common.hpp"

using namespace metro;
using scenario::Shard;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, bench::BackendChoice::kHeap,
                                      bench::default_jobs());
  const auto w = bench::windows(args.fast);
  const auto backends = bench::backend_kinds(args.backend);

  bench::header("Figure 15 - multiqueue scaling to the actual traffic",
                "Metronome saves >half of static DPDK's CPU at 37 Mpps line rate, "
                "more at lower rates, and ~2-3 W of package power throughout");

  std::vector<Shard> shards;
  for (const auto backend : backends) {
    for (const double mpps : {37.0, 30.0, 20.0, 15.0, 10.0, 0.0}) {
      for (const bool metronome : {false, true}) {
        apps::ExperimentConfig cfg;
        cfg.driver =
            metronome ? apps::DriverKind::kMetronome : apps::DriverKind::kStaticPolling;
        cfg.xl710 = true;
        cfg.n_queues = 4;
        cfg.n_cores = metronome ? 5 : 4;
        cfg.met.n_threads = 5;
        cfg.met.target_vacation = 15 * sim::kMicrosecond;
        cfg.workload.rate_mpps = mpps;
        cfg.workload.n_flows = 4096;
        cfg.warmup = w.warmup;
        cfg.measure = w.measure;
        shards.push_back(Shard{metronome ? "metronome" : "static", backend, cfg});
      }
    }
  }
  const auto results = scenario::SweepRunner(args.jobs).run(shards);

  const std::size_t per_backend = shards.size() / backends.size();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    if (backends.size() > 1) {
      std::cout << "--- backend: " << scenario::backend_name(backends[b]) << " ---\n";
    }
    stats::Table table({"rate (Mpps)", "driver", "CPU (%)", "power (W)",
                        "throughput (Mpps)"});
    for (std::size_t i = b * per_backend; i < (b + 1) * per_backend; ++i) {
      const auto& r = results[i].result;
      table.add_row({bench::num(shards[i].config.workload.rate_mpps, 0),
                     shards[i].scenario == "metronome" ? "Metronome" : "static DPDK",
                     bench::num(r.cpu_percent, 1), bench::num(r.package_watts, 2),
                     bench::num(r.throughput_mpps, 1)});
    }
    table.print();
  }
  return 0;
}
