// Figure 12: CPU sharing with a CPU-intensive competitor (PARSEC ferret
// stand-in). Ferret execution time — alone vs co-scheduled with a
// static-polling l3fwd on one core, and alone vs co-scheduled with the
// three Metronome threads on three cores (Metronome at nice -20, the
// competitor at nice 19, both SCHED_OTHER, as in the paper).
//
// Each run stops when ferret finishes, not after a measurement window, so
// this stays its own binary. Table II (forwarding throughput next to the
// competitor) is a windowed testbed run: bench_paper's `table2` figure.
#include "apps/experiment.hpp"
#include "apps/ferret.hpp"
#include "common.hpp"

using namespace metro;

namespace {

// Ferret execution time with optional packet-path contention.
// mode: 0 = alone, 1 = with static polling (same single core), 2 = with
// Metronome (same three cores).
double ferret_seconds(int mode, sim::Time work, bool fast) {
  apps::ExperimentConfig cfg;
  cfg.driver = mode == 1 ? apps::DriverKind::kStaticPolling : apps::DriverKind::kMetronome;
  cfg.n_cores = mode == 1 ? 1 : 3;
  cfg.workload.rate_mpps = mode == 0 ? 0.0 : 14.88;
  cfg.warmup = 0;
  cfg.measure = fast ? sim::kSecond : 4 * sim::kSecond;

  apps::Testbed bed(cfg);
  if (mode != 0) bed.start();  // mode 0: no packet path at all

  const int n_workers = mode == 1 ? 1 : 3;
  apps::FerretConfig fc;
  fc.total_work = work;
  fc.nice = mode == 1 ? 0 : 19;  // static baseline untuned; Metronome setup tuned
  std::vector<std::shared_ptr<apps::FerretResult>> results;
  for (int i = 0; i < n_workers; ++i) {
    results.push_back(apps::spawn_ferret(bed.sim(), bed.machine().core(i), fc));
  }
  bed.run_until(100 * sim::kSecond);
  double worst = 0.0;
  for (const auto& r : results) {
    if (!r->done()) return -1.0;
    worst = std::max(worst, r->elapsed_seconds());
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::parse_fast(argc, argv);
  const sim::Time work = fast ? sim::kSecond : 2 * sim::kSecond;

  bench::header("Figure 12 - ferret execution time under CPU sharing",
                "next to a static poller ferret's runtime explodes (~3x in the "
                "paper; ~2x here, equal CFS weights); next to Metronome it grows "
                "only ~10-30%");

  const double alone_1core = ferret_seconds(0, work, fast);
  const double with_static = ferret_seconds(1, work, fast);
  const double with_metronome = ferret_seconds(2, work, fast);

  stats::Table fig12({"scenario", "cores", "ferret time (s)", "stretch"});
  fig12.add_row({"alone", "1", bench::num(alone_1core), "1.00x"});
  fig12.add_row({"w/ static DPDK", "1", bench::num(with_static),
                 bench::num(with_static / alone_1core) + "x"});
  fig12.add_row({"alone", "3", bench::num(alone_1core), "1.00x"});
  fig12.add_row({"w/ Metronome", "3", bench::num(with_metronome),
                 bench::num(with_metronome / alone_1core) + "x"});
  fig12.print();
  return 0;
}
