// Related-work comparison (§II): frequency scaling is not CPU
// proportionality.
//
// The paper's core argument against the DVFS line of work ([22] Intel's
// l3fwd-power, [23] power-efficient packet I/O): downclocking a busy-wait
// core saves *power* but the core still reads 100% busy and cannot be
// shared. This bench puts four strategies side by side:
//   static polling (performance), static polling (ondemand governor),
//   l3fwd-power-style userspace frequency scaling, and Metronome.
#include "common.hpp"
#include "dpdk/freq_scaling.hpp"
#include "tgen/feeder.hpp"

using namespace metro;

namespace {

struct Row {
  double cpu = 0.0;
  double watts = 0.0;
  double throughput = 0.0;
};

Row run_freq_scaling(double mpps, const bench::Windows& w) {
  sim::Simulation sim(1);
  sim::CoreConfig core_cfg;
  core_cfg.governor = sim::Governor::kUserspace;
  sim::Machine machine(sim, 1, core_cfg);
  nic::Port port(sim, nic::x520_config(1));
  tgen::FlowSet flows(256, 42);
  tgen::StreamConfig stream;
  stream.rate_pps = mpps * 1e6;
  stream.duration = w.warmup + w.measure + 50 * sim::kMillisecond;
  tgen::StreamGenerator gen(stream, flows, tgen::FlowPicker(256));
  dpdk::FreqScalingStats stats;
  const auto ent =
      dpdk::spawn_freq_scaling_lcore(sim, port, 0, machine.core(0), stats);
  if (mpps > 0) tgen::attach(sim, port, gen);

  sim.run_until(w.warmup);
  const auto start = machine.snapshot_all();
  const auto cpu0 = machine.core(0).on_cpu_time(ent);
  const auto tx0 = port.tx().total_transmitted();
  sim.run_until(w.warmup + w.measure);
  const auto end = machine.snapshot_all();
  const auto ws = machine.window_stats(start, end);

  Row r;
  r.cpu = 100.0 * static_cast<double>(machine.core(0).on_cpu_time(ent) - cpu0) /
          static_cast<double>(w.measure);
  r.watts = ws.avg_package_watts;
  r.throughput =
      static_cast<double>(port.tx().total_transmitted() - tx0) / sim::to_seconds(w.measure) / 1e6;
  return r;
}

Row run_harness(apps::DriverKind kind, sim::Governor governor, double mpps,
                const bench::Windows& w) {
  apps::ExperimentConfig cfg;
  cfg.driver = kind;
  cfg.governor = governor;
  cfg.n_cores = kind == apps::DriverKind::kMetronome ? 3 : 1;
  cfg.workload.rate_mpps = mpps;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  const auto res = apps::run_experiment(cfg);
  return Row{res.cpu_percent, res.package_watts, res.throughput_mpps};
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::parse_fast(argc, argv);
  const auto w = bench::windows(fast);

  bench::header("Related work - DVFS vs CPU proportionality (§II argument)",
                "frequency scaling and the ondemand governor cut power but the "
                "polling core stays 100% busy; only Metronome frees CPU cycles");

  stats::Table table({"rate (Mpps)", "strategy", "CPU (%)", "power (W)", "throughput (Mpps)"});
  for (const double mpps : {14.88, 5.0, 1.0, 0.1, 0.0}) {
    const Row rows[] = {
        run_harness(apps::DriverKind::kStaticPolling, sim::Governor::kPerformance, mpps, w),
        run_harness(apps::DriverKind::kStaticPolling, sim::Governor::kOndemand, mpps, w),
        run_freq_scaling(mpps, w),
        run_harness(apps::DriverKind::kMetronome, sim::Governor::kPerformance, mpps, w),
    };
    const char* names[] = {"static (performance)", "static (ondemand)",
                           "freq scaling (l3fwd-power)", "Metronome"};
    for (int i = 0; i < 4; ++i) {
      table.add_row({bench::num(mpps, 2), names[i], bench::num(rows[i].cpu, 1),
                     bench::num(rows[i].watts, 2), bench::num(rows[i].throughput, 2)});
    }
  }
  table.print();
  std::cout << "\nNote how every polling variant pins its core at 100% regardless of\n"
               "power; Metronome's CPU column is the only one that tracks the load.\n";
  return 0;
}
