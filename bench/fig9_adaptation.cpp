// Figure 9: Metronome's adaptation to a MoonGen-style rate ramp.
//
// The paper modifies MoonGen's rate-control-methods.lua to step the rate up
// every 2 s to 14 Mpps at ~30 s, then back down, over one minute. We replay
// the same profile (time-compressed by default: the dynamics live at the
// microsecond scale, so a 12 s ramp with 0.4 s steps exercises exactly the
// same adaptation path) and sample, every profile step: the true offered
// rate, Metronome's estimated rate (rho-hat * mu), TS, rho and CPU usage.
//
// --series=INTERVAL_US additionally samples the testbed's telemetry series
// (ExperimentConfig::series_interval) and prints a per-window telemetry table (rx/tx rate, drops,
// mean latency, wake-ups, window fingerprint) after the adaptation table;
// --trace-out=<file> records the run's kernel/NIC/Metronome trace events
// and writes them as Chrome trace-event JSON.
#include <memory>

#include "apps/experiment.hpp"
#include "common.hpp"
#include "scenario/sweep.hpp"
#include "tgen/feeder.hpp"

using namespace metro;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, bench::BackendChoice::kHeap, 1);
  const bool fast = args.fast;
  const sim::Time total = fast ? 6 * sim::kSecond : 12 * sim::kSecond;
  const sim::Time step = total / 30;  // 30 rate steps, as in a 60 s / 2 s ramp

  bench::header("Figure 9 - adaptation to a varying load",
                "estimated rate tracks the generated rate; TS moves inversely with "
                "load (eq. 13); CPU rises from ~15-20% idle-ish to ~60% at 14 Mpps");

  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.workload.rate_mpps = 0.0;  // the ramp generator below feeds the port
  cfg.warmup = 0;
  cfg.measure = total;
  if (args.series_us > 0.0) cfg.series_interval = sim::from_micros(args.series_us);

  apps::Testbed bed(cfg);
  std::unique_ptr<trace::Tracer> tracer;
  if (!args.trace_out.empty()) {
    tracer = std::make_unique<trace::Tracer>(1u << 15);
    bed.set_tracer(tracer.get());
  }
  tgen::FlowSet flows(256, 7);
  tgen::RampProfile ramp(0.5e6, 14e6, step, total);
  tgen::ProfileGenerator gen(ramp, total, 64, flows,
                             tgen::FlowPicker(256));
  bed.start();
  tgen::attach(bed.sim(), bed.port(), gen);
  // The window is the whole run; with --series this arms the recorder
  // after the feeder, so its ticks order behind the feeder's events.
  bed.begin_measurement();

  const double mu_pps = 1e9 / static_cast<double>(sim::calib::kL3fwdPerPacketCost);

  stats::Table table({"t (s)", "offered (Mpps)", "estimated (Mpps)", "TS (us)", "rho",
                      "CPU (%)"});
  std::uint64_t last_packets = 0;
  bed.window_cpu_percent();  // prime the probe
  for (sim::Time t = step; t <= total; t += step) {
    bed.run_until(t);
    auto* met = bed.metronome();
    const double rho = met->mean_rho();
    const double cpu = bed.window_cpu_percent();
    const std::uint64_t packets = bed.packets_processed();
    const double offered =
        static_cast<double>(packets - last_packets) / sim::to_seconds(step) / 1e6;
    last_packets = packets;
    table.add_row({bench::num(sim::to_seconds(t), 2), bench::num(offered, 2),
                   bench::num(rho * mu_pps / 1e6, 2), bench::num(met->mean_ts_us(), 2),
                   bench::num(rho, 3), bench::num(cpu, 1)});
  }
  table.print();
  bed.finish_measurement();

  if (const stats::SeriesRecorder* series = bed.series()) {
    const scenario::ShardSeries track =
        scenario::compact_series(*series, bed.port().n_rx_queues());
    std::cout << "\nper-window telemetry series, interval " << bench::num(args.series_us, 1)
              << " us (" << track.windows.size() << " windows";
    if (track.dropped_windows > 0) {
      std::cout << ", " << track.dropped_windows << " dropped at capacity";
    }
    std::cout << "):\n";
    stats::Table st({"t_end (s)", "rx (Mpps)", "tx (Mpps)", "dropped", "lat mean (us)",
                     "wakeups", "fingerprint"});
    sim::Time prev_end = 0;
    for (const scenario::SeriesWindow& w : track.windows) {
      const double dt_s = sim::to_seconds(w.t_end - prev_end);
      prev_end = w.t_end;
      const auto rate_mpps = [dt_s](std::uint64_t n) {
        return dt_s > 0.0 ? static_cast<double>(n) / dt_s / 1e6 : 0.0;
      };
      st.add_row({bench::num(sim::to_seconds(w.t_end), 3), bench::num(rate_mpps(w.rx), 2),
                  bench::num(rate_mpps(w.tx), 2), std::to_string(w.dropped),
                  bench::num(w.latency_count > 0
                                 ? w.latency_sum_us / static_cast<double>(w.latency_count)
                                 : 0.0, 2),
                  std::to_string(w.wakeups), std::to_string(w.fingerprint)});
    }
    st.print();
  }

  if (tracer) {
    bench::write_trace_file(args.trace_out, {trace::TraceProcess{"fig9 testbed", tracer.get()}});
  }
  return 0;
}
