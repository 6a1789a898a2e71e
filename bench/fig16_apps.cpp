// Figure 16: CPU usage of the two other ported applications — the IPsec
// security gateway and the FloWatcher traffic monitor — static polling vs
// Metronome, single Rx queue.
//
// Backend-generic: --backend=heap|wheel|all selects the event-queue
// backend(s) the stack runs on (default heap; results are bit-identical
// across backends, only the simulation speed differs). Both apps' rate x
// driver matrices run through scenario::SweepRunner on --jobs workers.
//
// --crypto=live switches the IPsec matrix from charging the calibrated
// per-packet cost to *also* executing the real ESP gateway (AES-CBC 128 +
// HMAC-SHA1-96, encap then decap) for every drained descriptor, via the
// drivers' nic::PacketWork hook. Simulated results are bit-identical to
// the calibrated mode — the hook runs on the wall clock only — and the
// bench asserts exactly that by comparing telemetry fingerprints shard by
// shard. What changes is wall time, so live mode reports wall-clock
// simulated-packets/s and the live/calibrated slowdown per shard.
#include <cstdint>
#include <memory>

#include "common.hpp"
#include "crypto_common.hpp"

using namespace metro;
using scenario::Shard;

namespace {

struct App {
  const char* title;
  sim::Time per_packet_cost;
  std::vector<double> rates;
};

/// The IPsec matrix (ipsec-only in live mode; first app row below).
std::vector<Shard> ipsec_shards(const std::vector<scenario::BackendKind>& backends,
                                const std::vector<double>& rates, const bench::Windows& w) {
  std::vector<Shard> shards;
  for (const auto backend : backends) {
    for (const double mpps : rates) {
      for (const bool metronome : {false, true}) {
        apps::ExperimentConfig cfg;
        cfg.driver = metronome ? apps::DriverKind::kMetronome : apps::DriverKind::kStaticPolling;
        cfg.met.per_packet_cost = sim::calib::kIpsecPerPacketCost;
        cfg.polling.per_packet_cost = sim::calib::kIpsecPerPacketCost;
        cfg.n_cores = 3;
        cfg.workload.rate_mpps = mpps;
        cfg.warmup = w.warmup;
        cfg.measure = w.measure;
        shards.push_back(Shard{"IPsec Security Gateway (AES-CBC 128 ESP tunnel)", backend, cfg});
      }
    }
  }
  return shards;
}

/// --crypto=live: calibrated reference sweep, then the same shards with a
/// live ESP worker hooked into every driver, fingerprint-checked pairwise.
int run_live(const bench::Args& args) {
  const auto w = bench::windows(args.fast);
  const auto backends = bench::backend_kinds(args.backend);

  bench::header("Figure 16 (live crypto) - IPsec gateway, real ESP per packet",
                "simulated results identical to calibrated mode (fingerprint-checked); "
                "wall time now contains the crypto substrate");

  const std::vector<Shard> shards = ipsec_shards(backends, {5.61, 3.0, 1.0, 0.5, 0.1}, w);
  // Live workers are stateful and wall time is the headline, so both
  // sweeps run sequentially regardless of --jobs.
  const auto calibrated = scenario::SweepRunner(1).run(shards);

  const auto sa = bench::cryptob::bench_sa();
  using Worker = bench::cryptob::LiveGatewayWorker<apps::IpsecGateway>;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<Shard> live_shards = shards;
  for (auto& s : live_shards) {
    workers.push_back(std::make_unique<Worker>(sa));
    s.config.met.packet_work = nic::PacketWork(*workers.back());
    s.config.polling.packet_work = nic::PacketWork(*workers.back());
  }
  const auto live = scenario::SweepRunner(1).run(live_shards);

  if (scenario::failed_count(calibrated) + scenario::failed_count(live) > 0) {
    std::cerr << scenario::failure_summary(shards, calibrated)
              << scenario::failure_summary(live_shards, live);
    return 1;
  }

  bool identical = true;
  stats::Table table({"backend", "rate (Mpps)", "driver", "CPU (%)", "calib wall (s)",
                      "live wall (s)", "live sim-pkt/s", "slowdown"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (calibrated[i].fingerprint != live[i].fingerprint) {
      std::cerr << "FAIL: shard " << i << " telemetry fingerprint diverged between "
                << "calibrated and live crypto modes\n";
      identical = false;
    }
    const bool metronome = shards[i].config.driver == apps::DriverKind::kMetronome;
    const double pkt_per_s = live[i].wall_seconds > 0.0
                                 ? static_cast<double>(live[i].counters.processed) /
                                       live[i].wall_seconds
                                 : 0.0;
    const double slowdown = calibrated[i].wall_seconds > 0.0
                                ? live[i].wall_seconds / calibrated[i].wall_seconds
                                : 0.0;
    table.add_row({scenario::backend_name(shards[i].backend),
                   bench::num(shards[i].config.workload.rate_mpps, 2),
                   metronome ? "Metronome" : "static DPDK",
                   bench::num(live[i].result.cpu_percent, 1),
                   bench::num(calibrated[i].wall_seconds, 3),
                   bench::num(live[i].wall_seconds, 3), bench::num(pkt_per_s, 0),
                   bench::num(slowdown, 2)});
  }
  table.print();
  std::uint64_t live_work = 0;
  for (const auto& wkr : workers) live_work += wkr->processed();
  std::cout << "\nlive ESP round trips executed: " << live_work
            << (identical ? "\nsimulated results identical to calibrated mode (fingerprints match)\n"
                          : "\n");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, bench::BackendChoice::kHeap,
                                      bench::default_jobs());
  if (args.crypto == bench::CryptoMode::kLive) return run_live(args);
  const auto w = bench::windows(args.fast);
  const auto backends = bench::backend_kinds(args.backend);

  bench::header("Figure 16 - IPsec gateway and FloWatcher CPU usage",
                "IPsec: both reach the same 5.61 Mpps max (one Metronome thread never "
                "releases the lock there -> ~100% CPU); Metronome wins as rate drops. "
                "FloWatcher: ~50% CPU gain at line rate, ~5x at 0.5 Mpps");

  const std::vector<App> apps_under_test = {
      {"IPsec Security Gateway (AES-CBC 128 ESP tunnel)", sim::calib::kIpsecPerPacketCost,
       {5.61, 3.0, 1.0, 0.5, 0.1}},
      {"FloWatcher-DPDK (run-to-completion flow monitor)",
       sim::calib::kFlowatcherPerPacketCost, {14.88, 10.0, 5.0, 1.0, 0.5}}};

  // The shard label carries the app title; rate and driver are read back
  // from each shard's config at print time, so rows cannot mispair with
  // results however the loops above them change.
  std::vector<Shard> shards;
  for (const auto backend : backends) {
    for (const auto& app : apps_under_test) {
      for (const double mpps : app.rates) {
        for (const bool metronome : {false, true}) {
          apps::ExperimentConfig cfg;
          cfg.driver =
              metronome ? apps::DriverKind::kMetronome : apps::DriverKind::kStaticPolling;
          cfg.met.per_packet_cost = app.per_packet_cost;
          cfg.polling.per_packet_cost = app.per_packet_cost;
          cfg.n_cores = 3;
          cfg.workload.rate_mpps = mpps;
          cfg.warmup = w.warmup;
          cfg.measure = w.measure;
          shards.push_back(Shard{app.title, backend, cfg});
        }
      }
    }
  }
  const auto results = scenario::SweepRunner(args.jobs).run(shards);

  // Print in shard order, flushing a table whenever the app (shard label)
  // or backend changes.
  const auto table_header = [] {
    return stats::Table({"rate (Mpps)", "driver", "CPU (%)", "throughput (Mpps)"});
  };
  stats::Table table = table_header();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& s = shards[i];
    if (i == 0 || s.backend != shards[i - 1].backend) {
      if (backends.size() > 1) {
        std::cout << "--- backend: " << scenario::backend_name(s.backend) << " ---\n\n";
      }
    }
    if (i == 0 || s.scenario != shards[i - 1].scenario ||
        s.backend != shards[i - 1].backend) {
      std::cout << s.scenario << "\n";
    }
    const bool metronome = s.config.driver == apps::DriverKind::kMetronome;
    const auto& r = results[i].result;
    table.add_row({bench::num(s.config.workload.rate_mpps, 2),
                   metronome ? "Metronome" : "static DPDK", bench::num(r.cpu_percent, 1),
                   bench::num(r.throughput_mpps, 2)});
    const bool last = i + 1 == shards.size();
    if (last || shards[i + 1].scenario != s.scenario ||
        shards[i + 1].backend != s.backend) {
      table.print();
      std::cout << "\n";
      table = table_header();
    }
  }
  return 0;
}
