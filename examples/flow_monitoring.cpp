// FloWatcher-style traffic monitoring on the simulated testbed.
//
// Runs Metronome as the retrieval engine for a flow monitor: an unbalanced
// workload (one heavy UDP flow at 30% + ~1000 background flows) is pushed
// through the NIC model, the timing side measures CPU/latency, and the
// functional FloWatcher accounts the same flow mix to report heavy hitters
// — the §V-F.4 scenario end to end.
//
// Run: ./flow_monitoring

#include <iostream>

#include "apps/experiment.hpp"
#include "apps/flowatcher.hpp"
#include "stats/table.hpp"

using namespace metro;

int main() {
  // Timing side: Metronome vs static polling for the monitor's cost model.
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.met.per_packet_cost = sim::calib::kFlowatcherPerPacketCost;
  cfg.workload.rate_mpps = 10.0;
  cfg.workload.n_flows = 1000;
  cfg.workload.heavy_share = 0.30;
  cfg.warmup = 100 * sim::kMillisecond;
  cfg.measure = 400 * sim::kMillisecond;
  const auto metro_result = apps::run_experiment(cfg);
  cfg.driver = apps::DriverKind::kStaticPolling;
  cfg.polling.per_packet_cost = sim::calib::kFlowatcherPerPacketCost;
  const auto static_result = apps::run_experiment(cfg);

  std::cout << "monitoring 10 Mpps (30% one UDP flow):\n";
  stats::Table timing({"driver", "CPU (%)", "mean latency (us)"});
  timing.add_row({"Metronome", stats::Table::num(metro_result.cpu_percent, 1),
                  stats::Table::num(metro_result.latency_us.mean, 1)});
  timing.add_row({"static DPDK", stats::Table::num(static_result.cpu_percent, 1),
                  stats::Table::num(static_result.latency_us.mean, 1)});
  timing.print();

  // Functional side: account the same flow mix and report heavy hitters.
  apps::FloWatcher monitor(1 << 14);
  tgen::FlowSet flows(1000, 42);
  sim::Rng rng(42);
  const tgen::FlowPicker picker(1000, 0, 0.30);
  for (int i = 0; i < 500000; ++i) {
    const auto flow_id = picker.pick(rng);
    monitor.observe_flow(flows.tuple(flow_id), 64, i);
  }

  std::cout << "\ntop-5 heavy hitters over " << monitor.total_packets() << " packets ("
            << monitor.active_flows() << " active flows):\n";
  stats::Table hh({"rank", "flow (src -> dst)", "packets", "share (%)"});
  int rank = 1;
  for (const auto& h : monitor.heavy_hitters(5)) {
    const auto& t = h.flow;
    const auto ip_str = [](std::uint32_t ip) {
      return std::to_string(ip >> 24) + "." + std::to_string((ip >> 16) & 0xff) + "." +
             std::to_string((ip >> 8) & 0xff) + "." + std::to_string(ip & 0xff);
    };
    hh.add_row({std::to_string(rank++),
                ip_str(t.src_ip) + ":" + std::to_string(t.src_port) + " -> " + ip_str(t.dst_ip) +
                    ":" + std::to_string(t.dst_port),
                std::to_string(h.packets),
                stats::Table::num(100.0 * static_cast<double>(h.packets) /
                                      static_cast<double>(monitor.total_packets()),
                                  1)});
  }
  hh.print();
  return 0;
}
