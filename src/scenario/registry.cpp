#include "scenario/registry.hpp"

namespace metro::scenario {

namespace {

using apps::ArrivalModel;
using apps::DriverKind;
using apps::ExperimentConfig;

// The common single-queue X520 testbed most scenarios run on: Metronome
// with 3 threads on 3 cores — the paper's baseline deployment shape.
ExperimentConfig x520_base() {
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.n_queues = 1;
  cfg.n_cores = 3;
  cfg.met.n_threads = 3;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.measure = 800 * sim::kMillisecond;
  return cfg;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> reg;

  {
    ScenarioSpec s{"cbr_uniform", "CBR at 10 GbE line rate, uniform flows (figure baseline)",
                   x520_base()};
    s.config.workload.rate_mpps = 14.88;
    s.config.workload.n_flows = 256;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"poisson_uniform", "Poisson arrivals at line rate, uniform flows",
                   x520_base()};
    s.config.workload.rate_mpps = 14.88;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 256;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"imix_cbr", "CBR with the simple-IMIX size mix (64/570/1518 at 7:4:1)",
                   x520_base()};
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.imix = true;
    s.config.workload.n_flows = 256;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"unbalanced_heavy",
                   "§V-F.4 unbalanced mix: 30% of packets in one UDP flow (picker-based)",
                   fig13_testbed()};
    s.config.n_queues = 3;
    s.config.n_cores = 5;
    s.config.met.n_threads = 5;
    s.config.workload.rate_mpps = 20.0;
    s.config.workload.heavy_share = 0.3;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"mmpp_bursty",
                   "2-state MMPP ON-OFF arrivals: 3.7x bursts with near-silent gaps",
                   x520_base()};
    s.config.workload.model = ArrivalModel::kMmpp;
    s.config.workload.rate_mpps = 8.0;
    s.config.workload.n_flows = 512;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"pareto_trains",
                   "heavy-tail flow-size mix: Pareto(1.3) back-to-back flow trains",
                   x520_base()};
    s.config.workload.model = ArrivalModel::kParetoTrain;
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.n_flows = 1024;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"incast_sync",
                   "synchronized incast: 32 senders x 8 packets per epoch at wire speed",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kIncast;
    s.config.workload.rate_mpps = 10.0;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"trace_replay_unbalanced",
                   "pcap replay of the synthesised 1000-packet §V-F.4 trace (30% one flow)",
                   x520_base()};
    s.config.workload.model = ArrivalModel::kTrace;
    s.config.workload.rate_mpps = 5.0;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"perflow_poisson",
                   "per-flow Poisson sources: 2048 concurrently armed flow timers",
                   x520_base()};
    s.config.workload.model = ArrivalModel::kPerFlow;
    s.config.workload.poisson = true;
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.n_flows = 2048;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"fig13_fullstack_perflow",
                   "fig13 multiqueue testbed on 24576 per-flow sources (large armed population)",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kPerFlow;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 24576;
    s.config.warmup = 50 * sim::kMillisecond;
    s.config.measure = 400 * sim::kMillisecond;
    reg.push_back(std::move(s));
  }
  {
    // The million-flow regime: 2^20 per-flow Poisson sources, each keeping
    // one arrival armed at all times (>1M concurrently armed flows, held in
    // the arena's own calendar, not the kernel store). Windows are short
    // because one simulated millisecond covers 37k packets against a 28 ms
    // mean per-flow gap — the point is the armed population, not run
    // length.
    ScenarioSpec s{"fig13_fullstack_1m",
                   "fig13 multiqueue testbed on 2^20 per-flow sources (million-flow regime)",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kPerFlow;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 1u << 20;
    s.config.warmup = 5 * sim::kMillisecond;
    s.config.measure = 25 * sim::kMillisecond;
    reg.push_back(std::move(s));
  }
  {
    // 2^22 flows: the flow lanes (~117 MB) no longer fit a typical LLC and
    // the mean per-flow gap is 113 ms, so most flows arm once in the
    // window and every calendar chain step is a cold-memory touch.
    ScenarioSpec s{"fig13_fullstack_4m",
                   "fig13 multiqueue testbed on 2^22 per-flow sources (beyond-LLC regime)",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kPerFlow;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 1u << 22;
    s.config.warmup = 5 * sim::kMillisecond;
    s.config.measure = 25 * sim::kMillisecond;
    reg.push_back(std::move(s));
  }
  {
    // 2^24 flows: ~470 MB of arena lanes + 64 MB of calendar buckets —
    // the memory-bandwidth wall. Mean per-flow gap is 453 ms, so
    // a 25 ms window sees each flow at most once; the packet rate is
    // unchanged (it depends only on the aggregate rate) but every fire is
    // a cold-memory touch.
    ScenarioSpec s{"fig13_fullstack_16m",
                   "fig13 multiqueue testbed on 2^24 per-flow sources (memory-bandwidth wall)",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kPerFlow;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 1u << 24;
    s.config.warmup = 5 * sim::kMillisecond;
    s.config.measure = 25 * sim::kMillisecond;
    reg.push_back(std::move(s));
  }

  // --- fault-plane scenarios (src/fault/) -------------------------------
  // Adverse-condition coverage: the same testbeds as the healthy
  // scenarios, with a FaultSpec layered on. Flap/stall periods are in the
  // low milliseconds so several windows fire even inside the benches'
  // --fast measurement windows.
  {
    ScenarioSpec s{"cbr_lossy",
                   "CBR under a lossy link: 2% drop, 0.5% duplication, 1% reordering",
                   x520_base()};
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.n_flows = 256;
    s.config.workload.fault.drop_prob = 0.02;
    s.config.workload.fault.dup_prob = 0.005;
    s.config.workload.fault.reorder_prob = 0.01;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"imix_corrupt",
                   "IMIX stream with 5% header bit-flip corruption (RSS hash + wire size)",
                   x520_base()};
    s.config.workload.rate_mpps = 8.0;
    s.config.workload.imix = true;
    s.config.workload.n_flows = 256;
    s.config.workload.fault.corrupt_prob = 0.05;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"poisson_linkflap",
                   "Poisson arrivals through a flapping link: 300 us outage every 3 ms",
                   x520_base()};
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.poisson = true;
    s.config.workload.n_flows = 256;
    s.config.workload.fault.link_down_every = 3 * sim::kMillisecond;
    s.config.workload.fault.link_down_for = 300 * sim::kMicrosecond;
    reg.push_back(std::move(s));
  }
  {
    ScenarioSpec s{"incast_stall",
                   "fig13 incast with a wedged rx ring: 200 us stall every 2 ms",
                   fig13_testbed()};
    s.config.workload.model = ArrivalModel::kIncast;
    s.config.workload.rate_mpps = 10.0;
    s.config.workload.fault.stall_every = 2 * sim::kMillisecond;
    s.config.workload.fault.stall_for = 200 * sim::kMicrosecond;
    reg.push_back(std::move(s));
  }

  return reg;
}

}  // namespace

ExperimentConfig fig13_testbed() {
  ExperimentConfig cfg;
  cfg.driver = DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 4;
  cfg.met.n_threads = 4;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 37.0;
  cfg.workload.n_flows = 4096;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.measure = 800 * sim::kMillisecond;
  return cfg;
}

const std::vector<ScenarioSpec>& all_scenarios() {
  static const std::vector<ScenarioSpec> registry = build_registry();
  return registry;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const auto& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace metro::scenario
