#include "apps/experiment.hpp"

#include <cassert>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/pcap.hpp"
#include "tgen/trace.hpp"

namespace metro::apps {

using sim::Time;

namespace {

/// Build the kTrace generator. With `trace.path` set, parse that external
/// pcap; otherwise synthesise the §V-F.4 unbalanced trace and round-trip
/// it through the pcap writer/reader (so the on-disk path is what runs,
/// not a shortcut). Either way the entries replay in a loop at the
/// configured rate.
std::unique_ptr<tgen::Generator> make_trace_generator(const WorkloadConfig& w, Time duration) {
  std::vector<tgen::TraceEntry> entries;
  if (!w.trace.path.empty()) {
    std::ifstream in(w.trace.path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open trace file: " + w.trace.path);
    entries = tgen::parse_trace(net::PcapReader::read_all(in));
    if (entries.empty()) {
      throw std::runtime_error("trace file has no replayable IPv4 frames: " + w.trace.path);
    }
  } else {
    const auto frames =
        tgen::synthesise_unbalanced_trace(w.trace.n_packets, w.trace.heavy_share, w.seed);
    std::stringstream pcap_bytes;
    net::PcapWriter writer(pcap_bytes);
    for (const auto& frame : frames) writer.write(frame);
    entries = tgen::parse_trace(net::PcapReader::read_all(pcap_bytes));
  }
  return std::make_unique<tgen::TraceGenerator>(std::move(entries), w.rate_mpps * 1e6, duration);
}

}  // namespace

Testbed::Testbed(const ExperimentConfig& cfg, bool wheel) : cfg_(cfg) {
  // Reject degenerate topologies before anything is built: zero queues
  // would divide by zero in the RSS table, and a Metronome with no threads
  // would run silently and report zero throughput.
  if (cfg.n_queues < 1) {
    throw std::invalid_argument("ExperimentConfig::n_queues must be >= 1");
  }
  if (cfg.driver == DriverKind::kMetronome && cfg.met.n_threads < 1) {
    throw std::invalid_argument("ExperimentConfig::met.n_threads must be >= 1");
  }
  if (cfg.driver == DriverKind::kXdp && cfg.n_cores < cfg.n_queues) {
    throw std::invalid_argument("XDP requires one core per Rx queue");
  }

  sim_ = wheel ? std::make_unique<sim::Simulation>(cfg.seed, sim::TimingWheelBackend{})
               : std::make_unique<sim::Simulation>(cfg.seed);

  sim::CoreConfig core_cfg;
  core_cfg.governor = cfg.governor;
  machine_ = std::make_unique<sim::Machine>(*sim_, cfg.n_cores, core_cfg);

  // Latency in microseconds: 0.05 us bins up to 5 ms.
  latency_ = std::make_unique<stats::Histogram>(0.05, 5000.0);
  latency_recorder_.hist = latency_.get();

  nic::PortConfig port_cfg = cfg.xl710 ? nic::xl710_config(cfg.n_queues)
                                       : nic::x520_config(cfg.n_queues);
  port_cfg.tx_batch = cfg.tx_batch;
  port_ = std::make_unique<nic::Port>(*sim_, port_cfg, nic::TxCallback(latency_recorder_));

  if (cfg.workload.fault.any()) {
    // Fault stream seeded from the *shard* seed on a dedicated stream tag:
    // bit-identical on either store and across --jobs by the same
    // argument as the workload stream.
    fault_ = std::make_unique<fault::FaultInjector>(cfg.workload.fault,
                                                    fault::FaultInjector::derive_seed(cfg.seed));
    port_->set_fault_injector(fault_.get());
  }

  flows_ = std::make_unique<tgen::FlowSet>(cfg.workload.n_flows, cfg.workload.seed);
  const Time gen_duration = cfg.warmup + cfg.measure + 100 * sim::kMillisecond;
  const auto n_flows = static_cast<std::uint32_t>(cfg.workload.n_flows);
  switch (cfg.workload.model) {
    case ArrivalModel::kPerFlow:
      break;  // no pull generator; sources are spawned in start()
    case ArrivalModel::kStream: {
      const tgen::FlowPicker picker(n_flows, 0, cfg.workload.heavy_share);
      tgen::StreamConfig stream;
      stream.rate_pps = cfg.workload.rate_mpps * 1e6;
      stream.wire_size = cfg.workload.wire_size;
      stream.imix = cfg.workload.imix;
      stream.poisson = cfg.workload.poisson;
      stream.seed = cfg.workload.seed;
      stream.duration = gen_duration;
      generator_ = std::make_unique<tgen::StreamGenerator>(stream, *flows_, picker);
      break;
    }
    case ArrivalModel::kMmpp: {
      tgen::MmppConfig mmpp;
      mmpp.mean_rate_pps = cfg.workload.rate_mpps * 1e6;
      mmpp.shape = cfg.workload.mmpp;
      mmpp.wire_size = cfg.workload.wire_size;
      mmpp.duration = gen_duration;
      mmpp.seed = cfg.workload.seed;
      generator_ = std::make_unique<tgen::MmppGenerator>(mmpp, *flows_, tgen::FlowPicker(n_flows));
      break;
    }
    case ArrivalModel::kParetoTrain: {
      tgen::ParetoTrainConfig train;
      train.rate_pps = cfg.workload.rate_mpps * 1e6;
      train.shape = cfg.workload.pareto;
      train.wire_size = cfg.workload.wire_size;
      train.duration = gen_duration;
      train.seed = cfg.workload.seed;
      generator_ = std::make_unique<tgen::ParetoTrainGenerator>(train, *flows_);
      break;
    }
    case ArrivalModel::kIncast: {
      tgen::IncastConfig incast;
      incast.rate_pps = cfg.workload.rate_mpps * 1e6;
      incast.shape = cfg.workload.incast;
      incast.wire_size = cfg.workload.wire_size;
      incast.duration = gen_duration;
      incast.seed = cfg.workload.seed;
      generator_ = std::make_unique<tgen::IncastGenerator>(incast, *flows_);
      break;
    }
    case ArrivalModel::kTrace:
      generator_ = make_trace_generator(cfg.workload, gen_duration);
      break;
  }
}

Testbed::~Testbed() = default;

void Testbed::start() {
  assert(!started_);
  started_ = true;

  if (cfg_.workload.rate_mpps > 0.0) {
    if (cfg_.workload.model == ArrivalModel::kPerFlow) {
      tgen::PerFlowSourceConfig src;
      src.total_rate_pps = cfg_.workload.rate_mpps * 1e6;
      src.poisson = cfg_.workload.poisson;
      src.wire_size = cfg_.workload.wire_size;
      src.duration = cfg_.warmup + cfg_.measure + 100 * sim::kMillisecond;
      // Arena form, not one coroutine per flow: at fig13_fullstack_1m+
      // scale (2^20..2^24 flows) the spawn loop and its millions of
      // frames would dominate setup, and each flow would keep an event in
      // the kernel store; the arena's lanes are 28 B per flow and its
      // calendar keeps the arrivals out of the store. Bit-identical
      // stream either way (test_tgen).
      flow_arena_ = std::make_unique<tgen::PerFlowSourceArena>(*sim_, *port_, *flows_, src);
    } else if (generator_ != nullptr) {
      tgen::attach(*sim_, *port_, *generator_);
    }
  }

  switch (cfg_.driver) {
    case DriverKind::kMetronome: {
      std::vector<Core*> cores;
      for (int i = 0; i < cfg_.n_cores; ++i) cores.push_back(&machine_->core(i));
      metronome_ = std::make_unique<core::Metronome>(*sim_, *port_, cores, cfg_.met);
      metronome_->start();
      for (const auto& t : metronome_->threads()) {
        driver_entities_.push_back(EntitySnapshot{t.core, t.entity, 0});
      }
      break;
    }
    case DriverKind::kStaticPolling: {
      // One lcore per queue: queue q on core q % n_cores (the paper gives
      // each static thread its own core; sharing only happens in the
      // CPU-contention experiments).
      for (int q = 0; q < port_->n_rx_queues(); ++q) {
        auto stats = std::make_unique<dpdk::DriverStats>();
        Core& core = machine_->core(q % cfg_.n_cores);
        const auto ent = dpdk::spawn_static_lcore(*sim_, *port_, q, core, cfg_.polling, *stats);
        driver_entities_.push_back(EntitySnapshot{&core, ent, 0});
        polling_stats_.push_back(std::move(stats));
      }
      break;
    }
    case DriverKind::kXdp: {
      for (int q = 0; q < port_->n_rx_queues(); ++q) {
        auto stats = std::make_unique<dpdk::XdpStats>();
        Core& core = machine_->core(q);
        const auto ent = dpdk::spawn_xdp_queue(*sim_, *port_, q, core, cfg_.xdp, *stats);
        driver_entities_.push_back(EntitySnapshot{&core, ent, 0});
        xdp_stats_.push_back(std::move(stats));
      }
      break;
    }
  }

  for (int i = 0; i < cfg_.competitor.n_workers && i < cfg_.n_cores; ++i) {
    FerretConfig fc;
    fc.total_work = -1;  // continuous contention
    fc.nice = cfg_.competitor.nice;
    competitors_.push_back(
        spawn_ferret(*sim_, machine_->core(i), fc, "competitor-" + std::to_string(i)));
  }

  // Telemetry assembly: with every layer constructed, register the whole
  // observable tree in one set. This is the only registration point —
  // from here on the hot paths just increment their own fields, and the
  // set snapshots/windows/fingerprints them.
  port_->register_metrics(metrics_, "port");
  if (fault_) fault_->register_metrics(metrics_, "fault");
  metrics_.attach_histogram("latency_us", *latency_);
  if (metronome_) metronome_->register_metrics(metrics_, "met");
  for (std::size_t q = 0; q < polling_stats_.size(); ++q) {
    polling_stats_[q]->register_metrics(metrics_, "polling.q" + std::to_string(q));
  }
  for (std::size_t q = 0; q < xdp_stats_.size(); ++q) {
    xdp_stats_[q]->register_metrics(metrics_, "xdp.q" + std::to_string(q));
  }
  for (std::size_t i = 0; i < competitors_.size(); ++i) {
    competitors_[i]->register_metrics(metrics_, "competitor." + std::to_string(i));
  }
}

void Testbed::run_until(Time t) { sim_->run_until(t); }

void Testbed::begin_measurement() {
  assert(started_ && "begin_measurement() before start(): no metrics registered");
  sim_->sync_lazy();  // the window opens on every arrival due by now
  window_start_ = sim_->now();
  machine_start_ = machine_->snapshot_all();  // settles all cores
  for (auto& e : driver_entities_) e.on_cpu_at_start = e.core->on_cpu_time(e.entity);
  // One call replaces the old per-counter *_at_start_ copies: counters
  // baseline into the snapshot, distributions (latency histogram, per-
  // queue vacation/busy summaries) reset to collect this window only.
  window_baseline_ = metrics_.window_start();

  if (cfg_.series_interval > 0) {
    // Ring sized for the whole window (+1 partial tail, +1 slack). Each
    // slot holds a full MetricSnapshot — the latency histogram dominates
    // at ~800 KB — so the capacity is clamped; beyond it sample() counts
    // dropped windows instead of allocating.
    stats::SeriesConfig scfg;
    scfg.interval = cfg_.series_interval;
    const sim::Time want = cfg_.measure / cfg_.series_interval + 2;
    scfg.capacity = static_cast<std::size_t>(want < 2 ? 2 : (want > 512 ? 512 : want));
    series_ = std::make_unique<stats::SeriesRecorder>(metrics_, scfg);
    series_->arm(*sim_);
  }
}

ExperimentResult Testbed::finish_measurement() {
  sim_->sync_lazy();  // ...and closes on every arrival due by now
  if (series_) series_->finish(sim_->now());
  ExperimentResult r;
  const auto machine_end = machine_->snapshot_all();
  const Time window = sim_->now() - window_start_;
  if (window <= 0) return r;

  const auto ws = machine_->window_stats(machine_start_, machine_end);
  r.package_watts = ws.avg_package_watts;

  double on_cpu_sum = 0.0;
  for (const auto& e : driver_entities_) {
    on_cpu_sum += static_cast<double>(e.core->on_cpu_time(e.entity) - e.on_cpu_at_start);
  }
  r.cpu_percent = 100.0 * on_cpu_sum / static_cast<double>(window);

  // Everything below is a read-out of the telemetry window: counters as
  // deltas against the begin_measurement() baseline, distributions as the
  // window-local values the baseline reset.
  const stats::MetricSnapshot d = metrics_.delta(window_baseline_);

  const double window_s = sim::to_seconds(window);
  const std::uint64_t rx = d.counter("port.rx");
  const std::uint64_t drops = port_drops(d, port_->n_rx_queues());
  const std::uint64_t tx = d.counter("port.tx.transmitted");
  r.rx_packets = rx;
  r.tx_packets = tx;
  r.dropped_packets = drops;
  r.offered_mpps = cfg_.workload.rate_mpps;
  r.throughput_mpps = static_cast<double>(tx) / window_s / 1e6;
  r.loss_permille = rx > 0 ? 1000.0 * static_cast<double>(drops) / static_cast<double>(rx) : 0.0;
  r.latency_us = d.histogram("latency_us").boxplot();

  if (metronome_) {
    r.rho = metronome_->mean_rho();
    r.ts_us = metronome_->mean_ts_us();
    std::uint64_t tries = 0;
    std::uint64_t busy = 0;
    for (int q = 0; q < metronome_->n_queues(); ++q) {
      const std::string base = "met.q" + std::to_string(q);
      const std::uint64_t q_tries = d.counter(base + ".total_tries");
      const std::uint64_t q_busy = d.counter(base + ".busy_tries");
      tries += q_tries;
      busy += q_busy;
      r.vacation_us.merge(d.summary(base + ".vacation_us"));
      r.busy_us.merge(d.summary(base + ".busy_us"));
      r.nv.merge(d.summary(base + ".nv"));
      const double pct =
          q_tries ? 100.0 * static_cast<double>(q_busy) / static_cast<double>(q_tries) : 0.0;
      r.queues.push_back(ExperimentResult::QueueDetail{
          pct, q_tries, metronome_->queue_state(q).rho.value()});
    }
    r.busy_tries_pct =
        tries ? 100.0 * static_cast<double>(busy) / static_cast<double>(tries) : 0.0;
    r.wakeups = tries;
  }
  return r;
}

double Testbed::window_cpu_percent() {
  machine_->snapshot_all();  // settle so on_cpu_time is current
  const Time now = sim_->now();
  if (cpu_probe_oncpu_.size() != driver_entities_.size()) {
    cpu_probe_oncpu_.assign(driver_entities_.size(), 0);
    for (std::size_t i = 0; i < driver_entities_.size(); ++i) {
      cpu_probe_oncpu_[i] = driver_entities_[i].core->on_cpu_time(driver_entities_[i].entity);
    }
    cpu_probe_at_ = now;
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < driver_entities_.size(); ++i) {
    const Time cur = driver_entities_[i].core->on_cpu_time(driver_entities_[i].entity);
    sum += static_cast<double>(cur - cpu_probe_oncpu_[i]);
    cpu_probe_oncpu_[i] = cur;
  }
  const Time dt = now - cpu_probe_at_;
  cpu_probe_at_ = now;
  return dt > 0 ? 100.0 * sum / static_cast<double>(dt) : 0.0;
}

std::uint64_t Testbed::packets_processed() const {
  if (metronome_) return metronome_->packets_processed();
  std::uint64_t total = 0;
  for (const auto& s : polling_stats_) total += s->packets_processed;
  for (const auto& s : xdp_stats_) total += s->packets_processed;
  return total;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Testbed bed(cfg);
  bed.start();
  bed.run_until(cfg.warmup);
  bed.begin_measurement();
  bed.run_until(cfg.warmup + cfg.measure);
  return bed.finish_measurement();
}

std::uint64_t port_drops(const stats::MetricSnapshot& d, int n_queues) {
  std::uint64_t drops = d.counter("port.cap_drops");
  for (int q = 0; q < n_queues; ++q) {
    drops += d.counter("port.q" + std::to_string(q) + ".dropped");
  }
  return drops;
}

}  // namespace metro::apps
