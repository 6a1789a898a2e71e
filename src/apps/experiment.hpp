// Unified experiment harness.
//
// Every table/figure bench assembles the same testbed: a Machine (cores +
// governor + power model), a Port (X520 or XL710), a workload generator,
// one of the three drivers (Metronome / static-polling DPDK / XDP), an
// optional co-scheduled CPU-bound competitor, a warm-up phase and a
// measurement window. This header packages that wiring once, so each bench
// is just a parameter sweep + a table printer.
//
// The testbed runs its kernel on the binary-heap event store; the
// BasicTestbed<sim::WheelSimulation> shim runs the same stack on the
// timing wheel, and execution is bit-identical on either store — same
// counters, same latency histogram, same final clock (enforced by
// tests/test_backend_fullstack.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/ferret.hpp"
#include "core/metronome.hpp"
#include "dpdk/static_polling.hpp"
#include "dpdk/xdp_model.hpp"
#include "fault/fault.hpp"
#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "stats/metric_set.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"
#include "stats/trace.hpp"
#include "tgen/bursty.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"

namespace metro::apps {

enum class DriverKind { kMetronome, kStaticPolling, kXdp };

/// Which arrival process drives the testbed (see tgen/). All models honour
/// rate_mpps (the headline long-run rate), n_flows, wire_size and seed;
/// model-specific knobs live in the matching shape struct below.
enum class ArrivalModel {
  /// CBR (or Poisson with `poisson`) through the grouped stream feeder —
  /// the traditional figure path. Honours imix and heavy_share.
  kStream,
  /// One arrival process per flow instead of the grouped stream feeder:
  /// n_flows flows with one arrival armed each, kept in the per-flow
  /// arena's own calendar rather than the kernel's event store (see
  /// tgen/feeder.hpp). Costs one event per packet; leave off unless the
  /// armed-flow population is the point.
  /// Honours poisson (per-flow gaps); flows are uniform by construction,
  /// so imix and heavy_share do not apply.
  kPerFlow,
  /// 2-state MMPP / ON-OFF bursty arrivals (tgen::MmppGenerator, `mmpp`).
  kMmpp,
  /// Heavy-tail flow-size mix: Pareto-sized back-to-back flow trains
  /// (tgen::ParetoTrainGenerator, `pareto`).
  kParetoTrain,
  /// Synchronized incast epochs (tgen::IncastGenerator, `incast`).
  kIncast,
  /// Replay of a synthesised §V-F.4-style pcap trace, round-tripped
  /// through net::PcapWriter/PcapReader (`trace`).
  kTrace,
};

/// Parameters of the ArrivalModel::kTrace workload. By default the §V-F.4
/// unbalanced trace (n_packets frames, heavy_share of them one UDP flow)
/// is synthesised with the workload seed, persisted to pcap bytes and
/// read back so the whole trace machinery is exercised, then replayed in
/// a loop at rate_mpps. When `path` names an *external* pcap file, that
/// file is parsed and replayed instead (n_packets/heavy_share ignored);
/// an unreadable file or one with no replayable IPv4 frames throws.
struct TraceReplayParams {
  std::size_t n_packets = 1000;
  double heavy_share = 0.3;
  std::string path;  ///< external pcap to replay; empty = synthesise
};

struct WorkloadConfig {
  double rate_mpps = 14.88;  // 10 GbE 64 B line rate
  bool poisson = false;
  std::uint16_t wire_size = 64;
  bool imix = false;  // simple-IMIX size mix instead of fixed wire_size
  std::size_t n_flows = 256;
  /// > 0: fraction of packets belonging to flow 0 (§V-F.4 unbalanced mix).
  double heavy_share = 0.0;
  /// The arrival process (see ArrivalModel).
  ArrivalModel model = ArrivalModel::kStream;
  tgen::MmppShape mmpp{};          ///< kMmpp knobs
  tgen::ParetoTrainShape pareto{}; ///< kParetoTrain knobs
  tgen::IncastShape incast{};      ///< kIncast knobs
  TraceReplayParams trace{};       ///< kTrace knobs
  /// Deterministic fault plane (drop / corrupt / dup / reorder / link
  /// flap / ring stall). Inert by default; when active the testbed seeds
  /// a FaultInjector from the *shard* seed (fault::FaultInjector::
  /// derive_seed(ExperimentConfig::seed)) and hooks it into the port.
  fault::FaultSpec fault{};
  std::uint64_t seed = 42;
};

struct CompetitorConfig {
  /// Number of cores (0..n-1) that also run a continuous CPU-bound task.
  int n_workers = 0;
  int nice = 19;
};

struct ExperimentConfig {
  DriverKind driver = DriverKind::kMetronome;
  core::MetronomeConfig met{};
  dpdk::StaticPollingConfig polling{};
  dpdk::XdpConfig xdp{};

  int n_queues = 1;
  bool xl710 = false;  // X520 (10 GbE) by default
  int n_cores = 3;
  sim::Governor governor = sim::Governor::kPerformance;
  int tx_batch = sim::calib::kTxBatchDefault;

  WorkloadConfig workload{};
  CompetitorConfig competitor{};

  sim::Time warmup = 200 * sim::kMillisecond;
  sim::Time measure = sim::kSecond;

  /// > 0: sample the full telemetry set every `series_interval` of sim
  /// time during the measurement window (stats::SeriesRecorder armed by
  /// begin_measurement(), closed by finish_measurement()). 0 = off.
  /// Sampling only reads counters, so results and fingerprints are
  /// identical either way.
  sim::Time series_interval = 0;

  std::uint64_t seed = 1;
};

/// The measurement-window observables every figure/table bench reads.
/// Since the telemetry refactor this is a *view*: finish_measurement()
/// derives every field from the testbed's MetricSet window delta
/// (Testbed::telemetry()), not from hand-copied counters.
struct ExperimentResult {
  double offered_mpps = 0.0;
  double throughput_mpps = 0.0;
  double loss_permille = 0.0;
  /// Raw measurement-window packet totals (the counters behind the two
  /// rates above). A shard's timeseries windows sum to exactly these.
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t dropped_packets = 0;
  /// Sum of the driver threads' on-CPU shares; 100 = one full core.
  double cpu_percent = 0.0;
  double package_watts = 0.0;
  stats::Boxplot latency_us{};

  // Metronome-only observables (zero otherwise).
  double rho = 0.0;
  double busy_tries_pct = 0.0;
  double ts_us = 0.0;
  stats::Summary vacation_us{};
  stats::Summary busy_us{};
  stats::Summary nv{};
  std::uint64_t wakeups = 0;

  /// Per-queue Metronome detail (Table III).
  struct QueueDetail {
    double busy_tries_pct = 0.0;
    std::uint64_t total_tries = 0;
    double rho = 0.0;
  };
  std::vector<QueueDetail> queues;
};

/// The testbed's Tx hook, bound into the port's Tx ring as a non-owning
/// nic::TxCallback: adds each flushed packet's MoonGen-style end-to-end
/// latency (software dwell time plus the fixed DMA/PCIe/timestamping
/// path), in microseconds, to `hist`, in send order — the same values in
/// the same order as one add per packet, so bins and Summary are
/// bit-identical to a per-packet hook.
struct LatencyRecorder {
  stats::Histogram* hist = nullptr;
  void operator()(std::span<const nic::PacketDesc> pkts, sim::Time tx_time) const {
    for (const nic::PacketDesc& pkt : pkts) {
      hist->add(sim::to_micros(tx_time - pkt.arrival + sim::calib::kFixedPathLatency));
    }
  }
};

/// The live simulation testbed, for benches needing time series (Fig. 9)
/// or bespoke sequencing (Fig. 12). run_experiment() is built on this.
class Testbed {
 public:
  explicit Testbed(const ExperimentConfig& cfg) : Testbed(cfg, false) {}
  ~Testbed();

  sim::Simulation& sim() { return *sim_; }
  sim::Machine& machine() { return *machine_; }
  nic::Port& port() { return *port_; }
  core::Metronome* metronome() { return metronome_.get(); }
  /// The end-to-end latency histogram backing the result boxplot
  /// (microseconds; cross-backend identity checks compare its raw bins).
  const stats::Histogram& latency_histogram() const { return *latency_; }

  /// The testbed's full telemetry set: every layer's observables (port +
  /// per-ring counters, driver/per-queue Metronome statistics, competitor
  /// progress, the latency histogram) registered in one place. Populated
  /// by start(); snapshot/fingerprint it for cross-backend identity, or
  /// read the measurement window through begin/finish_measurement().
  const stats::MetricSet& telemetry() const { return metrics_; }
  stats::MetricSet& telemetry() { return metrics_; }

  /// Spawn the configured driver + workload + competitors.
  void start();

  /// Run to `t` (absolute virtual time).
  void run_until(sim::Time t);

  /// Zero all measurement state (call at the end of warm-up).
  void begin_measurement();

  /// Harvest results for the window since begin_measurement().
  ExperimentResult finish_measurement();

  /// Instantaneous observables for time-series sampling.
  double window_cpu_percent();  // since last call to this function
  std::uint64_t packets_processed() const;

  /// Attach (or detach, with nullptr) a trace recorder. Fans out to the
  /// kernel (event-fire + backend instants, which the NIC rings and the
  /// Metronome read back through sim().tracer()) and to the fault plane.
  /// Pure observer: execution and telemetry are identical either way.
  void set_tracer(trace::Tracer* t) {
    sim_->set_tracer(t);
    if (fault_) fault_->set_tracer(t);
  }

  /// The measurement-window time series (nullptr unless
  /// ExperimentConfig::series_interval > 0 and measurement has begun).
  const stats::SeriesRecorder* series() const { return series_.get(); }

  /// The SoA per-flow source arena (nullptr unless the workload model is
  /// ArrivalModel::kPerFlow). Exposes the lane accessors —
  /// flow_count()/armed()/fired() and the per-flow lanes — for scale
  /// diagnostics.
  const tgen::PerFlowSourceArena* flow_arena() const { return flow_arena_.get(); }

 protected:
  /// Build the kernel on the timing-wheel store when `wheel` is set
  /// (BasicTestbed<sim::WheelSimulation>), on the heap otherwise.
  Testbed(const ExperimentConfig& cfg, bool wheel);

 private:
  using Core = sim::Core;

  struct EntitySnapshot {
    Core* core;
    Core::EntityId entity;
    sim::Time on_cpu_at_start = 0;
  };

  ExperimentConfig cfg_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<stats::Histogram> latency_;
  LatencyRecorder latency_recorder_;  // must outlive port_ (non-owning ref)
  std::unique_ptr<fault::FaultInjector> fault_;  // must outlive port_ (borrowed there)
  std::unique_ptr<nic::Port> port_;
  std::unique_ptr<tgen::FlowSet> flows_;
  std::unique_ptr<tgen::Generator> generator_;
  std::unique_ptr<tgen::PerFlowSourceArena> flow_arena_;  // kPerFlow only
  std::unique_ptr<core::Metronome> metronome_;
  std::vector<std::unique_ptr<dpdk::DriverStats>> polling_stats_;
  std::vector<std::unique_ptr<dpdk::XdpStats>> xdp_stats_;
  std::vector<EntitySnapshot> driver_entities_;
  std::vector<std::shared_ptr<FerretResult>> competitors_;

  // Telemetry: every layer registers here (start()); the measurement
  // window is a MetricSet window, not per-counter *_at_start_ copies.
  stats::MetricSet metrics_;
  stats::MetricSnapshot window_baseline_;
  std::unique_ptr<stats::SeriesRecorder> series_;  // armed by begin_measurement()

  // measurement window state (scheduler side)
  sim::Time window_start_ = 0;
  std::vector<Core::Snapshot> machine_start_;

  // window_cpu_percent() state
  sim::Time cpu_probe_at_ = 0;
  std::vector<sim::Time> cpu_probe_oncpu_;

  bool started_ = false;
};

/// Kept for metrobench until the wheel store goes: a Testbed whose kernel
/// runs on the store `Sim` names — the timing wheel for
/// sim::WheelSimulation, the heap for sim::Simulation.
template <typename Sim>
class BasicTestbed : public Testbed {
 public:
  explicit BasicTestbed(const ExperimentConfig& cfg)
      : Testbed(cfg, std::is_same_v<Sim, sim::WheelSimulation>) {}
};

/// Packets the testbed's port dropped, read from a telemetry snapshot or
/// window delta: `port.cap_drops` plus `port.qN.dropped` over its
/// `n_queues` rx queues.
std::uint64_t port_drops(const stats::MetricSnapshot& d, int n_queues);

/// Assemble, warm up, measure, tear down.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace metro::apps
