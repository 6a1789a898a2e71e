// metrobench — one workload of the end-to-end and per-layer benchmark.
//
// Drives the simulator through its public entry points only
// (scenario::find_scenario / fig13_testbed, apps::BasicTestbed<Sim>,
// tgen::attach) and prints one JSON object of raw per-trial samples on
// stdout. benchmark/run.py builds this binary, runs it once per workload
// and turns the samples into the printed metrics.
//
// Loop model. Host side: closed loop — a trial starts when the previous
// one has finished. Modelled side: open loop — the generators emit on
// their own schedule whatever the benchmark does, and model latency runs
// from each packet's scheduled arrival.
//
// Trial plan of one run:
//   * one discarded warm-up trial, on a tenth of the measured window;
//   * timed trials until --seconds of host time is spent (at least
//     kMinTrials). In --trace=1 mode the trials alternate untraced and
//     traced, so the tracing overhead is measured in the same process;
//   * a batch of kSetupRepeats set-ups (ctor + start) after each timed
//     trial; set-up i of every batch is a repetition of the same work;
//   * one untimed oracle trial on the other event-queue backend, through
//     the unmodified testbed (its own feeder on).
//
// Each trial is timed segment by segment (constructor, start, warm-up
// slices, measured-window slices, harvest; see Segment). Besides every
// trial's own times, the output holds the run's fastest repetition of
// each segment ("fastest"), from which run.py takes the host times.
//
// Every trial is checked (see check_trial) and must reproduce the first
// timed trial's telemetry fingerprint; a failed check names itself in
// the trial's "failures" list and in the top-level "checks" list.
//
// Usage: metrobench --workload=NAME --seconds=S [--seed=N] [--trace=0|1]
//                   [--smoke] [--trace-out=FILE]
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/registry.hpp"
#include "stats/json_writer.hpp"
#include "stats/trace.hpp"
#include "tgen/feeder.hpp"
#include "util/seed_mix.hpp"

namespace {

using namespace metro;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kMinTrials = 3;
/// Set-up-only repetitions after each timed trial: set-up takes well
/// under 10 ms, so its estimate needs many samples, and spreading them
/// between the trials keeps one burst of host interference from
/// covering them all.
constexpr int kSetupRepeats = 15;
/// The warm-up and the measured window run as kWarmupSlices and kSlices
/// run_until() slices (slicing does not change execution), each timed on
/// its own: about 1 ms of host time per slice.
constexpr int kWarmupSlices = 200;
constexpr int kSlices = 2000;

/// Every trial times the same sequence of segments, and a segment does
/// the same simulated work in every trial of a run (the simulation is
/// deterministic), so segment i of one trial is a repetition of segment i
/// of any other.
enum Segment : int {
  kSegCtor,
  kSegStart,
  kSegWarmup,                            // kWarmupSlices segments
  kSegBegin = kSegWarmup + kWarmupSlices,
  kSegMeasure,                           // kSlices segments
  kSegHarvest = kSegMeasure + kSlices,
  kSegSnapshot,
  kSegFingerprint,
  kSegments,
};
/// The benchmark's stream ends this long after the measured window, and the
/// post-harvest drain runs this long past the stream's end: long enough
/// for the feeder to deliver everything it pulled, so the ingress
/// conservation identity can be checked exactly. A feeder group spans at
/// most 2 us, so the stream up to the harvest is the testbed's own; the
/// oracle trial, which runs the testbed's own feeder, checks that.
constexpr sim::Time kStreamTail = sim::kMillisecond;

enum class Backend { kHeap, kWheel };

const char* backend_name(Backend b) { return b == Backend::kHeap ? "heap" : "wheel"; }

struct Workload {
  std::string name;
  apps::ExperimentConfig cfg;
  Backend backend = Backend::kHeap;
};

const apps::ExperimentConfig& registered(std::string_view name) {
  const auto* s = scenario::find_scenario(name);
  if (s == nullptr) throw std::runtime_error("scenario missing from the registry: " + std::string(name));
  return s->config;
}

/// The three workloads. Why each exists is recorded in benchmark/README.md.
std::optional<Workload> make_workload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "linerate_grouped") {
    w.cfg = scenario::fig13_testbed();  // XL710, 2 queues, M=4 on 4 cores, 37 Mpps CBR
    w.cfg.measure = 2 * sim::kSecond;
  } else if (name == "perflow_24k") {
    w.cfg = registered("fig13_fullstack_perflow");  // 24,576 Poisson flows, 50 + 400 ms
    w.backend = Backend::kWheel;
  } else if (name == "lowload_sleep") {
    w.cfg = registered("cbr_uniform");  // X520, 1 queue, M=3 on 3 cores
    w.cfg.workload.rate_mpps = 0.744;   // 0.5 Gbps, Fig. 10's lowest rate
    w.cfg.measure = 40 * sim::kSecond;
  } else {
    return std::nullopt;
  }
  return w;
}

/// run_trial rebuilds a stream workload's generator outside the testbed.
/// It reproduces the testbed's construction only for a uniform-picker
/// stream; the per-flow arena it leaves to the testbed.
void require_reproducible(const Workload& w) {
  const apps::WorkloadConfig& wl = w.cfg.workload;
  const bool uniform_stream = wl.model == apps::ArrivalModel::kStream && wl.heavy_share == 0.0;
  if (!uniform_stream && wl.model != apps::ArrivalModel::kPerFlow) {
    throw std::runtime_error(w.name + ": only uniform streams and per-flow sources are supported");
  }
}

/// The testbed's stream generator, decorated: counts every packet handed
/// to the feeder (the emitted side of the ingress identity) and, while
/// `timing` is set, sums the host time spent inside next_batch().
class CountingGenerator final : public tgen::Generator {
 public:
  explicit CountingGenerator(std::unique_ptr<tgen::Generator> inner) : inner_(std::move(inner)) {}

  std::optional<nic::PacketDesc> next() override {
    auto pkt = inner_->next();
    if (pkt.has_value()) ++emitted;
    return pkt;
  }

  std::size_t next_batch(std::vector<nic::PacketDesc>& out, std::size_t max) override {
    if (!timing) {
      const std::size_t n = inner_->next_batch(out, max);
      emitted += n;
      return n;
    }
    const auto t0 = Clock::now();
    const std::size_t n = inner_->next_batch(out, max);
    busy += Clock::now() - t0;
    emitted += n;
    timed_pkts += n;
    return n;
  }

  bool timing = false;
  std::uint64_t emitted = 0;
  std::uint64_t timed_pkts = 0;
  Clock::duration busy{};

 private:
  std::unique_ptr<tgen::Generator> inner_;
};

/// Tallies of the sim-time tracer, drained slice by slice so the ring
/// never fills.
struct TraceTally {
  std::uint64_t dropped = 0;
  std::uint64_t rx_bursts = 0;
  std::uint64_t rx_burst_pkts = 0;
  std::uint64_t tx_flushes = 0;
  std::uint64_t tx_flush_pkts = 0;
  std::uint64_t wheel_cascades = 0;
  std::uint64_t wheel_epochs = 0;

  /// Fold `t`'s events into the tallies, copy them into `keep` while it
  /// has room (the Chrome export), then clear `t`.
  void drain(trace::Tracer& t, trace::Tracer* keep) {
    dropped += t.dropped();
    for (std::size_t i = 0; i < t.size(); ++i) {
      const trace::TraceEvent& e = t.event(i);
      switch (e.name) {
        case trace::id::kRxBurst: ++rx_bursts; rx_burst_pkts += e.arg2; break;
        case trace::id::kTxFlush: ++tx_flushes; tx_flush_pkts += e.arg; break;
        case trace::id::kWheelCascade: ++wheel_cascades; break;
        case trace::id::kWheelEpoch: ++wheel_epochs; break;
        default: break;
      }
      if (keep != nullptr && keep->size() < keep->capacity()) {
        if (e.phase == trace::Phase::kSpan) {
          keep->span(e.name, e.ts, e.dur, e.arg, e.tid, e.arg2);
        } else {
          keep->instant(e.name, e.ts, e.arg, e.tid, e.arg2);
        }
      }
    }
    t.clear();
  }
};

/// What the trial measures. Host times are seconds.
enum class TrialKind { kWarmup, kTimed, kTraced, kOracle };

struct Trial {
  TrialKind kind = TrialKind::kTimed;
  Backend backend = Backend::kHeap;
  // host time
  std::vector<double> segments = std::vector<double>(kSegments);  // seconds, by Segment
  double tgen_s = 0;
  std::uint64_t tgen_timed_pkts = 0;
  // simulated, deterministic
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0, pending_at_measure = 0;
  std::uint64_t offered = 0, tgen_pkts = 0, arena_fired = 0;
  double throughput_mpps = 0, latency_p50_us = 0, latency_p999_us = 0;
  double dwell_us_mean = 0, cpu_pct = 0, power_w = 0, rho = 0, ts_us = 0;
  std::map<std::string, double> counters;  // window deltas and summary means
  TraceTally tally;
  std::vector<std::string> failures;
};

struct RunOptions {
  trace::Tracer* chrome_sim = nullptr;   // sim-time lane of the Chrome export
  trace::Tracer* chrome_wall = nullptr;  // bench wall-clock lane
  Clock::time_point epoch{};
  std::uint32_t wall_ids[6]{};           // ctor, start, warmup, measure, harvest, trial
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Segment `i` of every trial in `trials`, at its fastest. Interference
/// from outside the process (other tenants of a shared host, their cache
/// and memory traffic) can only slow a repetition of the same work, so
/// the fastest repetition of each segment is the steadiest estimate of
/// its cost. Every segment counts: a slowdown anywhere in a trial moves
/// the sum.
std::vector<double> fastest_segments(const std::vector<const Trial*>& trials) {
  if (trials.empty()) return std::vector<double>(kSegments, 0.0);
  std::vector<double> best = trials.front()->segments;
  for (const Trial* r : trials) {
    for (int i = 0; i < kSegments; ++i) best[i] = std::min(best[i], r->segments[i]);
  }
  return best;
}

/// Phase times (seconds) and the slice-time quantiles of a segment vector.
void write_phases(stats::JsonWriter& j, const std::vector<double>& seg) {
  const auto sum = [&](int from, int n) {
    return std::accumulate(seg.begin() + from, seg.begin() + from + n, 0.0);
  };
  const std::vector<double> slices(seg.begin() + kSegMeasure, seg.begin() + kSegMeasure + kSlices);
  for (const auto& [k, v] :
       {std::pair<const char*, double>{"ctor_s", seg[kSegCtor]}, {"start_s", seg[kSegStart]},
        {"warmup_s", sum(kSegWarmup, kWarmupSlices)}, {"begin_s", seg[kSegBegin]},
        {"measure_s", sum(kSegMeasure, kSlices)}, {"harvest_s", seg[kSegHarvest]},
        {"snapshot_s", seg[kSegSnapshot]}, {"fingerprint_s", seg[kSegFingerprint]},
        {"run_s", sum(0, kSegments)},
        {"slice_us_p50", 1e6 * quantile(slices, 0.50)},
        {"slice_us_p99", 1e6 * quantile(slices, 0.99)}}) {
    j.kv(k, v);
  }
}

std::uint64_t sum_queues(const stats::MetricSnapshot& s, const std::string& prefix, int n,
                         const std::string& field) {
  std::uint64_t total = 0;
  for (int q = 0; q < n; ++q) {
    if (const auto* e = s.find(prefix + ".q" + std::to_string(q) + "." + field)) total += e->counter;
  }
  return total;
}

double merged_mean(const stats::MetricSnapshot& s, const std::string& prefix, int n,
                   const std::string& field) {
  stats::Summary m;
  for (int q = 0; q < n; ++q) {
    if (const auto* e = s.find(prefix + ".q" + std::to_string(q) + "." + field)) m.merge(e->summary);
  }
  return m.mean();
}

std::uint64_t counter_or_zero(const stats::MetricSnapshot& s, std::string_view name) {
  const auto* e = s.find(name);
  return e != nullptr ? e->counter : 0;
}

/// Correctness of one finished trial, from public counters only. `life`
/// is the lifetime telemetry after the drain, `emitted` the packets the
/// source layer produced by then: unknown when the testbed's own feeder
/// ran, and the ingress identity is then not checked.
template <typename Sim>
void check_trial(Trial& r, apps::BasicTestbed<Sim>& bed, const apps::ExperimentConfig& cfg,
                 const stats::MetricSnapshot& life, std::optional<std::uint64_t> emitted) {
  const int nq = bed.port().n_rx_queues();
  const std::uint64_t rx = life.counter("port.rx");
  const std::uint64_t cap = life.counter("port.cap_drops");
  const std::uint64_t fdrop = counter_or_zero(life, "fault.dropped");
  const std::uint64_t fdup = counter_or_zero(life, "fault.dup");
  const std::uint64_t received = sum_queues(life, "port", nq, "received");
  const std::uint64_t ring_dropped = sum_queues(life, "port", nq, "dropped");

  // Each ingress packet is accepted, capped or lost to the fault plane.
  if (emitted && *emitted + fdup != rx + cap + fdrop) {
    r.failures.push_back("conservation.ingress");
  }
  if (rx != received + ring_dropped) r.failures.push_back("conservation.rx_queues");
  std::uint64_t occupancy = 0;
  for (int q = 0; q < nq; ++q) occupancy += bed.port().rx_queue(q).size();
  const std::uint64_t tx = life.counter("port.tx.transmitted") + bed.port().tx().pending();
  if (tx + occupancy > received) r.failures.push_back("conservation.tx_bound");

  bool finite = true;
  for (std::size_t i = 0; i < life.size(); ++i) {
    const auto& e = life.entry(i);
    if (e.kind == stats::MetricKind::kGauge) finite = finite && std::isfinite(e.gauge);
    if (e.kind == stats::MetricKind::kSummary) {
      finite = finite && std::isfinite(e.summary.mean()) && std::isfinite(e.summary.stddev());
    }
  }
  for (const double v :
       {r.throughput_mpps, r.latency_p50_us, r.latency_p999_us, r.cpu_pct, r.power_w}) {
    finite = finite && std::isfinite(v);
  }
  if (!finite) r.failures.push_back("finite.summaries");
  if (!(r.cpu_pct <= 100.0 * cfg.n_cores)) r.failures.push_back("model.cpu_bound");
}

template <typename Sim>
Trial run_trial(const Workload& w, TrialKind kind, Backend backend, const RunOptions& opt,
                int trial_index) {
  Trial r;
  r.kind = kind;
  r.backend = backend;
  const bool traced = kind == TrialKind::kTraced;
  const apps::ExperimentConfig& cfg = w.cfg;
  // Stream workloads run the testbed with its own feeder off and attach
  // the same stream through the counting decorator instead; the oracle
  // runs the testbed unmodified.
  const bool stream =
      cfg.workload.model == apps::ArrivalModel::kStream && kind != TrialKind::kOracle;
  const sim::Time window_end = cfg.warmup + cfg.measure;
  trace::Tracer* wall = traced ? opt.chrome_wall : nullptr;
  const auto tid = static_cast<std::uint32_t>(trial_index);
  trace::WallSpan trial_span(wall, opt.epoch, opt.wall_ids[5], tid);

  apps::ExperimentConfig bed_cfg = cfg;
  if (stream) bed_cfg.workload.rate_mpps = 0.0;
  std::unique_ptr<tgen::FlowSet> flows;
  std::unique_ptr<CountingGenerator> gen;
  std::vector<double>& seg = r.segments;

  auto t = Clock::now();
  std::optional<trace::WallSpan> span;
  span.emplace(wall, opt.epoch, opt.wall_ids[0], tid);
  apps::BasicTestbed<Sim> bed(bed_cfg);
  if (stream) {
    flows = std::make_unique<tgen::FlowSet>(cfg.workload.n_flows, cfg.workload.seed);
    tgen::StreamConfig sc;
    sc.rate_pps = cfg.workload.rate_mpps * 1e6;
    sc.wire_size = cfg.workload.wire_size;
    sc.imix = cfg.workload.imix;
    sc.poisson = cfg.workload.poisson;
    sc.seed = cfg.workload.seed;
    sc.duration = window_end + kStreamTail;
    gen = std::make_unique<CountingGenerator>(std::make_unique<tgen::StreamGenerator>(
        sc, *flows,
        std::make_unique<tgen::UniformFlowPicker>(
            static_cast<std::uint32_t>(cfg.workload.n_flows))));
  }
  seg[kSegCtor] = seconds_since(t);

  t = Clock::now();
  span.emplace(wall, opt.epoch, opt.wall_ids[1], tid);
  if (stream) tgen::attach(bed.sim(), bed.port(), *gen);
  bed.start();
  seg[kSegStart] = seconds_since(t);

  span.emplace(wall, opt.epoch, opt.wall_ids[2], tid);
  for (int i = 0; i < kWarmupSlices; ++i) {
    t = Clock::now();
    bed.run_until(cfg.warmup * (i + 1) / kWarmupSlices);
    seg[kSegWarmup + i] = seconds_since(t);
  }

  t = Clock::now();
  bed.begin_measurement();
  const stats::MetricSnapshot base = bed.telemetry().snapshot();
  const std::uint64_t events0 = bed.sim().events_processed();
  // Packets the source layer has produced: the stream's pulls (ahead of
  // delivery by at most the feeder's two 32-packet buffers) or the
  // arena's fires; unknown behind the testbed's own feeder.
  const auto produced = [&]() -> std::optional<std::uint64_t> {
    if (gen) return gen->emitted;
    if (const auto* arena = bed.flow_arena()) return arena->fired();
    return std::nullopt;
  };
  const std::uint64_t produced0 = produced().value_or(0);
  r.pending_at_measure = bed.sim().pending_events();
  seg[kSegBegin] = seconds_since(t);

  std::optional<trace::Tracer> tracer;
  if (traced) {
    tracer.emplace(1u << 16);
    bed.set_tracer(&*tracer);
    if (gen) gen->timing = true;
  }
  span.emplace(wall, opt.epoch, opt.wall_ids[3], tid);
  for (int i = 0; i < kSlices; ++i) {
    const sim::Time until = cfg.warmup + cfg.measure * (i + 1) / kSlices;
    t = Clock::now();
    bed.run_until(until);
    seg[kSegMeasure + i] = seconds_since(t);
    if (tracer) r.tally.drain(*tracer, opt.chrome_sim);
  }
  const std::uint64_t produced_in_window = produced().value_or(0) - produced0;
  if (traced) {
    bed.set_tracer(nullptr);
    if (gen) {
      gen->timing = false;
      r.tgen_s = std::chrono::duration<double>(gen->busy).count();
      r.tgen_timed_pkts = gen->timed_pkts;
    }
  }
  r.events = bed.sim().events_processed() - events0;

  t = Clock::now();
  span.emplace(wall, opt.epoch, opt.wall_ids[4], tid);
  const apps::ExperimentResult res = bed.finish_measurement();
  seg[kSegHarvest] = seconds_since(t);
  t = Clock::now();
  const stats::MetricSnapshot d = bed.telemetry().snapshot().delta(base);
  seg[kSegSnapshot] = seconds_since(t);
  t = Clock::now();
  r.fingerprint = bed.telemetry().fingerprint();
  seg[kSegFingerprint] = seconds_since(t);
  span.reset();

  // Model metrics and per-layer counts of the measured window.
  const int nq = bed.port().n_rx_queues();
  const std::uint64_t fdrop = counter_or_zero(d, "fault.dropped");
  const std::uint64_t fdup = counter_or_zero(d, "fault.dup");
  const std::uint64_t cap = d.counter("port.cap_drops");
  const std::uint64_t ring_drops = sum_queues(d, "port", nq, "dropped");
  r.offered = d.counter("port.rx") + cap + fdrop - fdup;
  (gen ? r.tgen_pkts : r.arena_fired) = produced_in_window;
  const stats::Histogram& lat = d.histogram("latency_us");
  r.throughput_mpps = res.throughput_mpps;
  r.latency_p50_us = lat.percentile(0.5);
  r.latency_p999_us = lat.percentile(0.999);
  // Dwell: end-to-end latency minus the fixed DMA/PCIe/timestamp path.
  r.dwell_us_mean = lat.summary().mean() - sim::to_micros(sim::calib::kFixedPathLatency);
  r.cpu_pct = res.cpu_percent;
  r.power_w = res.package_watts;
  r.rho = res.rho;
  r.ts_us = res.ts_us;

  auto& c = r.counters;
  c["nic.rx"] = static_cast<double>(d.counter("port.rx"));
  c["nic.tx"] = static_cast<double>(d.counter("port.tx.transmitted"));
  c["nic.ring_drops"] = static_cast<double>(ring_drops);
  c["nic.cap_drops"] = static_cast<double>(cap);
  c["stats.latency_samples"] = static_cast<double>(lat.count());
  const int met_q = bed.metronome() ? bed.metronome()->n_queues() : 0;
  for (const char* f : {"total_tries", "busy_tries", "lock_successes", "packets", "empty_polls"}) {
    c[std::string("met.") + f] = static_cast<double>(sum_queues(d, "met", met_q, f));
  }
  for (const char* f : {"burst_fill", "vacation_us", "nv"}) {
    c[std::string("met.") + f + "_mean"] = merged_mean(d, "met", met_q, f);
  }

  // Drain: let the stream finish and the feeder deliver everything it
  // pulled, then check the run from its public counters.
  bed.run_until(window_end + 2 * kStreamTail);
  check_trial(r, bed, cfg, bed.telemetry().snapshot(), produced());
  return r;
}

template <typename Sim>
double setup_seconds(const apps::ExperimentConfig& cfg) {
  const auto t0 = Clock::now();
  apps::BasicTestbed<Sim> bed(cfg);
  bed.start();
  return seconds_since(t0);
}

std::uint64_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* kind_name(TrialKind k) {
  switch (k) {
    case TrialKind::kWarmup: return "warmup";
    case TrialKind::kTimed: return "timed";
    case TrialKind::kTraced: return "traced";
    case TrialKind::kOracle: return "oracle";
  }
  return "?";
}

void write_trial(stats::JsonWriter& j, const Trial& r) {
  j.begin_object();
  j.kv("kind", kind_name(r.kind));
  j.kv("backend", backend_name(r.backend));
  j.kv("fingerprint", hex(r.fingerprint));
  write_phases(j, r.segments);
  for (const auto& [k, v] :
       {std::pair<const char*, double>{"tgen_s", r.tgen_s}, {"throughput_mpps", r.throughput_mpps},
        {"latency_p50_us", r.latency_p50_us},
        {"latency_p999_us", r.latency_p999_us}, {"dwell_us_mean", r.dwell_us_mean},
        {"cpu_pct", r.cpu_pct}, {"power_w", r.power_w}, {"rho", r.rho}, {"ts_us", r.ts_us}}) {
    j.kv(k, v);
  }
  for (const auto& [k, v] :
       {std::pair<const char*, std::uint64_t>{"events", r.events},
        {"pending_at_measure", r.pending_at_measure}, {"offered", r.offered},
        {"tgen_pkts", r.tgen_pkts}, {"tgen_timed_pkts", r.tgen_timed_pkts},
        {"arena_fired", r.arena_fired}, {"trace_dropped", r.tally.dropped}, {"rx_bursts", r.tally.rx_bursts},
        {"rx_burst_pkts", r.tally.rx_burst_pkts}, {"tx_flushes", r.tally.tx_flushes},
        {"tx_flush_pkts", r.tally.tx_flush_pkts}, {"wheel_cascades", r.tally.wheel_cascades},
        {"wheel_epochs", r.tally.wheel_epochs}}) {
    j.kv(k, v);
  }
  j.key("counters").begin_object();
  for (const auto& [k, v] : r.counters) j.kv(k, v);
  j.end_object();
  j.key("failures").begin_array();
  for (const auto& f : r.failures) j.value(f);
  j.end_array();
  j.end_object();
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::cerr << "usage: metrobench --workload=linerate_grouped|perflow_24k|lowload_sleep "
               "--seconds=S [--seed=N] [--trace=0|1] [--smoke] [--trace-out=FILE]\n";
  return 2;
}

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // required
  int trace_mode = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value_of = [&](std::string_view flag) -> std::optional<std::string_view> {
      if (a.size() > flag.size() && a.substr(0, flag.size()) == flag && a[flag.size()] == '=') {
        return a.substr(flag.size() + 1);
      }
      return std::nullopt;
    };
    if (auto v = value_of("--workload")) {
      workload_name = std::string(*v);
    } else if (auto v = value_of("--seed")) {
      if (!parse_number(*v, seed)) return usage();
    } else if (auto v = value_of("--seconds")) {
      if (!parse_number(*v, seconds) || !(seconds >= 0.0)) return usage();
    } else if (auto v = value_of("--trace")) {
      if (!parse_number(*v, trace_mode) || trace_mode < 0 || trace_mode > 1) return usage();
    } else if (auto v = value_of("--trace-out")) {
      trace_out = std::string(*v);
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  auto workload = make_workload(workload_name);
  if (!workload || seconds < 0.0) return usage();
  Workload& w = *workload;
  // The seed reaches the program only through the generated inputs: the
  // kernel's RNG stream (and the fault stream derived from it) and the
  // workload's flow set and arrival stream.
  w.cfg.seed = util::mix_seed(seed, 1);
  w.cfg.workload.seed = util::mix_seed(seed, 2);
  if (smoke) {
    w.cfg.warmup /= 4;
    w.cfg.measure /= 20;
  }
  const bool traced_mode = trace_mode == 1;
  const Backend oracle_backend = w.backend == Backend::kHeap ? Backend::kWheel : Backend::kHeap;

  RunOptions opt;
  opt.epoch = Clock::now();
  std::optional<trace::Tracer> chrome_sim, chrome_wall;
  if (traced_mode && !trace_out.empty()) {
    chrome_sim.emplace(1u << 15);
    chrome_wall.emplace(1u << 12);
    const char* names[6] = {"ctor", "start", "warmup", "measure", "harvest", "trial"};
    for (int i = 0; i < 6; ++i) opt.wall_ids[i] = chrome_wall->intern("bench", names[i]);
    opt.chrome_sim = &*chrome_sim;
    opt.chrome_wall = &*chrome_wall;
  }

  const auto trial = [&](const Workload& wl, TrialKind kind, Backend b, int index) {
    return b == Backend::kHeap ? run_trial<sim::Simulation>(wl, kind, b, opt, index)
                               : run_trial<sim::WheelSimulation>(wl, kind, b, opt, index);
  };
  // A batch of set-ups follows every timed trial. Set-up i of each batch
  // repeats set-up i of the others, and setup_s[i] keeps its fastest
  // repetition, as fastest_segments does for the trials' segments.
  std::vector<double> setup_s;
  const auto repeat_setup = [&](int times) {
    setup_s.resize(std::max(setup_s.size(), static_cast<std::size_t>(times)),
                   std::numeric_limits<double>::infinity());
    for (int i = 0; i < times; ++i) {
      const double s = w.backend == Backend::kHeap ? setup_seconds<sim::Simulation>(w.cfg)
                                                   : setup_seconds<sim::WheelSimulation>(w.cfg);
      setup_s[i] = std::min(setup_s[i], s);
    }
  };

  try {
    require_reproducible(w);
    std::vector<Trial> trials;
    // Warm-up: caches, allocator pools and lazy statics settle. A tenth of
    // the window builds the same structures; the trial is discarded.
    Workload warm = w;
    warm.cfg.measure /= 10;
    trial(warm, TrialKind::kWarmup, w.backend, 0);
    const int min_trials = smoke ? 2 : kMinTrials;
    const auto t_timed = Clock::now();
    int index = 1;
    while (static_cast<int>(trials.size()) < (traced_mode ? 2 * min_trials : min_trials) ||
           seconds_since(t_timed) < seconds) {
      trials.push_back(trial(w, TrialKind::kTimed, w.backend, index++));
      if (traced_mode) trials.push_back(trial(w, TrialKind::kTraced, w.backend, index++));
      repeat_setup(smoke ? 1 : kSetupRepeats);
    }
    const double peak_rss_mb = static_cast<double>(vm_hwm_kb()) / 1024.0;

    Trial oracle = trial(w, TrialKind::kOracle, oracle_backend, index++);

    // Cross-trial identity: every trial reproduces the first timed trial.
    std::vector<std::string> checks = {"fingerprint.timed_trials_agree"};
    if (traced_mode) checks.emplace_back("fingerprint.traced_matches_untraced");
    checks.push_back(std::string("fingerprint.oracle_") + backend_name(oracle_backend) +
                     "_matches");
    const std::uint64_t reference = trials.front().fingerprint;
    for (Trial& r : trials) {
      if (r.fingerprint != reference) {
        r.failures.push_back(r.kind == TrialKind::kTraced ? checks[1] : checks[0]);
      }
    }
    if (oracle.fingerprint != reference) oracle.failures.push_back(checks.back());
    for (const char* name : {"conservation.ingress", "conservation.rx_queues",
                             "conservation.tx_bound", "finite.summaries", "model.cpu_bound"}) {
      checks.emplace_back(name);
    }
    std::set<std::string> failed(oracle.failures.begin(), oracle.failures.end());
    for (const Trial& r : trials) failed.insert(r.failures.begin(), r.failures.end());

    stats::JsonWriter j(std::cout);
    j.begin_object();
    j.kv("workload", w.name);
    j.kv("seed", seed);
    j.kv("mode", traced_mode ? "traced" : "timed");
    j.kv("smoke", smoke);
    j.kv("backend", backend_name(w.backend));
    j.kv("oracle_backend", backend_name(oracle_backend));
    j.key("build").begin_object();
    j.kv("compiler", compiler_id());
    j.kv("flags", METROBENCH_CXX_FLAGS);
    j.kv("build_type", METROBENCH_BUILD_TYPE);
    j.end_object();
    j.key("config").begin_object();
    j.kv("driver", w.cfg.driver == apps::DriverKind::kMetronome ? "metronome" : "static_polling");
    j.kv("nic", w.cfg.xl710 ? "xl710" : "x520");
    j.kv("n_queues", w.cfg.n_queues);
    j.kv("n_cores", w.cfg.n_cores);
    j.kv("rate_mpps", w.cfg.workload.rate_mpps);
    j.kv("n_flows", static_cast<std::uint64_t>(w.cfg.workload.n_flows));
    j.kv("per_flow", w.cfg.workload.model == apps::ArrivalModel::kPerFlow);
    j.kv("warmup_s", sim::to_seconds(w.cfg.warmup));
    j.kv("measure_s", sim::to_seconds(w.cfg.measure));
    j.kv("warmup_slices", kWarmupSlices);
    j.kv("slices", kSlices);
    j.end_object();
    j.key("fastest").begin_object();
    for (const TrialKind kind : {TrialKind::kTimed, TrialKind::kTraced}) {
      std::vector<const Trial*> of_kind;
      for (const Trial& r : trials) {
        if (r.kind == kind) of_kind.push_back(&r);
      }
      if (of_kind.empty()) continue;
      j.key(kind_name(kind)).begin_object();
      write_phases(j, fastest_segments(of_kind));
      j.end_object();
    }
    j.end_object();
    j.kv("peak_rss_mb", peak_rss_mb);
    j.key("setup_s").begin_array();
    for (const double s : setup_s) j.value(s);
    j.end_array();
    j.key("trials").begin_array();
    for (const Trial& r : trials) write_trial(j, r);
    j.end_array();
    j.key("oracle");
    write_trial(j, oracle);
    j.key("checks").begin_array();
    for (const auto& name : checks) {
      j.begin_object().kv("name", name).kv("ok", failed.count(name) == 0).end_object();
    }
    j.end_array();
    j.end_object();
    std::cout << "\n";

    if (chrome_sim) {
      std::ofstream out(trace_out);
      trace::write_chrome_trace(out, {{"metrobench wall clock", &*chrome_wall},
                                      {"sim time: " + w.name, &*chrome_sim}});
      if (!out) {
        std::cerr << "metrobench: cannot write " << trace_out << "\n";
        return 3;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "metrobench: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
