#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "stats/json_writer.hpp"

namespace metro::scenario {

namespace {

using Clock = std::chrono::steady_clock;

/// Attempts per shard: the first plus one deterministic retry.
constexpr int kMaxAttempts = 2;

}  // namespace

ShardResult measure_shard(apps::Testbed& bed, const Shard& shard, Clock::time_point t0,
                          double deadline_s, std::size_t trace_capacity) {
  // Cooperative watchdog: with a deadline set, each virtual-time phase is
  // sliced and the host clock checked between slices. run_until(t) runs
  // every event at <= t and then advances the clock to exactly t, so the
  // slicing is execution-equivalent — same events, same order, same
  // fingerprint — and only the *wall* behaviour changes.
  const auto run_to = [&](sim::Time from, sim::Time target) {
    if (deadline_s <= 0.0) {
      bed.run_until(target);
      return;
    }
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(deadline_s));
    constexpr sim::Time kSlices = 32;
    for (sim::Time s = 1; s <= kSlices; ++s) {
      bed.run_until(s == kSlices ? target : from + (target - from) * s / kSlices);
      if (Clock::now() > deadline) {
        // Deterministic text (no timing values): failed reports must stay
        // byte-identical across worker counts.
        throw std::runtime_error("shard wall-clock deadline exceeded (scenario '" +
                                 shard.scenario + "')");
      }
    }
  };
  bed.start();
  run_to(0, shard.config.warmup);
  bed.begin_measurement();
  // The trace ring covers the measurement window only: attached at
  // construction, warm-up would fill a small ring before the window opens.
  std::shared_ptr<trace::Tracer> tracer;
  if (trace_capacity > 0) {
    tracer = std::make_shared<trace::Tracer>(trace_capacity);
    bed.set_tracer(tracer.get());
  }
  ShardResult out;
  out.pending_at_measure = bed.sim().pending_events();
  run_to(shard.config.warmup, shard.config.warmup + shard.config.measure);
  out.result = bed.finish_measurement();
  // The full telemetry set *is* the shard's observable state: snapshot it
  // once, fingerprint it (order-sensitive over every counter, summary and
  // histogram bin — what cross-run identity means), and derive the
  // headline counter view from the same snapshot.
  out.telemetry = bed.telemetry().snapshot();
  out.fingerprint = out.telemetry.fingerprint();
  out.counters = ShardCounters{out.telemetry.counter("port.rx"),
                               apps::port_drops(out.telemetry, bed.port().n_rx_queues()),
                               out.telemetry.counter("port.tx.transmitted"),
                               bed.packets_processed()};
  out.events = bed.sim().events_processed();
  out.final_clock = bed.sim().now();
  out.latency_count = out.telemetry.histogram("latency_us").count();

  if (const stats::SeriesRecorder* sr = bed.series(); sr != nullptr) {
    out.series = compact_series(*sr, bed.port().n_rx_queues());
  }
  out.trace = std::move(tracer);

  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

ShardSeries compact_series(const stats::SeriesRecorder& sr, int n_queues) {
  ShardSeries out;
  out.interval = sr.interval();
  out.dropped_windows = sr.dropped();
  out.windows.reserve(sr.size());
  for (std::size_t k = 0; k < sr.size(); ++k) {
    const stats::SeriesRecorder::Window& win = sr.window(k);
    SeriesWindow w;
    w.t_end = win.t_end;
    w.fingerprint = win.fingerprint;
    w.rx = win.delta.counter("port.rx");
    w.tx = win.delta.counter("port.tx.transmitted");
    w.dropped = apps::port_drops(win.delta, n_queues);
    const stats::Histogram& lat = win.delta.histogram("latency_us");
    w.latency_count = lat.count();
    w.latency_sum_us = lat.summary().sum();
    for (int q = 0;; ++q) {
      const auto* e = win.delta.find("met.q" + std::to_string(q) + ".total_tries");
      if (e == nullptr) break;
      w.wakeups += e->counter;
    }
    out.windows.push_back(w);
  }
  return out;
}

std::vector<Shard> SweepRunner::expand(const SweepMatrix& matrix) {
  std::vector<Shard> shards;
  for (const auto& name : matrix.scenarios) {
    const ScenarioSpec* spec = find_scenario(name);
    if (spec == nullptr) {
      throw std::invalid_argument("SweepRunner: unknown scenario '" + name + "'");
    }
    apps::ExperimentConfig cfg = spec->config;
    if (matrix.warmup >= 0) cfg.warmup = matrix.warmup;
    if (matrix.measure >= 0) cfg.measure = matrix.measure;
    if (matrix.series_interval > 0) cfg.series_interval = matrix.series_interval;
    shards.push_back(Shard{spec->name, cfg});
  }
  return shards;
}

ShardResult SweepRunner::execute(const Shard& shard) const {
  // Exception isolation + retry: any throw (configuration error,
  // deadline) is captured into the result instead of unwinding into the
  // worker, where it would std::terminate the process.
  ShardResult out;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    try {
      const auto t0 = Clock::now();
      apps::Testbed bed(shard.config);
      out = measure_shard(bed, shard, t0, deadline_s_, trace_capacity_);
      out.attempts = attempt;
      return out;
    } catch (const std::exception& e) {
      out = ShardResult{};
      out.failed = true;
      out.attempts = attempt;
      out.error = e.what();
    } catch (...) {
      out = ShardResult{};
      out.failed = true;
      out.attempts = attempt;
      out.error = "unknown exception";
    }
  }
  return out;
}

std::vector<ShardResult> SweepRunner::run(const std::vector<Shard>& shards) const {
  std::vector<ShardResult> results(shards.size());
  worker_stats_.clear();
  wall_tracers_.clear();
  if (shards.empty()) return results;

  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), shards.size()));
  worker_stats_.resize(static_cast<std::size_t>(workers));
  if (trace_capacity_ > 0) {
    // One wall lane per worker: shard spans from different threads never
    // interleave inside one ring, and export stays merge-free.
    wall_tracers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      // Worker rings only hold one kShard span per shard run.
      wall_tracers_.push_back(std::make_unique<trace::Tracer>(shards.size() + 1));
    }
  }
  const auto epoch = std::chrono::steady_clock::now();

  const auto run_one = [&](int w, std::size_t i) {
    WorkerStats& ws = worker_stats_[static_cast<std::size_t>(w)];
    const auto t0 = std::chrono::steady_clock::now();
    {
      trace::WallSpan span(trace_capacity_ > 0 ? wall_tracers_[static_cast<std::size_t>(w)].get()
                                               : nullptr,
                           epoch, trace::id::kShard, static_cast<std::uint32_t>(w), i);
      results[i] = execute(shards[i]);
    }
    ws.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ++ws.shards_run;
    if (results[i].failed) ++ws.shards_failed;
    ws.retries += static_cast<std::uint64_t>(results[i].attempts - 1);
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < shards.size(); ++i) run_one(0, i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&](int w) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards.size()) return;
      run_one(w, i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (auto& t : pool) t.join();
  return results;
}

std::size_t failed_count(const std::vector<ShardResult>& results) {
  std::size_t n = 0;
  for (const ShardResult& r : results) n += r.failed ? 1 : 0;
  return n;
}

std::string failure_summary(const std::vector<Shard>& shards,
                            const std::vector<ShardResult>& results) {
  std::ostringstream os;
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    if (!results[i].failed) continue;
    os << "shard " << i << " [" << shards[i].scenario << " @ " << shards[i].config.workload.rate_mpps << " Mpps] failed after "
       << results[i].attempts << (results[i].attempts == 1 ? " attempt: " : " attempts: ")
       << results[i].error << "\n";
  }
  return os.str();
}

namespace {

/// A shard's `timeseries` JSON object: interval + drop count + the
/// shard's measurement-window packet totals (with no windows dropped, the
/// per-window arrays sum to exactly these — the self-check CI runs against
/// the report) + parallel per-window arrays (schema documented in
/// docs/BENCHMARKS.md).
void write_series_json(stats::JsonWriter& w, const ShardSeries& s,
                       const apps::ExperimentResult& totals) {
  w.begin_object();
  w.kv("interval_ns", static_cast<std::int64_t>(s.interval));
  w.kv("dropped_windows", s.dropped_windows);
  w.kv("n_windows", static_cast<std::uint64_t>(s.windows.size()));
  w.kv("window_rx", totals.rx_packets);
  w.kv("window_tx", totals.tx_packets);
  w.kv("window_dropped", totals.dropped_packets);
  w.key("t_end_ns").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(static_cast<std::int64_t>(win.t_end));
  w.end_array();
  w.key("fingerprints").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.fingerprint);
  w.end_array();
  w.key("rx").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.rx);
  w.end_array();
  w.key("tx").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.tx);
  w.end_array();
  w.key("dropped").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.dropped);
  w.end_array();
  w.key("latency_count").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.latency_count);
  w.end_array();
  w.key("latency_sum_us").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.latency_sum_us);
  w.end_array();
  w.key("wakeups").begin_array();
  for (const SeriesWindow& win : s.windows) w.value(win.wakeups);
  w.end_array();
  w.end_object();
}

}  // namespace

std::string report_json(const std::vector<Shard>& shards,
                        const std::vector<ShardResult>& results, bool include_timing,
                        const SweepRunner* runner) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("shards").begin_array();
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    const Shard& s = shards[i];
    const ShardResult& r = results[i];
    w.begin_object();
    w.kv("scenario", s.scenario);
    w.kv("rate_mpps", s.config.workload.rate_mpps);
    w.kv("seed", s.config.seed);
    w.key("counters").begin_object();
    w.kv("rx", r.counters.rx);
    w.kv("dropped", r.counters.dropped);
    w.kv("tx", r.counters.tx);
    w.kv("processed", r.counters.processed);
    w.end_object();
    w.kv("events", r.events);
    w.kv("pending_at_measure", static_cast<std::uint64_t>(r.pending_at_measure));
    w.kv("final_clock_ns", static_cast<std::int64_t>(r.final_clock));
    w.kv("latency_count", r.latency_count);
    w.kv("telemetry_fingerprint", r.fingerprint);
    w.kv("throughput_mpps", r.result.throughput_mpps);
    w.kv("loss_permille", r.result.loss_permille);
    w.kv("cpu_percent", r.result.cpu_percent);
    w.kv("package_watts", r.result.package_watts);
    w.kv("failed", r.failed);
    w.kv("attempts", r.attempts);
    if (r.failed) w.kv("error", r.error);
    if (include_timing) w.kv("wall_seconds", r.wall_seconds);
    if (r.series.interval > 0) {
      w.key("timeseries");
      write_series_json(w, r.series, r.result);
    }
    w.key("metrics");
    r.telemetry.write_json(w);
    w.end_object();
  }
  w.end_array();
  // Every failed shard again, by itself: the section a red CI run is read
  // from (and the section tests assert a deliberately-throwing shard
  // lands in). Always present, empty on a clean sweep.
  w.key("failures").begin_array();
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    if (!results[i].failed) continue;
    const Shard& s = shards[i];
    w.begin_object();
    w.kv("shard", static_cast<std::uint64_t>(i));
    w.kv("scenario", s.scenario);
    w.kv("rate_mpps", s.config.workload.rate_mpps);
    w.kv("seed", s.config.seed);
    w.kv("attempts", results[i].attempts);
    w.kv("error", results[i].error);
    w.end_object();
  }
  w.end_array();
  // Per-worker sweep execution counters (`sweep.tN.*`). Wall-clock
  // observability: the shard->worker assignment races for jobs > 1, so
  // this block rides the include_timing path and stays out of every
  // byte-identity comparison.
  if (include_timing && runner != nullptr && !runner->worker_stats().empty()) {
    w.key("sweep_workers").begin_object();
    const auto& stats = runner->worker_stats();
    for (std::size_t t = 0; t < stats.size(); ++t) {
      const std::string base = "sweep.t" + std::to_string(t);
      w.kv(base + ".shards", stats[t].shards_run);
      w.kv(base + ".failed", stats[t].shards_failed);
      w.kv(base + ".retries", stats[t].retries);
      w.kv(base + ".busy_seconds", stats[t].busy_seconds);
    }
    w.end_object();
  }
  w.end_object();
  w.finish();
  return os.str();
}

}  // namespace metro::scenario
