// Shared helpers for the bench binaries: the one flag parser, report
// writers, trial statistics, the identity gate and the sweep driver.
//
// bench_paper regenerates the paper's grid-shaped §V figures and tables
// from one table of figures (bench/paper_figures.hpp); the other binaries
// drive the testbed by hand or measure the simulator itself. Output
// convention: a header naming the experiment, the paper's qualitative
// expectation, then an aligned table of the regenerated rows.
//
// Flags: usage_text() lists them and docs/BENCHMARKS.md documents each
// one (with the binary -> figure map). Parsing is strict: unknown flags
// and malformed numeric values print the usage text and exit 2. Benches
// that only take --fast use parse_fast(), with the same policy.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/sweep.hpp"
#include "stats/table.hpp"
#include "stats/trace.hpp"

namespace metro::bench {

/// How the ipsec bench path treats per-packet crypto. kCalibrated charges
/// calib::kIpsecPerPacketCost only (the historical behaviour; simulated
/// results are the reference). kLive additionally executes the real ESP
/// gateway per drained descriptor via nic::PacketWork — simulated results
/// stay bit-identical, but wall time now contains the crypto substrate, so
/// wall-clock simulated-packets/s measures it end to end.
enum class CryptoMode { kCalibrated, kLive };

/// The shared flag set, parsed once per bench (the one place --fast /
/// --jobs / --trace / --list / --only / --deadline spellings live).
struct Args {
  bool fast = false;
  int jobs = 1;  ///< sweep workers; > 1 also runs run_sweep's one-worker rerun
  std::string trace;  ///< external pcap for kTrace scenarios; empty = synthesise
  bool list = false;  ///< print the selectable names and exit
  std::vector<std::string> only;  ///< scenario or figure filter; empty = all
  double deadline_s = 0.0;        ///< per-shard wall-clock deadline; 0 = off
  CryptoMode crypto = CryptoMode::kCalibrated;  ///< fig16 ipsec crypto mode
  double series_us = 0.0;   ///< telemetry sampling interval in us; 0 = off
  std::string trace_out;    ///< Chrome trace output path; empty = no tracing
  std::size_t flows = 0;    ///< kernel_throughput scale-block population; 0 = registry defaults
};

inline const char* usage_text() {
  return "flags:\n"
         "  --fast               shrink measurement windows (CI smoke mode)\n"
         "  --jobs=N             sweep worker threads (1..1024)\n"
         "  --trace=<file>       external pcap for kTrace scenarios\n"
         "  --list               print the scenario (or figure) names and exit\n"
         "  --only=a,b,c         restrict the run to the named scenarios (or figures)\n"
         "  --deadline=SECONDS   per-shard wall-clock deadline (> 0)\n"
         "  --series=INTERVAL_US sample telemetry every INTERVAL_US of sim time\n"
         "  --trace-out=<file>   write a Chrome trace-event JSON of the run\n"
         "  --crypto=calibrated|live\n"
         "                       fig16 ipsec: charge the calibrated cost only, or\n"
         "                       also run the real ESP gateway per packet\n"
         "  --flows=N            kernel_throughput: run the full-stack scale block\n"
         "                       on one custom per-flow population (1..2^26)\n"
         "                       instead of the registry's 1m/4m/16m ladder\n";
}

/// Strict single-pass parser behind parse_args(): every argv entry must
/// be a recognised flag with a well-formed value. Returns false (with a
/// one-line reason in `error`) on the first unknown flag or malformed
/// numeric — a typo like --jbos=4 or --jobs=abc must never silently run
/// defaults, which is how a misconfigured overnight sweep produces
/// wrong-but-plausible numbers. Split from parse_args so tests can
/// exercise the policy without exiting.
inline bool try_parse_args(int argc, char** argv, Args& out, std::string& error) {
  out = Args{};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      out.fast = true;
    } else if (arg == "--list") {
      out.list = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string v = arg.substr(7);
      char* end = nullptr;
      const long n = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 1 || n > 1024) {
        error = "bad --jobs value '" + v + "' (want 1..1024)";
        return false;
      }
      out.jobs = static_cast<int>(n);
    } else if (arg.rfind("--trace=", 0) == 0) {
      out.trace = arg.substr(8);
      if (out.trace.empty()) {
        error = "--trace needs a pcap path (--trace=<file>)";
        return false;
      }
    } else if (arg.rfind("--only=", 0) == 0) {
      const std::string v = arg.substr(7);
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string name =
            v.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) out.only.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (out.only.empty()) {
        error = "--only needs a comma-separated scenario list (--only=a,b)";
        return false;
      }
    } else if (arg.rfind("--deadline=", 0) == 0) {
      const std::string v = arg.substr(11);
      char* end = nullptr;
      const double s = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(s > 0.0)) {
        error = "bad --deadline value '" + v + "' (want seconds > 0)";
        return false;
      }
      out.deadline_s = s;
    } else if (arg.rfind("--series=", 0) == 0) {
      const std::string v = arg.substr(9);
      char* end = nullptr;
      const double us = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(us > 0.0)) {
        error = "bad --series value '" + v + "' (want microseconds > 0)";
        return false;
      }
      out.series_us = us;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      out.trace_out = arg.substr(12);
      if (out.trace_out.empty()) {
        error = "--trace-out needs a file path (--trace-out=<file>)";
        return false;
      }
    } else if (arg.rfind("--flows=", 0) == 0) {
      const std::string v = arg.substr(8);
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 1 || n > (1LL << 26)) {
        error = "bad --flows value '" + v + "' (want 1..2^26)";
        return false;
      }
      out.flows = static_cast<std::size_t>(n);
    } else if (arg.rfind("--crypto=", 0) == 0) {
      const std::string v = arg.substr(9);
      if (v == "calibrated") {
        out.crypto = CryptoMode::kCalibrated;
      } else if (v == "live") {
        out.crypto = CryptoMode::kLive;
      } else {
        error = "unknown --crypto value '" + v + "' (calibrated|live)";
        return false;
      }
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  std::string error;
  if (!try_parse_args(argc, argv, a, error)) {
    std::cerr << error << "\n" << usage_text();
    std::exit(2);
  }
  return a;
}

/// Strict parser for the figure benches whose only flag is --fast. Unknown
/// flags get the same usage-and-exit-2 treatment as parse_args — a typoed
/// `--fats` overnight run must fail at launch, not run the full windows.
inline bool try_parse_fast(int argc, char** argv, bool& fast, std::string& error) {
  fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      error = "unknown flag '" + std::string(argv[i]) + "'";
      return false;
    }
  }
  return true;
}

inline bool parse_fast(int argc, char** argv) {
  bool fast = false;
  std::string error;
  if (!try_parse_fast(argc, argv, fast, error)) {
    std::cerr << error << "\nflags:\n  --fast    shrink measurement windows (CI smoke mode)\n";
    std::exit(2);
  }
  return fast;
}

/// Write a bench report (BENCH_*.json, a Chrome trace) to `path`, failing
/// loudly (message + exit 1) when the file cannot be created or written —
/// a silently-missing report from an overnight run is the same footgun as
/// a silently-defaulted flag.
inline void write_report(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open report file '" << path << "' for writing\n";
    std::exit(1);
  }
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "failed writing report file '" << path << "'\n";
    std::exit(1);
  }
}

/// Median and IQR of one measured quantity over repeated trials.
struct Sample {
  double median = 0.0;
  double iqr = 0.0;
};

/// Median and IQR (p75 - p25) of `trials`, each quantile linearly
/// interpolated between the two nearest order statistics (position
/// q * (n - 1) in the sorted sample). At odd n = 4k + 1 (the crypto
/// bench's 5 and 9 trials) every quantile lands on an order statistic.
/// An empty sample gives {0, 0}.
inline Sample sample_of(std::vector<double> trials) {
  if (trials.empty()) return {};
  std::sort(trials.begin(), trials.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(trials.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, trials.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return trials[lo] * (1.0 - frac) + trials[hi] * frac;
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Write Chrome trace-event JSON for the given lanes to `path` through
/// write_report (exit 1 on an unwritable path). Prints a one-line
/// summary (events, drops).
inline void write_trace_file(const std::string& path,
                             const std::vector<trace::TraceProcess>& lanes) {
  std::size_t events = 0;
  std::uint64_t drops = 0;
  for (const auto& lane : lanes) {
    events += lane.tracer->size();
    drops += lane.tracer->dropped();
  }
  std::ostringstream text;
  trace::write_chrome_trace(text, lanes);
  write_report(path, text.str());
  std::cout << "trace: " << events << " events in " << lanes.size() << " lane(s) -> " << path;
  if (drops > 0) std::cout << " (" << drops << " dropped at capacity)";
  std::cout << "\n";
}

/// The --trace-out export path of the sweep benches: one process lane per
/// traced shard plus one wall-clock lane per sweep worker.
inline void write_sweep_trace(const std::string& path,
                              const std::vector<scenario::Shard>& shards,
                              const std::vector<scenario::ShardResult>& results,
                              const scenario::SweepRunner& runner) {
  std::vector<trace::TraceProcess> lanes;
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    if (results[i].trace == nullptr) continue;
    lanes.push_back(trace::TraceProcess{"shard " + std::to_string(i) + ": " + shards[i].scenario,
                                        results[i].trace.get()});
  }
  for (std::size_t w = 0; w < runner.wall_tracers().size(); ++w) {
    lanes.push_back(trace::TraceProcess{"sweep worker " + std::to_string(w) + " (wall)",
                                        runner.wall_tracers()[w].get()});
  }
  write_trace_file(path, lanes);
}

/// One run entered into identity_gate: runs sharing a key must be the
/// same execution; the label names the run in a DIVERGENCE line.
struct GateRun {
  std::string key;
  std::string label;
  const scenario::ShardResult* result;
};

/// The identity gate every cross-run check shares (cross-store and trial
/// to trial in the kernel bench, calibrated vs live crypto). Each run is
/// compared with the first run of its key on the telemetry fingerprint
/// (every registered counter, summary and histogram bin) and the final
/// kernel clock. Prints one DIVERGENCE line per mismatch to `err` and
/// returns the mismatch count. Failed shards have no telemetry and are skipped; callers count
/// them through scenario::failed_count.
inline std::size_t identity_gate(const std::vector<GateRun>& runs, std::ostream& err = std::cerr) {
  const auto describe = [](const GateRun& g) {
    const scenario::ShardResult& r = *g.result;
    return g.label + " (rx " + std::to_string(r.counters.rx) + ", tx " +
           std::to_string(r.counters.tx) + ", drop " + std::to_string(r.counters.dropped) +
           ", fingerprint " + std::to_string(r.fingerprint) + ", clock " +
           std::to_string(r.final_clock) + ")";
  };
  std::map<std::string, const GateRun*> first;
  std::size_t mismatches = 0;
  for (const GateRun& run : runs) {
    if (run.result->failed) continue;
    const auto [it, inserted] = first.emplace(run.key, &run);
    if (inserted) continue;
    const scenario::ShardResult& ref = *it->second->result;
    if (run.result->fingerprint != ref.fingerprint ||
        run.result->final_clock != ref.final_clock) {
      ++mismatches;
      err << "DIVERGENCE at " << run.key << ": " << describe(*it->second) << " vs "
          << describe(run) << "\n";
    }
  }
  return mismatches;
}

/// The jobs gate of run_sweep: the --jobs run and the one-worker rerun
/// of `shards` must give byte-identical report_json(…, false) — every
/// shard's fingerprint, counters and metrics, failures included. Prints
/// the verdict, a determinism line to `out` or a SWEEP NONDETERMINISM
/// line to `err`, and returns whether the reports matched.
inline bool jobs_identical(const std::vector<scenario::Shard>& shards,
                           const std::vector<scenario::ShardResult>& parallel,
                           const std::vector<scenario::ShardResult>& serial, int jobs,
                           std::ostream& out = std::cout, std::ostream& err = std::cerr) {
  if (scenario::report_json(shards, parallel, false) ==
      scenario::report_json(shards, serial, false)) {
    out << "determinism check: --jobs=" << jobs << " and --jobs=1 reports are byte-identical\n";
    return true;
  }
  err << "SWEEP NONDETERMINISM: report differs between --jobs=" << jobs
      << " and --jobs=1\n";
  return false;
}

/// What run_sweep hands its printer: the --jobs run's results in shard
/// order, and that run's wall time in seconds.
using SweepPrinter = std::function<void(const std::vector<scenario::ShardResult>&, double)>;

/// The sweep driver of bench_paper and bench_scenario_matrix. Runs
/// `shards` on --jobs workers, with --deadline's per-shard watchdog and,
/// under --trace-out, a small trace ring per shard (breadth over depth:
/// the merged Chrome export stays loadable across a whole matrix, and
/// drops are counted). Hands the results to `print`, then gates them:
///   * every failed shard is listed on stderr;
///   * with --jobs > 1 the shards run again on one worker, and the two
///     runs must pass jobs_identical. The rerun is untraced, so the gate
///     also proves tracing never perturbs results.
/// Writes the timed report (report_json with per-worker counters) to
/// `report_path` when one is given, then the --trace-out file. Returns
/// the exit status: 1 on a failed shard or a jobs mismatch, else 0.
inline int run_sweep(const std::vector<scenario::Shard>& shards, const Args& args,
                     const SweepPrinter& print, const std::string& report_path = {}) {
  const auto t0 = std::chrono::steady_clock::now();
  scenario::SweepRunner runner(args.jobs);
  runner.set_shard_deadline(args.deadline_s);
  if (!args.trace_out.empty()) runner.set_tracing(1u << 10);
  // The hardened runner captures per-shard exceptions into the results, so
  // a shard that cannot even be assembled is reported and counted below
  // instead of taking the whole sweep down.
  const std::vector<scenario::ShardResult> results = runner.run(shards);
  print(results, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

  const std::size_t n_failed = scenario::failed_count(results);
  if (n_failed > 0) {
    std::cerr << "\n" << n_failed << " shard(s) failed:\n"
              << scenario::failure_summary(shards, results);
  }
  bool nondeterministic = false;
  if (args.jobs > 1 && !shards.empty()) {
    // Same runner configuration, one worker: failure capture included —
    // a deterministic failure must produce the identical `failures`
    // section on any worker count.
    scenario::SweepRunner serial_runner(1);
    serial_runner.set_shard_deadline(args.deadline_s);
    nondeterministic = !jobs_identical(shards, results, serial_runner.run(shards), args.jobs);
  }
  if (!report_path.empty()) {
    write_report(report_path, scenario::report_json(shards, results, true, &runner));
    std::cout << "wrote " << report_path << "\n";
  }
  if (!args.trace_out.empty()) write_sweep_trace(args.trace_out, shards, results, runner);
  if (!nondeterministic && n_failed == 0) return 0;
  std::cerr << "\nFAIL:";
  if (nondeterministic) std::cerr << " nondeterministic sweep report";
  if (n_failed > 0) std::cerr << " " << n_failed << " failed shard(s)";
  std::cerr << "\n";
  return 1;
}

inline void header(const std::string& title, const std::string& paper_expectation) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper: " << paper_expectation << "\n\n";
}

/// Default measurement windows (shrunk by --fast).
struct Windows {
  sim::Time warmup;
  sim::Time measure;
};

inline Windows windows(bool fast) {
  if (fast) return {50 * sim::kMillisecond, 100 * sim::kMillisecond};
  return {200 * sim::kMillisecond, 800 * sim::kMillisecond};
}

inline std::string num(double v, int p = 2) { return stats::Table::num(v, p); }

/// Format a latency boxplot as "median [p25-p75] (p5-p95)".
inline std::string boxplot_str(const stats::Boxplot& b) {
  return num(b.median) + " [" + num(b.p25) + "-" + num(b.p75) + "] (" + num(b.whisker_lo) + "-" +
         num(b.whisker_hi) + ")";
}

}  // namespace metro::bench
