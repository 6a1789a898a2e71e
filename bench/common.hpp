// Shared helpers for the bench binaries: the one flag parser, report
// writers, trial statistics and the identity gate.
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
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/sweep.hpp"
#include "stats/table.hpp"
#include "stats/trace.hpp"

namespace metro::bench {

/// Event-queue backend selection; kAll is every backend the kernel has
/// (heap and wheel).
enum class BackendChoice { kHeap, kWheel, kAll };

/// How the ipsec bench path treats per-packet crypto. kCalibrated charges
/// calib::kIpsecPerPacketCost only (the historical behaviour; simulated
/// results are the reference). kLive additionally executes the real ESP
/// gateway per drained descriptor via nic::PacketWork — simulated results
/// stay bit-identical, but wall time now contains the crypto substrate, so
/// wall-clock simulated-packets/s measures it end to end.
enum class CryptoMode { kCalibrated, kLive };

/// The enabled backends as SweepRunner shard kinds, heap first.
inline std::vector<scenario::BackendKind> backend_kinds(BackendChoice c) {
  std::vector<scenario::BackendKind> out;
  if (c != BackendChoice::kWheel) out.push_back(scenario::BackendKind::kHeap);
  if (c != BackendChoice::kHeap) out.push_back(scenario::BackendKind::kWheel);
  return out;
}

/// Default worker count for benches whose sweeps run through
/// scenario::SweepRunner: half the hardware threads (each shard is a
/// single-threaded simulation; leaving headroom keeps the host usable),
/// at least 1, at most 8.
inline int default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw / 2, 1u, 8u));
}

/// The shared flag set, parsed once per bench (the one place --fast /
/// --backend / --jobs / --trace / --list / --only / --deadline spellings
/// live).
struct Args {
  bool fast = false;
  BackendChoice backend = BackendChoice::kHeap;
  int jobs = 1;
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
         "  --backend=heap|wheel|all\n"
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
/// numeric — a typo like --backed=wheel or --jobs=abc must never
/// silently run defaults, which is how a misconfigured overnight sweep
/// produces wrong-but-plausible numbers. Split from parse_args so tests
/// can exercise the policy without exiting.
inline bool try_parse_args(int argc, char** argv, BackendChoice def_backend, int def_jobs,
                           Args& out, std::string& error) {
  out = Args{};
  out.backend = def_backend;
  out.jobs = def_jobs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      out.fast = true;
    } else if (arg == "--list") {
      out.list = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string v = arg.substr(10);
      if (v == "heap") {
        out.backend = BackendChoice::kHeap;
      } else if (v == "wheel") {
        out.backend = BackendChoice::kWheel;
      } else if (v == "all") {
        out.backend = BackendChoice::kAll;
      } else {
        error = "unknown --backend value '" + v + "' (heap|wheel|all)";
        return false;
      }
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

inline Args parse_args(int argc, char** argv, BackendChoice def_backend, int def_jobs) {
  Args a;
  std::string error;
  if (!try_parse_args(argc, argv, def_backend, def_jobs, a, error)) {
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
    lanes.push_back(trace::TraceProcess{"shard " + std::to_string(i) + ": " +
                                            shards[i].scenario + "/" +
                                            scenario::backend_name(shards[i].backend),
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

/// The identity gate every cross-run check shares (cross-backend, trial
/// to trial, calibrated vs live crypto). Each run is compared with the
/// first run of its key on the telemetry fingerprint (every registered
/// counter, summary and histogram bin) and the final kernel clock. Prints
/// one DIVERGENCE line per mismatch to `err` and returns the mismatch
/// count. Failed shards have no telemetry and are skipped; callers count
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

/// identity_gate over a sweep: shards with the same label are one point
/// run on several backends.
inline std::size_t identity_gate(const std::vector<scenario::Shard>& shards,
                                 const std::vector<scenario::ShardResult>& results,
                                 std::ostream& err = std::cerr) {
  std::vector<GateRun> runs;
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    runs.push_back({shards[i].scenario, scenario::backend_name(shards[i].backend), &results[i]});
  }
  return identity_gate(runs, err);
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
