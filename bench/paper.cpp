// bench_paper: every figure of bench/paper_figures.hpp through the sweep
// driver. Each selected figure's grid becomes one shard per point
// (figure-major, then grid order); each figure then prints its header and
// tables. A failed shard or, with --jobs > 1, a one-worker rerun whose
// report differs exits 1.
//
// --crypto=live replaces fig16's tables by the live-crypto IPsec run: the
// real ESP gateway executes per drained packet, the simulated results must
// match a calibrated run fingerprint for fingerprint, and both sweeps run
// on one worker so wall time measures the crypto.
#include <cstdint>
#include <memory>

#include "common.hpp"
#include "crypto_common.hpp"
#include "paper_figures.hpp"

using namespace metro;
using bench::Figure;
using bench::Point;
using scenario::Shard;
using scenario::ShardResult;

namespace {

/// One selected figure's slice of the sweep: its grid, starting at shard
/// `first`.
struct Block {
  const Figure* fig;
  std::vector<Point> points;
  std::size_t first = 0;
};

/// Print a figure's tables (see Point::section).
void print_tables(const Figure& fig, const std::vector<Point>& points, const ShardResult* results) {
  stats::Table table(fig.columns);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const apps::ExperimentResult& r = results[i].result;
    if (i == 0 || p.section != points[i - 1].section) {
      const std::string caption = fig.caption ? fig.caption(p, r) : p.section;
      if (!caption.empty()) std::cout << caption << "\n";
      table = stats::Table(fig.columns);
    }
    for (auto& row : fig.rows(p, r)) table.add_row(std::move(row));
    const bool last = i + 1 == points.size();
    if (last || points[i + 1].section != p.section) {
      table.print();
      const std::string note = fig.note ? fig.note(p, r) : std::string();
      if (!note.empty()) std::cout << note << "\n";
      if (!last) std::cout << "\n";
    }
  }
}

/// --crypto=live: the fig16 IPsec grid run calibrated, then again with a
/// live ESP worker hooked into every driver, gated run for run.
int run_live_crypto(const Figure& fig16, const bench::Args& args) {
  bench::header("Figure 16 (live crypto) - IPsec gateway, real ESP per packet",
                "simulated results identical to calibrated mode (fingerprint-checked); "
                "wall time now contains the crypto substrate");

  std::vector<Shard> shards;
  for (const Point& p : fig16.grid(args.fast)) {
    if (p.section != bench::figures::kIpsecTitle) continue;
    shards.push_back(Shard{"fig16-live#" + std::to_string(shards.size()), p.config});
  }
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
  std::cerr << scenario::failure_summary(shards, calibrated)
            << scenario::failure_summary(live_shards, live);

  std::vector<bench::GateRun> runs;
  stats::Table table({"rate (Mpps)", "driver", "CPU (%)", "calib wall (s)", "live wall (s)",
                      "live sim-pkt/s", "slowdown"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    runs.push_back({shards[i].scenario, "calibrated", &calibrated[i]});
    runs.push_back({shards[i].scenario, "live", &live[i]});
    const double pkt_per_s = static_cast<double>(live[i].counters.processed) /
                             live[i].wall_seconds;
    table.add_row({bench::num(shards[i].config.workload.rate_mpps, 2),
                   bench::figures::driver_name(shards[i].config.driver),
                   bench::num(live[i].result.cpu_percent, 1),
                   bench::num(calibrated[i].wall_seconds, 3),
                   bench::num(live[i].wall_seconds, 3), bench::num(pkt_per_s, 0),
                   bench::num(live[i].wall_seconds / calibrated[i].wall_seconds, 2)});
  }
  table.print();
  const bool identical = bench::identity_gate(runs) == 0 &&
                         scenario::failed_count(calibrated) + scenario::failed_count(live) == 0;
  std::uint64_t live_work = 0;
  for (const auto& wkr : workers) live_work += wkr->processed();
  std::cout << "\nlive ESP round trips executed: " << live_work << "\n";
  if (identical) {
    std::cout << "simulated results identical to calibrated mode (fingerprints match)\n";
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  std::vector<const Figure*> chosen;
  for (const Figure& f : bench::paper_figures()) {
    if (args.list) std::cout << f.name << "\n";
    if (args.only.empty() || std::count(args.only.begin(), args.only.end(), f.name) > 0) {
      chosen.push_back(&f);
    }
  }
  if (args.list) return 0;
  const auto find = [&](const std::string& name) {
    return std::find_if(chosen.begin(), chosen.end(),
                        [&](const Figure* f) { return name == f->name; });
  };
  for (const auto& name : args.only) {
    if (find(name) == chosen.end()) {
      std::cerr << "unknown figure '" << name << "' in --only (see --list)\n";
      return 2;
    }
  }
  // --crypto=live: fig16's tables are the live run's, after the sweep.
  const Figure* live_fig16 = nullptr;
  if (args.crypto == bench::CryptoMode::kLive) {
    const auto it = find("fig16");
    if (it == chosen.end()) {
      std::cerr << "--crypto=live applies to fig16, which --only does not select\n";
      return 2;
    }
    live_fig16 = *it;
    chosen.erase(it);
  }

  // Expand figure-major, then grid order: the print order.
  std::vector<Block> blocks;
  std::vector<Shard> shards;
  for (const Figure* f : chosen) {
    Block block{f, f->grid(args.fast), shards.size()};
    for (std::size_t i = 0; i < block.points.size(); ++i) {
      Shard s{std::string(f->name) + "#" + std::to_string(i), block.points[i].config};
      if (args.series_us > 0.0) s.config.series_interval = sim::from_micros(args.series_us);
      shards.push_back(std::move(s));
    }
    blocks.push_back(std::move(block));
  }

  int status = bench::run_sweep(
      shards, args, [&](const std::vector<ShardResult>& results, double elapsed) {
        double wall = 0.0;
        for (const ShardResult& r : results) wall += r.wall_seconds;
        for (const Block& b : blocks) {
          bench::header(b.fig->title, b.fig->expectation);
          print_tables(*b.fig, b.points, &results[b.first]);
          std::cout << "\n";
        }
        if (shards.empty()) return;
        std::cout << "total simulation wall time: " << bench::num(wall, 2)
                  << " s (CPU-seconds across shards)\n"
                  << "elapsed: " << bench::num(elapsed, 2) << " s on " << args.jobs
                  << " job(s)\n";
      });
  if (live_fig16 != nullptr) {
    if (!blocks.empty()) std::cout << "\n";
    if (run_live_crypto(*live_fig16, args) != 0) status = 1;
  }
  return status;
}
