// The paper's evaluation grid as data: one Figure per regenerated figure
// or table of §V (plus Appendix II, the design ablations and §II's
// related-work power comparison). bench_paper
// (bench/paper.cpp) owns the rest: parsing, sharding, the SweepRunner,
// printing and the identity gate. Header-only so the tests can check the
// table's shape without running a simulation.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "tgen/trace.hpp"

namespace metro::bench {

using Cells = std::vector<std::string>;

/// One configuration of a figure's grid.
struct Point {
  apps::ExperimentConfig config;
  /// The table this point's rows belong to. A change between consecutive
  /// points closes the table in progress and opens a new one, captioned
  /// by Figure::caption. Empty for single-table figures.
  std::string section = {};
  /// Row name the configuration alone does not determine (the ablation
  /// strategies); empty elsewhere.
  std::string label = {};
};

struct Figure {
  const char* name;         ///< --only / --list key
  const char* title;
  const char* expectation;  ///< the paper's qualitative claim
  std::vector<std::string> columns;
  std::vector<Point> (*grid)(bool fast);
  /// The table rows one run contributes, each columns.size() cells long:
  /// one for most figures, one per Rx queue for Table III, none for the
  /// Fig. 13 static reference runs (they print as captions instead).
  std::vector<Cells> (*rows)(const Point&, const apps::ExperimentResult&);
  /// Line printed above the table a point opens; nullptr prints the
  /// point's section name (nothing when it is empty).
  std::string (*caption)(const Point&, const apps::ExperimentResult&) = nullptr;
  /// Line printed under the table a point closes; nullptr or "" = none.
  std::string (*note)(const Point&, const apps::ExperimentResult&) = nullptr;
};

namespace figures {

inline apps::ExperimentConfig config(bool fast, double mpps,
                                     apps::DriverKind driver = apps::DriverKind::kMetronome) {
  const Windows w = windows(fast);
  apps::ExperimentConfig cfg;
  cfg.driver = driver;
  cfg.workload.rate_mpps = mpps;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  return cfg;
}

/// The XL710 multiqueue testbed: `queues` Rx queues, M = `m` threads on
/// `m` cores, V-bar = 15 us, 4096 flows.
inline apps::ExperimentConfig xl710(bool fast, double mpps, int queues, int m,
                                    apps::DriverKind driver = apps::DriverKind::kMetronome) {
  auto cfg = config(fast, mpps, driver);
  cfg.xl710 = true;
  cfg.n_queues = queues;
  cfg.n_cores = m;
  cfg.met.n_threads = m;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.n_flows = 4096;
  return cfg;
}

/// 64 B line rate on the X520 at `gbps` out of 10, and back.
inline double mpps_at(double gbps) { return 14.88 * gbps / 10.0; }
inline double gbps_of(const apps::ExperimentConfig& cfg) {
  return cfg.workload.rate_mpps * 10.0 / 14.88;
}

inline const char* driver_name(apps::DriverKind kind) {
  switch (kind) {
    case apps::DriverKind::kStaticPolling: return "static DPDK";
    case apps::DriverKind::kXdp: return "XDP";
    case apps::DriverKind::kFreqScaling: return "freq scaling (l3fwd-power)";
    case apps::DriverKind::kMetronome: break;
  }
  return "Metronome";
}

inline const char* governor_name(sim::Governor g) {
  return g == sim::Governor::kOndemand ? "ondemand" : "performance";
}

inline std::vector<Cells> one(Cells cells) { return {std::move(cells)}; }

/// Figs. 7 and 8: M = 2..6 at each offered rate.
inline std::vector<Point> m_sweep(bool fast, std::vector<double> rates_mpps) {
  std::vector<Point> g;
  for (const double mpps : rates_mpps) {
    for (const int m : {2, 3, 4, 5, 6}) {
      auto& cfg = g.emplace_back(Point{config(fast, mpps)}).config;
      cfg.met.n_threads = m;
      cfg.n_cores = std::max(3, m);
    }
  }
  return g;
}

inline constexpr const char* kIpsecTitle = "IPsec Security Gateway (AES-CBC 128 ESP tunnel)";
inline constexpr const char* kAblationTs = "[2] adaptive (eq. 13) vs fixed TS";

}  // namespace figures

/// Every figure bench_paper regenerates, in print order.
inline const std::vector<Figure>& paper_figures() {
  using apps::DriverKind;
  using apps::ExperimentResult;
  using namespace figures;
  static const std::vector<Figure> table = {
      {"fig5", "Figure 5 - latency vs CPU trade-off across target vacation times",
       "shorter V-bar -> lower latency but proportionally higher CPU; "
       "the trade-off holds at both 10 and 5 Gbps",
       {"rate (Gbps)", "V-bar (us)", "mean latency (us)", "p95 (us)", "CPU (%)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double gbps : {10.0, 5.0}) {
           for (const double target : {2.0, 5.0, 7.0, 10.0}) {
             g.emplace_back(Point{config(fast, mpps_at(gbps))})
                 .config.met.target_vacation = sim::from_micros(target);
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(gbps_of(p.config), 0),
                     num(sim::to_micros(p.config.met.target_vacation), 0),
                     num(r.latency_us.mean), num(r.latency_us.whisker_hi),
                     num(r.cpu_percent, 1)});
       }},
      {"fig6", "Figure 6 - busy tries and CPU vs TL",
       "longer TL -> fewer wasted wake-ups and slightly lower CPU; most of "
       "the benefit realised by TL = 500 us",
       {"TL (us)", "busy tries (%)", "CPU (%)", "backup success P (eq. 7)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double tl : {100.0, 300.0, 500.0, 700.0}) {
           g.emplace_back(Point{config(fast, 14.88)}).config.met.long_timeout =
               sim::from_micros(tl);
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         const double tl = sim::to_micros(p.config.met.long_timeout);
         return one({num(tl, 0), num(r.busy_tries_pct, 1), num(r.cpu_percent, 1),
                     num(core::model::backup_success_prob(r.ts_us, tl, p.config.met.n_threads),
                         4)});
       }},
      {"fig7", "Figure 7 - busy tries and CPU vs M",
       "busy tries grow roughly linearly with M, CPU creeps up slightly: "
       "extra threads beyond ~3 buy robustness, not throughput",
       {"M (# threads)", "busy tries (%)", "CPU (%)", "wakeups/s"},
       [](bool fast) { return m_sweep(fast, {14.88}); },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(p.config.met.n_threads, 0), num(r.busy_tries_pct, 1),
                     num(r.cpu_percent, 1),
                     num(static_cast<double>(r.wakeups) / sim::to_seconds(p.config.measure), 0)});
       }},
      {"fig8", "Figure 8 - latency vs M",
       "more threads -> longer primary sleeps (eq. 13) -> higher latency at "
       "10 Gbps, and mostly higher variance at 1 Gbps",
       {"rate (Gbps)", "M", "mean (us)", "stddev (us)", "median [p25-p75] (p5-p95)"},
       [](bool fast) { return m_sweep(fast, {mpps_at(10.0), mpps_at(1.0)}); },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(gbps_of(p.config), 0), num(p.config.met.n_threads, 0),
                     num(r.latency_us.mean), num(r.latency_us.stddev),
                     boxplot_str(r.latency_us)});
       }},
      // XDP core counts follow the paper: 4 cores at 10 and 5 Gbps (the
      // minimum not to lose packets on ixgbe), 1 core at 1 and 0.5 Gbps;
      // RSS spreads the same total rate over its queues.
      {"fig10", "Figure 10 - static DPDK vs Metronome vs XDP (l3fwd)",
       "DPDK: lowest latency, flat 100% CPU. Metronome: ~2x DPDK latency, "
       "40%+ CPU saving even at line rate. XDP: highest CPU under load "
       "(~200%+ with 4 cores), zero CPU at idle",
       {"rate (Gbps)", "driver", "cores", "median lat (us)", "lat [p25-p75] (p5-p95)",
        "CPU (%)", "loss (permille)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double gbps : {10.0, 5.0, 1.0, 0.5}) {
           const int xdp = gbps >= 5.0 ? 4 : 1;
           for (const auto& [kind, cores] :
                {std::pair{DriverKind::kStaticPolling, 1}, std::pair{DriverKind::kMetronome, 3},
                 std::pair{DriverKind::kXdp, xdp}}) {
             auto& cfg = g.emplace_back(Point{config(fast, mpps_at(gbps), kind)}).config;
             cfg.n_queues = kind == DriverKind::kXdp ? xdp : 1;
             cfg.n_cores = cores;
             cfg.workload.n_flows = 1024;
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(gbps_of(p.config), 1), driver_name(p.config.driver),
                     num(p.config.n_cores, 0), num(r.latency_us.median),
                     boxplot_str(r.latency_us), num(r.cpu_percent, 1),
                     num(r.loss_permille, 3)});
       }},
      {"fig11", "Figure 11 - power vs CPU under both governors",
       "Metronome beats static DPDK on power everywhere except ~line rate "
       "under `performance`; largest gain (~27%) at zero traffic with "
       "`ondemand`; Metronome's CPU% is higher under ondemand (slower cores)",
       {"governor", "rate (Gbps)", "driver", "CPU (%)", "power (W)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const auto governor : {sim::Governor::kOndemand, sim::Governor::kPerformance}) {
           for (const double gbps : {10.0, 1.0, 0.0}) {
             for (const auto driver : {DriverKind::kStaticPolling, DriverKind::kMetronome}) {
               auto& cfg = g.emplace_back(Point{config(fast, mpps_at(gbps), driver)}).config;
               cfg.governor = governor;
               cfg.n_cores = 3;
             }
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({governor_name(p.config.governor), num(gbps_of(p.config), 0),
                     driver_name(p.config.driver), num(r.cpu_percent, 1),
                     num(r.package_watts, 2)});
       }},
      // One table per (governor, queue count), captioned by its static
      // DPDK reference run (one polling core per queue), then M = queues..8.
      {"fig13_14", "Figures 13+14 - multiqueue CPU/power and busy-tries/rho",
       "with 2 queues per-queue load is high (rho ~0.7): gains are mostly "
       "CPU. More queues -> lower per-queue rho, fewer busy tries, larger "
       "CPU and power gains. ondemand trades extra CPU time for power",
       {"M (cores)", "CPU (%)", "power (W)", "busy tries (%)", "rho", "throughput (Mpps)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const auto governor : {sim::Governor::kPerformance, sim::Governor::kOndemand}) {
           for (const int queues : {2, 3, 4}) {
             const std::string section =
                 std::string(governor_name(governor)) + "/" + std::to_string(queues) + "q";
             auto& ref = g.emplace_back(Point{config(fast, 37.0, DriverKind::kStaticPolling),
                                              section})
                             .config;
             ref.xl710 = true;
             ref.n_queues = ref.n_cores = queues;
             ref.governor = governor;
             ref.workload.n_flows = 4096;
             for (int m = queues; m <= 8; ++m) {
               g.emplace_back(Point{xl710(fast, 37.0, queues, m), section})
                   .config.governor = governor;
             }
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) -> std::vector<Cells> {
         if (p.config.driver == DriverKind::kStaticPolling) return {};
         return one({num(p.config.n_cores, 0), num(r.cpu_percent, 1), num(r.package_watts, 2),
                     num(r.busy_tries_pct, 1), num(r.rho, 3), num(r.throughput_mpps, 1)});
       },
       [](const Point& p, const ExperimentResult& r) {
         return std::string(governor_name(p.config.governor)) + ", " +
                std::to_string(p.config.n_queues) + " queues — static DPDK reference: CPU " +
                num(r.cpu_percent, 0) + "%, power " + num(r.package_watts, 1) +
                " W, throughput " + num(r.throughput_mpps, 1) + " Mpps";
       }},
      {"fig15", "Figure 15 - multiqueue scaling to the actual traffic",
       "Metronome saves >half of static DPDK's CPU at 37 Mpps line rate, "
       "more at lower rates, and ~2-3 W of package power throughout",
       {"rate (Mpps)", "driver", "CPU (%)", "power (W)", "throughput (Mpps)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double mpps : {37.0, 30.0, 20.0, 15.0, 10.0, 0.0}) {
           g.push_back({xl710(fast, mpps, 4, 5, DriverKind::kStaticPolling)});
           g.back().config.n_cores = 4;
           g.push_back({xl710(fast, mpps, 4, 5)});
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(p.config.workload.rate_mpps, 0), driver_name(p.config.driver),
                     num(r.cpu_percent, 1), num(r.package_watts, 2),
                     num(r.throughput_mpps, 1)});
       }},
      {"fig16", "Figure 16 - IPsec gateway and FloWatcher CPU usage",
       "IPsec: both reach the same 5.61 Mpps max (one Metronome thread never "
       "releases the lock there -> ~100% CPU); Metronome wins as rate drops. "
       "FloWatcher: ~50% CPU gain at line rate, ~5x at 0.5 Mpps",
       {"rate (Mpps)", "driver", "CPU (%)", "throughput (Mpps)"},
       [](bool fast) {
         const struct {
           const char* title;
           sim::Time per_packet_cost;
           std::vector<double> rates;
         } apps_under_test[] = {
             {kIpsecTitle, sim::calib::kIpsecPerPacketCost, {5.61, 3.0, 1.0, 0.5, 0.1}},
             {"FloWatcher-DPDK (run-to-completion flow monitor)",
              sim::calib::kFlowatcherPerPacketCost, {14.88, 10.0, 5.0, 1.0, 0.5}}};
         std::vector<Point> g;
         for (const auto& app : apps_under_test) {
           for (const double mpps : app.rates) {
             for (const auto driver : {DriverKind::kStaticPolling, DriverKind::kMetronome}) {
               auto& cfg = g.emplace_back(Point{config(fast, mpps, driver), app.title}).config;
               cfg.met.per_packet_cost = cfg.polling.per_packet_cost = app.per_packet_cost;
               cfg.n_cores = 3;
             }
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(p.config.workload.rate_mpps, 2), driver_name(p.config.driver),
                     num(r.cpu_percent, 1), num(r.throughput_mpps, 2)});
       }},
      {"table1", "Table I - vacation-period tuning at line rate",
       "measured V ~= 2x target (sleep overhead); V-bar = 10 us is the "
       "largest no-loss setting; loss grows monotonically beyond it",
       {"Target V (us)", "Measured V (us)", "Measured B (us)", "NV", "Loss (permille)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double target : {5.0, 10.0, 12.0, 15.0, 20.0}) {
           g.emplace_back(Point{config(fast, 14.88)}).config.met.target_vacation =
               sim::from_micros(target);
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({num(sim::to_micros(p.config.met.target_vacation), 0),
                     num(r.vacation_us.mean()), num(r.busy_us.mean()), num(r.nv.mean(), 1),
                     num(r.loss_permille, 4)});
       }},
      // 14.88 Mpps offered, alone and next to one continuous ferret per
      // driver core: equal CFS weights against the static poller, nice 19
      // against Metronome's threads (the paper's tuned setup).
      {"table2", "Table II - throughput (Mpps) alone vs with ferret",
       "static DPDK collapses (14.88 -> 7.34 in the paper); Metronome "
       "holds 14.88 in both cases",
       {"driver", "ferret", "throughput (Mpps)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const auto driver : {DriverKind::kStaticPolling, DriverKind::kMetronome}) {
           for (const bool with_ferret : {false, true}) {
             auto& cfg = g.emplace_back(Point{config(fast, 14.88, driver)}).config;
             cfg.n_cores = driver == DriverKind::kStaticPolling ? 1 : 3;
             if (with_ferret) {
               cfg.competitor.n_workers = cfg.n_cores;
               cfg.competitor.nice = driver == DriverKind::kStaticPolling ? 0 : 19;
             }
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({driver_name(p.config.driver),
                     p.config.competitor.n_workers > 0 ? "w/ ferret" : "alone",
                     num(r.throughput_mpps)});
       }},
      // 30% of packets belong to one UDP flow, the rest spread uniformly
      // over ~1000 random flows, at line rate; full mode measures 2 s.
      {"table3", "Table III - unbalanced traffic, 3 Rx queues",
       "the hot queue (heavy flow + its RSS share, ~53% of traffic) shows "
       "the highest rho and busy-try %, but less than half the lock tries "
       "of the cold queues: busy queues keep a single primary",
       {"queue", "busy tries (%)", "total tries", "rho", "traffic share (%)"},
       [](bool fast) {
         auto cfg = xl710(fast, 30.0, 3, 4);
         cfg.workload.n_flows = 1000;
         cfg.workload.heavy_share = 0.30;
         if (!fast) cfg.measure = 2 * sim::kSecond;
         return std::vector<Point>{{cfg}};
       },
       [](const Point&, const ExperimentResult& r) {
         double total_rho = 0.0;
         for (const auto& q : r.queues) total_rho += q.rho;
         std::vector<Cells> rows;
         for (std::size_t q = 0; q < r.queues.size(); ++q) {
           rows.push_back({std::string("#").append(std::to_string(q + 1)),
                           num(r.queues[q].busy_tries_pct, 2),
                           num(static_cast<double>(r.queues[q].total_tries), 0),
                           num(r.queues[q].rho, 4),
                           num(100.0 * r.queues[q].rho / total_rho, 1)});
         }
         return rows;
       },
       nullptr,
       [](const Point&, const ExperimentResult& r) {
         std::string note = "\n(loss: ";
         note += num(r.loss_permille, 3) + " permille, throughput: ";
         note += num(r.throughput_mpps, 1) + " Mpps)";
         return note;
       }},
      // The same packet rate with 64 B, 1518 B and IMIX packets: mu is a
      // packet rate, so the operating point holds while the bit rate
      // varies ~20x.
      {"appendix2", "Appendix II - size-independent retrieval rate",
       "same pps -> same rho/CPU/vacation regardless of packet size mix",
       {"size profile", "offered (Mpps)", "~Gbit/s", "rho", "CPU (%)", "mean V (us)",
        "loss (permille)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const std::uint16_t size : {64, 1518, 0}) {  // 0 = IMIX
           auto& wl = g.emplace_back(Point{config(fast, 7.44)}).config.workload;
           wl.wire_size = size;
           wl.imix = size == 0;
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         const auto& wl = p.config.workload;
         const double mean_size = wl.imix ? tgen::ImixSizes::mean_size() : wl.wire_size;
         return one({wl.imix ? "IMIX 7:4:1" : std::to_string(wl.wire_size) + " B",
                     num(wl.rate_mpps, 2), num(wl.rate_mpps * mean_size * 8.0 / 1000.0, 1),
                     num(r.rho, 3), num(r.cpu_percent, 1), num(r.vacation_us.mean(), 2),
                     num(r.loss_permille, 3)});
       }},
      // Not a paper figure: ablations that justify the design choices the
      // paper makes by argument (DESIGN.md §6).
      {"ablation", "Ablation - Metronome design choices",
       "each paper design choice wins on the axis it was chosen for",
       {"strategy", "CPU (%)", "busy tries (%)", "mean lat (us)", "loss (permille)"},
       [](bool fast) {
         std::vector<Point> g;
         const auto at = [](double mpps) { return " @" + num(mpps, 1) + " Mpps"; };
         // 1. Primary/backup timeout diversity (§IV-A), at high and low load.
         const std::string diversity = "[1] primary/backup vs equal timeouts";
         for (const double mpps : {14.88, 1.488}) {
           g.push_back({config(fast, mpps), diversity, "primary/backup" + at(mpps)});
           g.push_back({config(fast, mpps), diversity, "equal timeouts" + at(mpps)});
           g.back().config.met.primary_backup = false;
         }
         // 2. Adaptive TS vs a fixed TS tuned for line rate (eq. 13's
         //    high-load answer), across loads.
         for (const double mpps : {14.88, 1.488}) {
           g.push_back({config(fast, mpps), kAblationTs, "adaptive TS" + at(mpps)});
           auto& fixed =
               g.emplace_back(Point{config(fast, mpps), kAblationTs, "fixed TS=10us" + at(mpps)})
                   .config;
           fixed.met.adaptive = false;
           fixed.met.fixed_ts = 10 * sim::kMicrosecond;
         }
         // 3. Multi-queue next-queue selection (§IV-E).
         for (const std::string name :
              {"sticky primary + random backup", "fully random", "fully sticky"}) {
           auto& cfg = g.emplace_back(Point{xl710(fast, 30.0, 4, 5),
                                            "[3] next-queue selection (4 queues, 30 Mpps)", name})
                           .config;
           cfg.met.sticky_primary = name != "fully random";
           cfg.met.random_backup = name != "fully sticky";
         }
         // 4. Tx batch threshold at low rate (§V-C).
         for (const int batch : {32, 1}) {
           g.emplace_back(Point{config(fast, 0.744), "[4] Tx batch threshold",
                                batch == 32 ? "tx batch 32 @0.5Gbps" : "tx batch 1  @0.5Gbps"})
               .config.tx_batch = batch;
         }
         // 5. hr_sleep vs tuned and default nanosleep as the sleep service.
         g.push_back({config(fast, 14.88), "[5] sleep service", "hr_sleep"});
         for (const sim::Time slack : {sim::kMicrosecond, sim::calib::kDefaultTimerSlack}) {
           auto& sleep = g.emplace_back(Point{config(fast, 14.88), "[5] sleep service",
                                              slack == sim::kMicrosecond
                                                  ? "nanosleep (slack 1us)"
                                                  : "nanosleep (default 50us slack)"})
                             .config.met.sleep;
           sleep.kind = sim::SleepKind::kNanosleep;
           sleep.timer_slack = slack;
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         return one({p.label, num(r.cpu_percent, 1), num(r.busy_tries_pct, 1),
                     num(r.latency_us.mean, 1), num(r.loss_permille, 3)});
       },
       nullptr,
       [](const Point& p, const ExperimentResult&) {
         return p.section == kAblationTs ? std::string("(fixed TS wastes wake-ups at low load "
                                                       "where adaptive triples its sleep)")
                                         : std::string();
       }},
      // §II: DVFS is not CPU proportionality. Every strategy forwards the
      // same traffic on the X520; only the core count and governor differ.
      {"related_work", "Related work - DVFS vs CPU proportionality (§II argument)",
       "frequency scaling and the ondemand governor cut power but the "
       "polling core stays 100% busy; only Metronome frees CPU cycles",
       {"rate (Mpps)", "strategy", "CPU (%)", "power (W)", "throughput (Mpps)"},
       [](bool fast) {
         std::vector<Point> g;
         for (const double mpps : {14.88, 5.0, 1.0, 0.1, 0.0}) {
           for (const auto& [driver, governor] :
                {std::pair{DriverKind::kStaticPolling, sim::Governor::kPerformance},
                 std::pair{DriverKind::kStaticPolling, sim::Governor::kOndemand},
                 std::pair{DriverKind::kFreqScaling, sim::Governor::kUserspace},
                 std::pair{DriverKind::kMetronome, sim::Governor::kPerformance}}) {
             auto& cfg = g.emplace_back(Point{config(fast, mpps, driver)}).config;
             cfg.governor = governor;
             cfg.n_cores = driver == DriverKind::kMetronome ? 3 : 1;
           }
         }
         return g;
       },
       [](const Point& p, const ExperimentResult& r) {
         const std::string strategy =
             p.config.driver == DriverKind::kStaticPolling
                 ? std::string("static (") + governor_name(p.config.governor) + ")"
                 : driver_name(p.config.driver);
         return one({num(p.config.workload.rate_mpps, 2), strategy, num(r.cpu_percent, 1),
                     num(r.package_watts, 2), num(r.throughput_mpps, 2)});
       },
       nullptr,
       [](const Point&, const ExperimentResult&) {
         return std::string(
             "\nNote how every polling variant pins its core at 100% regardless of\n"
             "power; Metronome's CPU column is the only one that tracks the load.");
       }},
  };
  return table;
}

}  // namespace metro::bench
