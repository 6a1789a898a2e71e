// The port's lazy grouped ingress (tgen::attach) against the eager feeder
// it replaced (eager_feeder.hpp): every observable must be bit-identical.
//
// Each case runs the same stream both ways and compares a per-packet
// digest plus the testbed's full telemetry fingerprint. Where the driver
// has a per-packet work hook (Metronome, static polling) the digest folds
// in each packet's arrival, flow, RSS queue and the instant the driver
// worked on it (its pop instant plus the burst's service time); the rigs
// built by hand (XDP, frequency scaling) fold in the Tx instant from the
// port's transmit hook instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/experiment.hpp"
#include "dpdk/freq_scaling.hpp"
#include "dpdk/static_polling.hpp"
#include "dpdk/xdp_model.hpp"
#include "eager_feeder.hpp"
#include "nic/port.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "stats/metric_set.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"

namespace metro {
namespace {

using sim::Time;

enum class Feeder { kLazy, kEager };

void attach_with(Feeder f, sim::Simulation& sim, nic::Port& port, tgen::Generator& gen) {
  if (f == Feeder::kLazy) {
    tgen::attach(sim, port, gen);
  } else {
    testing::attach_eager(sim, port, gen);
  }
}

/// Order-sensitive digest of a stream of 64-bit words (FNV-1a over words).
struct Digest {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t count = 0;
  void add(std::uint64_t v) {
    hash ^= v;
    hash *= 0x100000001b3ull;
  }
  void packet(const nic::PacketDesc& p, const nic::RssReta& reta, Time at) {
    add(static_cast<std::uint64_t>(p.arrival));
    add(p.flow_id);
    add(reta.queue_for(p.rss_hash));
    add(static_cast<std::uint64_t>(at));
    ++count;
  }
};

/// The drivers' per-packet work hook: digests each packet as it is worked.
struct WorkProbe {
  const sim::Simulation* sim = nullptr;
  const nic::RssReta* reta = nullptr;
  Digest digest;
  void operator()(const nic::PacketDesc& p) { digest.packet(p, *reta, sim->now()); }
};

/// The port's transmit hook: digests each packet at its Tx instant.
struct TxProbe {
  const nic::RssReta* reta = nullptr;
  Digest digest;
  void operator()(std::span<const nic::PacketDesc> pkts, Time at) {
    for (const nic::PacketDesc& p : pkts) digest.packet(p, *reta, at);
  }
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
};

void expect_same(const Outcome& lazy, const Outcome& eager) {
  EXPECT_EQ(lazy.digest, eager.digest) << "per-packet digest";
  EXPECT_EQ(lazy.packets, eager.packets);
  EXPECT_EQ(lazy.fingerprint, eager.fingerprint) << "telemetry fingerprint";
  EXPECT_EQ(lazy.rx, eager.rx);
  EXPECT_EQ(lazy.dropped, eager.dropped);
}

tgen::StreamConfig stream_of(const apps::WorkloadConfig& w, Time duration) {
  tgen::StreamConfig sc;
  sc.rate_pps = w.rate_mpps * 1e6;
  sc.poisson = w.poisson;
  sc.seed = w.seed;
  sc.duration = duration;
  return sc;
}

/// A full testbed whose stream is attached from outside (the testbed's own
/// feeder off), through `feeder`, ahead of the drivers.
Outcome run_testbed(apps::ExperimentConfig cfg, Feeder feeder) {
  const apps::WorkloadConfig w = cfg.workload;
  cfg.workload.rate_mpps = 0.0;
  const nic::RssReta reta(cfg.n_queues);
  WorkProbe probe;
  probe.reta = &reta;
  cfg.met.packet_work = nic::PacketWork(probe);
  cfg.polling.packet_work = nic::PacketWork(probe);
  apps::Testbed bed(cfg);
  probe.sim = &bed.sim();

  tgen::FlowSet flows(w.n_flows, w.seed);
  tgen::StreamGenerator gen(stream_of(w, cfg.warmup + cfg.measure + sim::kMillisecond), flows,
                            tgen::FlowPicker(
                                static_cast<std::uint32_t>(w.n_flows)));
  attach_with(feeder, bed.sim(), bed.port(), gen);
  bed.start();
  bed.run_until(cfg.warmup);
  bed.begin_measurement();
  bed.run_until(cfg.warmup + cfg.measure);
  bed.finish_measurement();

  Outcome o;
  o.digest = probe.digest.hash;
  o.packets = probe.digest.count;
  o.fingerprint = bed.telemetry().fingerprint();
  o.rx = bed.port().total_rx();
  o.dropped = bed.port().total_dropped();
  return o;
}

apps::ExperimentConfig small_config(apps::DriverKind driver) {
  apps::ExperimentConfig cfg;
  cfg.driver = driver;
  cfg.warmup = 2 * sim::kMillisecond;
  cfg.measure = 8 * sim::kMillisecond;
  return cfg;
}

void expect_testbed_identity(const apps::ExperimentConfig& cfg, bool expect_work_digest) {
  const Outcome lazy = run_testbed(cfg, Feeder::kLazy);
  const Outcome eager = run_testbed(cfg, Feeder::kEager);
  expect_same(lazy, eager);
  EXPECT_GT(lazy.rx, 10000u) << "the stream did real work";
  if (expect_work_digest) {
    EXPECT_GT(lazy.packets, 10000u) << "the driver worked every packet";
  }
}

// Metronome on the XL710 at an offered load above the device cap: cap
// drops, ring drops, and Poisson ties (equal-nanosecond arrivals, hence
// groups that close at the same instant).
TEST(IngressIdentityTest, MetronomeOneQueueXl710Cap) {
  auto cfg = small_config(apps::DriverKind::kMetronome);
  cfg.xl710 = true;
  cfg.workload.rate_mpps = 38.0;
  cfg.workload.poisson = true;
  expect_testbed_identity(cfg, true);
}

TEST(IngressIdentityTest, MetronomeTwoQueuesXl710Cap) {
  auto cfg = small_config(apps::DriverKind::kMetronome);
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.met.n_threads = 3;
  cfg.workload.rate_mpps = 38.0;
  expect_testbed_identity(cfg, true);
}

TEST(IngressIdentityTest, MetronomeLowLoad) {
  auto cfg = small_config(apps::DriverKind::kMetronome);
  cfg.workload.rate_mpps = 0.744;
  cfg.measure = 30 * sim::kMillisecond;
  expect_testbed_identity(cfg, true);
}

TEST(IngressIdentityTest, StaticPollingOneQueueWithFerret) {
  auto cfg = small_config(apps::DriverKind::kStaticPolling);
  cfg.n_cores = 1;
  cfg.competitor.n_workers = 1;
  cfg.workload.rate_mpps = 5.0;
  cfg.workload.poisson = true;
  expect_testbed_identity(cfg, true);
}

TEST(IngressIdentityTest, StaticPollingFourQueuesWithFerret) {
  auto cfg = small_config(apps::DriverKind::kStaticPolling);
  cfg.xl710 = true;
  cfg.n_queues = 4;
  cfg.n_cores = 4;
  cfg.competitor.n_workers = 2;
  cfg.workload.rate_mpps = 20.0;
  cfg.workload.poisson = true;
  expect_testbed_identity(cfg, true);
}

TEST(IngressIdentityTest, XdpTestbed) {
  auto cfg = small_config(apps::DriverKind::kXdp);
  cfg.n_queues = 2;
  cfg.n_cores = 2;
  cfg.workload.rate_mpps = 3.0;
  cfg.workload.poisson = true;
  expect_testbed_identity(cfg, false);
}

TEST(IngressIdentityTest, FaultPlaneOn) {
  auto cfg = small_config(apps::DriverKind::kMetronome);
  cfg.workload.rate_mpps = 10.0;
  cfg.workload.poisson = true;
  cfg.workload.fault.drop_prob = 0.02;
  cfg.workload.fault.dup_prob = 0.01;
  cfg.workload.fault.reorder_prob = 0.02;
  cfg.workload.fault.corrupt_prob = 0.02;
  cfg.workload.fault.link_down_every = 3 * sim::kMillisecond;
  cfg.workload.fault.link_down_for = 200 * sim::kMicrosecond;
  cfg.workload.fault.stall_every = 2 * sim::kMillisecond;
  cfg.workload.fault.stall_for = 100 * sim::kMicrosecond;
  expect_testbed_identity(cfg, true);
}

/// Per-window series fingerprints of a Metronome testbed sampling every
/// `interval`, fed 1 Mpps CBR: groups of three arrivals whose instants are
/// 2 us + 3k us, so the window opens (at 2 ms) and its ticks land on group
/// instants. A tick scheduled before the tied group's predecessor arrived
/// samples ahead of the group; one scheduled after it samples behind.
std::vector<std::uint64_t> series_windows(Time interval, Feeder feeder) {
  auto cfg = small_config(apps::DriverKind::kMetronome);
  cfg.workload.rate_mpps = 1.0;
  cfg.measure = 600 * sim::kMicrosecond;
  cfg.series_interval = interval;
  const apps::WorkloadConfig w = cfg.workload;
  cfg.workload.rate_mpps = 0.0;
  apps::Testbed bed(cfg);
  tgen::FlowSet flows(w.n_flows, w.seed);
  tgen::StreamGenerator gen(stream_of(w, cfg.warmup + cfg.measure + sim::kMillisecond), flows,
                            tgen::FlowPicker(
                                static_cast<std::uint32_t>(w.n_flows)));
  attach_with(feeder, bed.sim(), bed.port(), gen);
  bed.start();
  bed.run_until(cfg.warmup);
  bed.begin_measurement();
  bed.run_until(cfg.warmup + cfg.measure);
  bed.finish_measurement();
  std::vector<std::uint64_t> fps;
  for (std::size_t i = 0; i < bed.series()->size(); ++i) {
    fps.push_back(bed.series()->window(i).fingerprint);
  }
  return fps;
}

TEST(IngressIdentityTest, SeriesTicksTiedWithGroups) {
  for (const Time interval : {1500, 6000}) {
    const auto lazy = series_windows(interval, Feeder::kLazy);
    EXPECT_EQ(lazy, series_windows(interval, Feeder::kEager)) << "interval " << interval;
    EXPECT_GT(lazy.size(), 90u);
  }
}

/// A hand-built one-core rig for the drivers the digest reads at Tx: the
/// Tx instant of every packet, plus the port counters.
struct Rig {
  sim::Simulation sim{7};
  nic::RssReta reta;
  TxProbe tx;
  std::unique_ptr<sim::Core> core;
  nic::Port port;
  tgen::FlowSet flows{64, 3};
  std::unique_ptr<tgen::StreamGenerator> gen;

  Rig(nic::PortConfig pc, double rate_mpps, Time duration)
      : reta(pc.n_rx_queues),
        tx{&reta, {}},
        core(std::make_unique<sim::Core>(sim, 0)),
        port(sim, pc, nic::TxCallback(tx)) {
    tgen::StreamConfig sc;
    sc.rate_pps = rate_mpps * 1e6;
    sc.poisson = true;
    sc.duration = duration;
    gen = std::make_unique<tgen::StreamGenerator>(sc, flows,
                                                  tgen::FlowPicker(64));
  }

  Outcome outcome() const {
    Outcome o;
    o.digest = tx.digest.hash;
    o.packets = tx.digest.count;
    o.rx = port.total_rx();
    o.dropped = port.total_dropped();
    return o;
  }
};

Outcome run_xdp(Feeder feeder) {
  Rig rig(nic::x520_config(1), 2.0, 10 * sim::kMillisecond);
  dpdk::XdpStats stats;
  dpdk::spawn_xdp_queue(rig.sim, rig.port, 0, *rig.core, dpdk::XdpConfig{}, stats);
  attach_with(feeder, rig.sim, rig.port, *rig.gen);
  rig.sim.run_until(12 * sim::kMillisecond);
  Outcome o = rig.outcome();
  o.fingerprint = stats.packets_processed ^ (stats.interrupts << 32) ^ stats.napi_polls;
  return o;
}

TEST(IngressIdentityTest, XdpTxDigest) {
  const Outcome lazy = run_xdp(Feeder::kLazy);
  const Outcome eager = run_xdp(Feeder::kEager);
  expect_same(lazy, eager);
  EXPECT_GT(lazy.packets, 10000u);
}

Outcome run_freq_scaling(Feeder feeder) {
  Rig rig(nic::x520_config(1), 0.5, 10 * sim::kMillisecond);
  dpdk::FreqScalingStats stats;
  dpdk::spawn_freq_scaling_lcore(rig.sim, rig.port, 0, *rig.core, dpdk::FreqScalingConfig{},
                                 stats);
  attach_with(feeder, rig.sim, rig.port, *rig.gen);
  rig.sim.run_until(12 * sim::kMillisecond);
  Outcome o = rig.outcome();
  o.fingerprint = stats.packets_processed ^ (stats.freq_steps_down << 24) ^
                  (stats.freq_jumps_up << 48) ^ static_cast<std::uint64_t>(rig.core->busy_time());
  return o;
}

TEST(IngressIdentityTest, FreqScalingTxDigest) {
  const Outcome lazy = run_freq_scaling(Feeder::kLazy);
  const Outcome eager = run_freq_scaling(Feeder::kEager);
  expect_same(lazy, eager);
  EXPECT_GT(lazy.packets, 4000u);
}

// --- kernel bookkeeping ---------------------------------------------------

/// A port fed by a 2 Mpps CBR stream for `duration`, nobody reading it.
struct Unread {
  sim::Simulation sim{1};
  nic::Port port{sim, nic::x520_config(1)};
  tgen::FlowSet flows{16, 1};
  tgen::StreamGenerator gen;

  Unread(Feeder feeder, Time duration, double rate_pps = 2e6)
      : gen(
            [&] {
              tgen::StreamConfig sc;
              sc.rate_pps = rate_pps;
              sc.duration = duration;
              return sc;
            }(),
            flows, tgen::FlowPicker(16)) {
    attach_with(feeder, sim, port, gen);
  }
};

TEST(IngressKernelTest, RunIdleAndPendingWithNoReader) {
  for (const Feeder f : {Feeder::kLazy, Feeder::kEager}) {
    Unread u(f, sim::kMillisecond);
    EXPECT_FALSE(u.sim.idle()) << "the undelivered stream is pending";
    EXPECT_EQ(u.sim.pending_events(), 1u);
  }
  Unread lazy(Feeder::kLazy, sim::kMillisecond);
  Unread eager(Feeder::kEager, sim::kMillisecond);
  eager.sim.run_until(1);  // the eager feeder's spawn has run: one sleep left
  lazy.sim.run_until(1);
  EXPECT_EQ(lazy.sim.pending_events(), eager.sim.pending_events());
  EXPECT_EQ(lazy.sim.run(), eager.sim.run()) << "run() ends at the last group's instant";
  EXPECT_TRUE(lazy.sim.idle());
  EXPECT_EQ(lazy.sim.pending_events(), 0u);
  // Nobody drained the 512-descriptor ring: the rest tail-dropped.
  EXPECT_EQ(lazy.port.rx_queue(0).total_received(), 512u);
  EXPECT_EQ(lazy.port.total_rx(), eager.port.total_rx());
  EXPECT_EQ(lazy.port.total_dropped(), eager.port.total_dropped());
  EXPECT_EQ(lazy.port.total_rx(), 2000u);
}

TEST(IngressKernelTest, CountersAreCurrentAfterABareRunUntil) {
  // The fields a MetricSet reads directly (no ring read in between) must
  // match the eager feeder's at every slice end.
  Unread lazy(Feeder::kLazy, sim::kMillisecond, 0.3e6);
  Unread eager(Feeder::kEager, sim::kMillisecond, 0.3e6);
  stats::MetricSet lazy_set;
  stats::MetricSet eager_set;
  lazy.port.register_metrics(lazy_set, "port");
  eager.port.register_metrics(eager_set, "port");
  for (Time t = 0; t <= 1100 * sim::kMicrosecond; t += 7 * sim::kMicrosecond + 333) {
    lazy.sim.run_until(t);
    eager.sim.run_until(t);
    ASSERT_EQ(lazy_set.fingerprint(), eager_set.fingerprint()) << "at " << t << " ns";
    ASSERT_EQ(lazy_set.snapshot().counter("port.rx"), eager_set.snapshot().counter("port.rx"));
  }
  // 1e9 / 0.3e6 truncates to a 3333 ns gap: 301 arrivals in [0, 1 ms].
  EXPECT_EQ(lazy_set.snapshot().counter("port.rx"), 301u);
}

Outcome run_parked_before_attach(Feeder feeder) {
  Rig rig(nic::x520_config(1), 1.0, 5 * sim::kMillisecond);
  dpdk::DriverStats stats;
  dpdk::spawn_static_lcore(rig.sim, rig.port, 0, *rig.core, dpdk::StaticPollingConfig{}, stats);
  rig.sim.run_until(sim::kMillisecond);
  EXPECT_TRUE(rig.port.has_parked_reader()) << "the poller parked on the empty ring";
  // The stream starts in the future, so no arrival predates the attach.
  tgen::StreamConfig sc;
  sc.rate_pps = 1e6;
  sc.poisson = true;
  sc.start = 2 * sim::kMillisecond;
  sc.duration = 3 * sim::kMillisecond;
  rig.gen = std::make_unique<tgen::StreamGenerator>(sc, rig.flows,
                                                    tgen::FlowPicker(64));
  attach_with(feeder, rig.sim, rig.port, *rig.gen);
  rig.sim.run_until(6 * sim::kMillisecond);
  Outcome o = rig.outcome();
  o.fingerprint = stats.polls ^ (stats.empty_polls << 32);
  return o;
}

TEST(IngressKernelTest, ReaderParkedBeforeAttachWakesOnTheFirstGroup) {
  const Outcome lazy = run_parked_before_attach(Feeder::kLazy);
  const Outcome eager = run_parked_before_attach(Feeder::kEager);
  expect_same(lazy, eager);
  EXPECT_GT(lazy.packets, 2000u) << "the parked poller forwarded the stream";
}

TEST(IngressKernelTest, GeneratorExhaustionLeavesNothingPending) {
  Time end[2];
  std::uint64_t rx[2];
  for (const Feeder f : {Feeder::kLazy, Feeder::kEager}) {
    Rig rig(nic::x520_config(1), 1.0, 2 * sim::kMillisecond);
    dpdk::XdpStats stats;
    dpdk::spawn_xdp_queue(rig.sim, rig.port, 0, *rig.core, dpdk::XdpConfig{}, stats);
    attach_with(f, rig.sim, rig.port, *rig.gen);
    // XDP parks without a timeout, so once the stream is exhausted and
    // drained the simulation runs dry.
    end[f == Feeder::kLazy ? 0 : 1] = rig.sim.run();
    EXPECT_TRUE(rig.sim.idle());
    EXPECT_EQ(rig.sim.pending_events(), 0u);
    EXPECT_EQ(stats.packets_processed, rig.port.total_rx());
    rx[f == Feeder::kLazy ? 0 : 1] = rig.port.total_rx();
  }
  EXPECT_EQ(end[0], end[1]);
  EXPECT_EQ(rx[0], rx[1]);
  EXPECT_GT(rx[0], 1500u);
}

TEST(IngressKernelTest, ZeroRateStreamIsInert) {
  Unread u(Feeder::kLazy, sim::kMillisecond, 0.0);
  EXPECT_TRUE(u.sim.idle());
  EXPECT_EQ(u.sim.pending_events(), 0u);
  EXPECT_EQ(u.sim.run(), 0);
  EXPECT_EQ(u.sim.run_until(5 * sim::kMillisecond), 5 * sim::kMillisecond);
  EXPECT_EQ(u.port.total_rx(), 0u);
  EXPECT_TRUE(u.port.rx_queue(0).empty());
}

TEST(IngressKernelTest, APortTakesOneStream) {
  Unread u(Feeder::kLazy, sim::kMillisecond);
  EXPECT_THROW(tgen::attach(u.sim, u.port, u.gen), std::logic_error);
}

}  // namespace
}  // namespace metro
