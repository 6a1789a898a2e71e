// NIC model: Toeplitz RSS, rings, port dispatch, device caps.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "nic/port.hpp"
#include "nic/rings.hpp"
#include "nic/rss.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace metro::nic {
namespace {

using sim::Time;

// Microsoft RSS verification suite vectors (IPv4 with ports, default key).
TEST(ToeplitzTest, MicrosoftReferenceVectors) {
  // 66.9.149.187:2794 -> 161.142.100.80:1766  => 0x51ccc178
  EXPECT_EQ(rss_hash_ipv4(0x420995bbu, 0xa18e6450u, 2794, 1766), 0x51ccc178u);
  // 199.92.111.2:14230 -> 65.69.140.83:4739   => 0xc626b0ea
  EXPECT_EQ(rss_hash_ipv4(0xc75c6f02u, 0x41458c53u, 14230, 4739), 0xc626b0eau);
  // 24.19.198.95:12898 -> 12.22.207.184:38024 => 0x5c2b394a
  EXPECT_EQ(rss_hash_ipv4(0x1813c65fu, 0x0c16cfb8u, 12898, 38024), 0x5c2b394au);
}

TEST(ToeplitzTest, DeterministicAndSensitive) {
  const auto h1 = rss_hash_ipv4(0x01020304, 0x05060708, 100, 200);
  EXPECT_EQ(h1, rss_hash_ipv4(0x01020304, 0x05060708, 100, 200));
  EXPECT_NE(h1, rss_hash_ipv4(0x01020304, 0x05060708, 100, 201));
}

TEST(RetaTest, RoundRobinInitialization) {
  RssReta reta(4);
  int counts[4] = {0, 0, 0, 0};
  for (std::uint32_t h = 0; h < RssReta::kSize; ++h) counts[reta.queue_for(h)]++;
  for (int c : counts) EXPECT_EQ(c, static_cast<int>(RssReta::kSize) / 4);
}

TEST(RxRingTest, FifoOrder) {
  sim::Simulation sim;
  RxRing ring(sim, 8);
  for (int i = 0; i < 5; ++i) {
    PacketDesc p;
    p.flow_id = static_cast<std::uint32_t>(i);
    EXPECT_TRUE(ring.push(p));
  }
  PacketDesc out[8];
  const int n = ring.pop_burst(out, 8);
  ASSERT_EQ(n, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i].flow_id, static_cast<std::uint32_t>(i));
  EXPECT_TRUE(ring.empty());
}

TEST(RxRingTest, TailDropWhenFull) {
  sim::Simulation sim;
  RxRing ring(sim, 4);
  PacketDesc p;
  for (int i = 0; i < 6; ++i) ring.push(p);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_received(), 4u);
  EXPECT_EQ(ring.total_dropped(), 2u);
}

TEST(RxRingTest, BurstLimitRespected) {
  sim::Simulation sim;
  RxRing ring(sim, 64);
  PacketDesc p;
  for (int i = 0; i < 50; ++i) ring.push(p);
  PacketDesc out[32];
  EXPECT_EQ(ring.pop_burst(out, 32), 32);
  EXPECT_EQ(ring.pop_burst(out, 32), 18);
  EXPECT_EQ(ring.pop_burst(out, 32), 0);
}

TEST(RxRingTest, WrapAroundKeepsIntegrity) {
  sim::Simulation sim;
  RxRing ring(sim, 4);
  PacketDesc out[4];
  std::uint32_t next = 0, expect = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      PacketDesc p;
      p.flow_id = next++;
      ring.push(p);
    }
    const int n = ring.pop_burst(out, 3);
    for (int i = 0; i < n; ++i) ASSERT_EQ(out[i].flow_id, expect++);
  }
}

TEST(TxRingTest, BatchThresholdDefersFlush) {
  sim::Simulation sim;
  std::vector<Time> tx_times;
  // TxCallback is non-owning: the callable must be a named object that
  // outlives the ring (here, declared before it).
  auto record = [&](const PacketDesc&, Time t) { tx_times.push_back(t); };
  TxRing tx(sim, 4, record);
  PacketDesc p;
  for (int i = 0; i < 3; ++i) tx.send(p);
  EXPECT_TRUE(tx_times.empty());
  EXPECT_EQ(tx.pending(), 3u);
  tx.send(p);  // fourth fills the batch
  EXPECT_EQ(tx_times.size(), 4u);
  EXPECT_EQ(tx.pending(), 0u);
}

TEST(TxRingTest, BatchOfOneTransmitsImmediately) {
  sim::Simulation sim;
  int sent = 0;
  auto record = [&](const PacketDesc&, Time) { ++sent; };
  TxRing tx(sim, 1, record);
  PacketDesc p;
  tx.send(p);
  EXPECT_EQ(sent, 1);
}

TEST(TxRingTest, ExplicitFlushDrainsPending) {
  sim::Simulation sim;
  int sent = 0;
  auto record = [&](const PacketDesc&, Time) { ++sent; };
  TxRing tx(sim, 32, record);
  PacketDesc p;
  tx.send(p);
  tx.send(p);
  tx.flush();
  EXPECT_EQ(sent, 2);
  EXPECT_EQ(tx.total_transmitted(), 2u);
}

// Regression for the edge-triggered arrival notification: push() now
// notifies only on the empty->non-empty transition. A driver-style waiter
// (wait only when the ring is empty, then drain completely) must still see
// every packet, and the wake count must equal the number of edges, not the
// number of packets.
sim::Task draining_waiter(sim::Simulation& sim, RxRing& ring, std::uint64_t& drained,
                          std::uint64_t& wakes, const std::uint64_t target) {
  PacketDesc out[64];
  while (drained < target) {
    if (ring.empty()) {
      co_await ring.wait_arrival();
      ++wakes;
    }
    int n;
    while ((n = ring.pop_burst(out, 64)) > 0) drained += static_cast<std::uint64_t>(n);
  }
  (void)sim;
}

TEST(RxRingTest, EdgeTriggeredNotifyStillDrainsEverything) {
  sim::Simulation sim;
  RxRing ring(sim, 256);
  std::uint64_t drained = 0, wakes = 0;
  constexpr std::uint64_t kBursts = 50;
  constexpr std::uint64_t kPerBurst = 8;  // depth 2..8 pushes must not notify
  sim.spawn(draining_waiter(sim, ring, drained, wakes, kBursts * kPerBurst));
  // One burst every microsecond; the waiter drains the ring in between, so
  // every burst starts from an empty ring: exactly one edge per burst.
  for (std::uint64_t b = 0; b < kBursts; ++b) {
    sim.schedule_at(static_cast<Time>(1000 * (b + 1)), [&ring] {
      for (std::uint64_t i = 0; i < kPerBurst; ++i) {
        PacketDesc p;
        ring.push(p);
      }
    });
  }
  sim.run();
  EXPECT_EQ(drained, kBursts * kPerBurst) << "edge-triggered notify lost packets";
  EXPECT_EQ(wakes, kBursts) << "one wake per empty->non-empty edge, not per packet";
  EXPECT_TRUE(ring.empty());
}

TEST(RxRingTest, NoNotifyWithoutWaiterStillDeliversLater) {
  // Packets arriving while nobody waits must simply sit in the ring; a
  // waiter that checks emptiness before waiting (as every driver does)
  // never blocks on a non-empty ring.
  sim::Simulation sim;
  RxRing ring(sim, 16);
  PacketDesc p;
  ring.push(p);
  ring.push(p);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_FALSE(ring.has_waiters());
  PacketDesc out[4];
  EXPECT_EQ(ring.pop_burst(out, 4), 2);
}

// rx_burst(group) must be observationally identical to rx() per packet:
// same RSS dispatch, same cap accounting, same drop counters. Exercised on
// both rx_burst branches: device-capped (XL710) and uncapped (X520, the
// path every 10 GbE figure bench feeds).
void expect_rx_burst_matches_rx(PortConfig cfg) {
  sim::Simulation sim_a, sim_b;
  cfg.rx_ring_size = 32;  // force ring-full drops too
  Port a(sim_a, cfg), b(sim_b, cfg);
  sim::Rng rng(11);
  std::vector<PacketDesc> group;
  Time t = 0;
  for (int g = 0; g < 200; ++g) {
    group.clear();
    const int n = 1 + static_cast<int>(rng.uniform_u64(32));
    for (int i = 0; i < n; ++i) {
      PacketDesc p;
      p.arrival = t;
      t += static_cast<Time>(rng.uniform_u64(40));  // some below the cap gap
      p.rss_hash = static_cast<std::uint32_t>(rng.next_u64());
      group.push_back(p);
    }
    for (const auto& p : group) a.rx(p);
    b.rx_burst(group.data(), static_cast<int>(group.size()));
  }
  EXPECT_EQ(a.total_rx(), b.total_rx());
  EXPECT_EQ(a.total_dropped(), b.total_dropped());
  EXPECT_EQ(a.device_cap_drops(), b.device_cap_drops());
  for (int q = 0; q < cfg.n_rx_queues; ++q) {
    EXPECT_EQ(a.rx_queue(q).total_received(), b.rx_queue(q).total_received()) << "queue " << q;
    EXPECT_EQ(a.rx_queue(q).size(), b.rx_queue(q).size()) << "queue " << q;
  }
}

TEST(PortTest, RxBurstMatchesPerPacketRxCapped) { expect_rx_burst_matches_rx(xl710_config(4)); }

TEST(PortTest, RxBurstMatchesPerPacketRxUncapped) { expect_rx_burst_matches_rx(x520_config(4)); }

TEST(PortTest, RssSpreadsFlowsAcrossQueues) {
  sim::Simulation sim;
  PortConfig cfg = x520_config(4);
  cfg.rx_ring_size = 4096;  // nobody drains in this test
  Port port(sim, cfg);
  sim::Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    PacketDesc p;
    p.rss_hash = static_cast<std::uint32_t>(rng.next_u64());
    port.rx(p);
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(port.rx_queue(q).total_received(), 800u) << "queue " << q;
  }
  EXPECT_EQ(port.total_rx(), 4000u);
}

TEST(PortTest, SameFlowAlwaysSameQueue) {
  sim::Simulation sim;
  Port port(sim, x520_config(3));
  PacketDesc p;
  p.rss_hash = 0xdeadbeef;
  for (int i = 0; i < 100; ++i) port.rx(p);
  int nonzero_queues = 0;
  for (int q = 0; q < 3; ++q) {
    if (port.rx_queue(q).total_received() > 0) ++nonzero_queues;
  }
  EXPECT_EQ(nonzero_queues, 1);
}

TEST(PortTest, DeviceCapDropsAboveMaxPps) {
  sim::Simulation sim;
  PortConfig cfg = xl710_config(1);
  Port port(sim, cfg);
  // Offer 74 Mpps (13.5 ns gap) for 1 ms: the 37 Mpps cap must drop ~half.
  const Time gap = 13;
  Time t = 0;
  const int n = 74000;
  for (int i = 0; i < n; ++i) {
    PacketDesc p;
    p.arrival = t;
    t += gap;
    port.rx(p);
  }
  const double accept_ratio =
      static_cast<double>(port.total_rx()) / static_cast<double>(n);
  EXPECT_NEAR(accept_ratio, 0.5, 0.05);
  EXPECT_GT(port.device_cap_drops(), 0u);
}

TEST(PortTest, X520HasNoDeviceCap) {
  sim::Simulation sim;
  Port port(sim, x520_config(1));
  PacketDesc p;
  p.arrival = 0;
  for (int i = 0; i < 100; ++i) port.rx(p);  // same instant: fine, ring drops only
  EXPECT_EQ(port.device_cap_drops(), 0u);
}

TEST(PortTest, TotalDroppedAggregatesRings) {
  sim::Simulation sim;
  PortConfig cfg = x520_config(1);
  cfg.rx_ring_size = 4;
  Port port(sim, cfg);
  PacketDesc p;
  for (int i = 0; i < 10; ++i) port.rx(p);
  EXPECT_EQ(port.total_dropped(), 6u);
}

// --- fail-fast port configs ------------------------------------------------

/// The Port constructor rejects `cfg` with a message naming `field`.
void expect_port_rejects(const PortConfig& cfg, const std::string& field) {
  sim::Simulation sim;
  try {
    Port port(sim, cfg);
    ADD_FAILURE() << "a port with a bad " << field << " was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(PortConfigTest, RxQueuesBelowOneAreRejected) {
  for (int n : {0, -1}) {
    PortConfig cfg = x520_config(1);
    cfg.n_rx_queues = n;
    expect_port_rejects(cfg, "n_rx_queues");
  }
}

TEST(PortConfigTest, RxQueuesBeyondTheRetaAreRejected) {
  PortConfig cfg = x520_config(static_cast<int>(RssReta::kSize) + 1);
  expect_port_rejects(cfg, "n_rx_queues");
  cfg.n_rx_queues = static_cast<int>(RssReta::kSize);
  sim::Simulation sim;
  EXPECT_EQ(Port(sim, cfg).n_rx_queues(), static_cast<int>(RssReta::kSize));
}

TEST(PortConfigTest, RingSizeBelowOneIsRejected) {
  for (int size : {0, -1}) {
    PortConfig cfg = x520_config(1);
    cfg.rx_ring_size = size;
    expect_port_rejects(cfg, "rx_ring_size");
  }
}

TEST(PortConfigTest, NonFiniteNegativeOrVanishingMaxPpsIsRejected) {
  // 1e-12 pps: a per-packet gap of 1e21 ns, past sim::Time's range.
  for (double pps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0, 1e-12}) {
    PortConfig cfg = xl710_config(1);
    cfg.max_pps = pps;
    expect_port_rejects(cfg, "max_pps");
  }
}

}  // namespace
}  // namespace metro::nic
