// Fault-injection plane (src/fault/) and hardened sweep execution.
//
// Three layers of coverage:
//   1. FaultInjector unit behaviour: the ingress pipeline's decisions are
//      a pure function of (spec, seed, packet sequence); window math and
//      counter accounting are exact.
//   2. App-level graceful degradation: the byte-level apps count-and-drop
//      packets whose bytes the injector has mangled, instead of crashing
//      (the suite runs under ASan/UBSan in CI).
//   3. The registered fault scenarios hold the same cross-jobs
//      fingerprint identity as healthy ones (their cross-store identity
//      is in test_backend_fullstack.cpp), and the hardened
//      SweepRunner captures throwing/wedged shards into ShardResult
//      instead of letting a worker thread std::terminate the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/flowatcher.hpp"
#include "apps/ipsec.hpp"
#include "apps/l3fwd.hpp"
#include "fault/fault.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "util/seed_mix.hpp"

namespace metro {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;

nic::PacketDesc desc_at(sim::Time t, std::uint32_t flow = 1) {
  nic::PacketDesc pkt;
  pkt.arrival = t;
  pkt.rss_hash = 0x9e3779b9u * flow;
  pkt.flow_id = flow;
  pkt.wire_size = 64;
  return pkt;
}

/// Feed `n` evenly spaced packets through the injector, collecting every
/// delivered descriptor in order.
std::vector<nic::PacketDesc> deliver_all(FaultInjector& inj, std::size_t n,
                                         sim::Time gap = 100) {
  std::vector<nic::PacketDesc> out;
  for (std::size_t i = 0; i < n; ++i) {
    inj.ingress(desc_at(static_cast<sim::Time>(i) * gap, static_cast<std::uint32_t>(i)),
                [&](const nic::PacketDesc& p) { out.push_back(p); });
  }
  return out;
}

bool same_desc(const nic::PacketDesc& a, const nic::PacketDesc& b) {
  return a.arrival == b.arrival && a.rss_hash == b.rss_hash && a.flow_id == b.flow_id &&
         a.wire_size == b.wire_size;
}

// --- spec / seed derivation -------------------------------------------------

TEST(FaultSpecTest, DefaultSpecIsInert) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.any());
  // A one-sided window (period without duration, or vice versa) stays off.
  FaultSpec half;
  half.link_down_every = sim::kMillisecond;
  EXPECT_FALSE(half.any());
  half.link_down_every = 0;
  half.stall_for = sim::kMicrosecond;
  EXPECT_FALSE(half.any());
}

TEST(FaultSpecTest, AnyFiresPerAxis) {
  FaultSpec s;
  s.drop_prob = 0.01;
  EXPECT_TRUE(s.any());
  s = FaultSpec{};
  s.link_down_every = sim::kMillisecond;
  s.link_down_for = 100 * sim::kMicrosecond;
  EXPECT_TRUE(s.any());
  s = FaultSpec{};
  s.stall_every = sim::kMillisecond;
  s.stall_for = 100 * sim::kMicrosecond;
  EXPECT_TRUE(s.any());
}

TEST(FaultInjectorTest, DerivedSeedIsItsOwnStream) {
  // The fault stream must never alias the workload stream
  // (mix_seed(seed, 1)) or the raw shard seed.
  const std::uint64_t shard_seed = 42;
  const std::uint64_t derived = FaultInjector::derive_seed(shard_seed);
  EXPECT_NE(derived, shard_seed);
  EXPECT_NE(derived, util::mix_seed(shard_seed, 1));
  EXPECT_EQ(derived, FaultInjector::derive_seed(shard_seed)) << "derivation must be stable";
  EXPECT_NE(FaultInjector::derive_seed(42), FaultInjector::derive_seed(43));
}

// --- ingress pipeline -------------------------------------------------------

TEST(FaultInjectorTest, InertSpecDeliversEverythingUntouched) {
  FaultInjector inj(FaultSpec{}, 1);
  const auto delivered = deliver_all(inj, 1000);
  ASSERT_EQ(delivered.size(), 1000u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_TRUE(same_desc(delivered[i], desc_at(static_cast<sim::Time>(i) * 100,
                                                static_cast<std::uint32_t>(i))));
  }
  const auto& c = inj.counters();
  EXPECT_EQ(c.dropped + c.corrupted + c.dup + c.reordered + c.link_down_ns + c.stall_ns, 0u);
}

TEST(FaultInjectorTest, SameSpecAndSeedMakeIdenticalDecisions) {
  FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.corrupt_prob = 0.05;
  spec.dup_prob = 0.02;
  spec.reorder_prob = 0.03;
  FaultInjector a(spec, 99);
  FaultInjector b(spec, 99);
  const auto da = deliver_all(a, 20000);
  const auto db = deliver_all(b, 20000);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_TRUE(same_desc(da[i], db[i])) << "at delivery " << i;
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);
  EXPECT_EQ(a.counters().dup, b.counters().dup);
  EXPECT_EQ(a.counters().reordered, b.counters().reordered);

  FaultInjector c(spec, 100);
  const auto dc = deliver_all(c, 20000);
  EXPECT_NE(dc.size(), da.size()) << "a different seed must make different decisions";
}

TEST(FaultInjectorTest, DropProbabilityIsHonored) {
  FaultSpec spec;
  spec.drop_prob = 0.25;
  FaultInjector inj(spec, 7);
  const std::size_t n = 40000;
  const auto delivered = deliver_all(inj, n);
  EXPECT_EQ(delivered.size() + inj.counters().dropped, n) << "every packet lands somewhere";
  EXPECT_NEAR(static_cast<double>(inj.counters().dropped), 0.25 * n, 0.02 * n);
}

TEST(FaultInjectorTest, DuplicationDeliversTwice) {
  FaultSpec spec;
  spec.dup_prob = 1.0;
  FaultInjector inj(spec, 7);
  const auto delivered = deliver_all(inj, 100);
  ASSERT_EQ(delivered.size(), 200u);
  EXPECT_EQ(inj.counters().dup, 100u);
  for (std::size_t i = 0; i < delivered.size(); i += 2) {
    EXPECT_TRUE(same_desc(delivered[i], delivered[i + 1])) << "copies must be identical";
  }
}

TEST(FaultInjectorTest, ReorderSwapsAdjacentPackets) {
  // With reorder_prob = 1 and one hold slot: packet 0 is held, packet 1
  // is delivered first and releases it — delivery order 1,0,3,2,5,4,...
  FaultSpec spec;
  spec.reorder_prob = 1.0;
  FaultInjector inj(spec, 7);
  const auto delivered = deliver_all(inj, 10);
  ASSERT_EQ(delivered.size(), 10u);
  for (std::size_t i = 0; i < 10; i += 2) {
    EXPECT_EQ(delivered[i].flow_id, i + 1);
    EXPECT_EQ(delivered[i + 1].flow_id, i);
  }
  EXPECT_EQ(inj.counters().reordered, 5u);
}

TEST(FaultInjectorTest, CorruptionFlipsHeaderBitsButKeepsDescriptorValid) {
  FaultSpec spec;
  spec.corrupt_prob = 1.0;
  FaultInjector inj(spec, 7);
  const std::size_t n = 1000;
  const auto delivered = deliver_all(inj, n);
  ASSERT_EQ(delivered.size(), n);
  EXPECT_EQ(inj.counters().corrupted, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto original = desc_at(static_cast<sim::Time>(i) * 100,
                                  static_cast<std::uint32_t>(i));
    EXPECT_FALSE(same_desc(delivered[i], original)) << "packet " << i << " must be mangled";
    // Exactly one rss bit flips; wire_size stays in the representable
    // range (zero clamps to 1, one flipped bit of 11 keeps it < 2048).
    EXPECT_EQ(__builtin_popcount(delivered[i].rss_hash ^ original.rss_hash), 1);
    EXPECT_GT(delivered[i].wire_size, 0u);
    EXPECT_LT(delivered[i].wire_size, 2048u);
    // Timing identity is sacred: corruption must never move a packet.
    EXPECT_EQ(delivered[i].arrival, original.arrival);
  }
}

// --- link-flap and stall windows --------------------------------------------

TEST(FaultInjectorTest, LinkFlapDropsOnlyInsideDownWindows) {
  FaultSpec spec;
  spec.link_down_every = sim::kMillisecond;        // up for 1 ms...
  spec.link_down_for = 100 * sim::kMicrosecond;    // ...then down for 100 us
  FaultInjector inj(spec, 7);
  std::size_t delivered = 0;
  const auto feed = [&](sim::Time t) {
    inj.ingress(desc_at(t), [&](const nic::PacketDesc&) { ++delivered; });
  };
  feed(0);                                           // up
  feed(999 * sim::kMicrosecond);                     // still up
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(inj.counters().dropped, 0u);
  feed(1050 * sim::kMicrosecond);                    // down window 0
  feed(1099 * sim::kMicrosecond);                    // same window
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(inj.counters().dropped, 2u);
  // Witnessed down-time accounts once per window, not once per packet.
  EXPECT_EQ(inj.counters().link_down_ns,
            static_cast<std::uint64_t>(100 * sim::kMicrosecond));
  feed(1100 * sim::kMicrosecond);                    // next period: up again
  EXPECT_EQ(delivered, 3u);
  feed(2150 * sim::kMicrosecond);                    // down window 1
  EXPECT_EQ(inj.counters().dropped, 3u);
  EXPECT_EQ(inj.counters().link_down_ns,
            static_cast<std::uint64_t>(200 * sim::kMicrosecond));
}

TEST(FaultInjectorTest, StallWindowsMirrorFlapMath) {
  FaultSpec spec;
  spec.stall_every = 2 * sim::kMillisecond;
  spec.stall_for = 200 * sim::kMicrosecond;
  FaultInjector inj(spec, 7);
  EXPECT_FALSE(inj.rx_stalled(0));
  EXPECT_FALSE(inj.rx_stalled(1999 * sim::kMicrosecond));
  EXPECT_EQ(inj.counters().stall_ns, 0u);
  EXPECT_TRUE(inj.rx_stalled(2100 * sim::kMicrosecond));
  EXPECT_TRUE(inj.rx_stalled(2199 * sim::kMicrosecond));
  EXPECT_EQ(inj.counters().stall_ns, static_cast<std::uint64_t>(200 * sim::kMicrosecond));
  EXPECT_FALSE(inj.rx_stalled(2200 * sim::kMicrosecond));
  EXPECT_TRUE(inj.rx_stalled(4300 * sim::kMicrosecond));
  EXPECT_EQ(inj.counters().stall_ns, static_cast<std::uint64_t>(400 * sim::kMicrosecond));
}

TEST(FaultInjectorTest, FlipBitsFlipsWithinBounds) {
  FaultSpec spec;
  FaultInjector a(spec, 5);
  FaultInjector b(spec, 5);
  std::vector<std::uint8_t> buf_a(64, 0), buf_b(64, 0);
  a.flip_bits(buf_a.data(), buf_a.size(), 1);
  b.flip_bits(buf_b.data(), buf_b.size(), 1);
  EXPECT_EQ(buf_a, buf_b) << "same seed, same flip";
  int set_bits = 0;
  for (const auto byte : buf_a) set_bits += __builtin_popcount(byte);
  EXPECT_EQ(set_bits, 1) << "exactly one bit flips";
  // Zero-length buffers are a no-op, not UB.
  a.flip_bits(buf_a.data(), 0, 8);
}

// --- app-level graceful degradation under corrupted bytes -------------------

net::FiveTuple test_tuple(std::uint32_t n = 0) {
  return net::FiveTuple{net::ipv4_addr(10, 0, 0, 1) + n, net::ipv4_addr(10, 1, 0, 1), 1000,
                        static_cast<std::uint16_t>(2000 + n), net::kIpProtoUdp};
}

TEST(FaultCorruptionTest, L3fwdCountsAndDropsMangledPackets) {
  // Random byte-level corruption must never crash the forwarder (this
  // suite runs under ASan/UBSan in CI) and every packet must be accounted
  // as either forwarded or dropped-with-reason.
  apps::L3Forwarder fwd(apps::L3Forwarder::Mode::kLpm);
  fwd.add_port({0, net::MacAddress{}, net::MacAddress{}});
  fwd.add_route(net::ipv4_addr(10, 1, 0, 0), 16, 0);
  FaultInjector inj(FaultSpec{}, 2026);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    net::Packet pkt;
    net::build_udp_packet(pkt, test_tuple(static_cast<std::uint32_t>(i % 16)), 64);
    inj.flip_bits(pkt.data(), pkt.size(), 1 + (i % 8));
    fwd.process(pkt);
  }
  const auto& st = fwd.stats();
  EXPECT_EQ(st.forwarded + st.dropped, static_cast<std::uint64_t>(n));
  // A single flipped bit usually breaks the IP checksum; mangled packets
  // must overwhelmingly be *rejected*, not mis-forwarded.
  EXPECT_GT(st.dropped, static_cast<std::uint64_t>(n) / 2);
  EXPECT_GT(st.drop_reason[static_cast<std::size_t>(apps::L3fwdDrop::kBadChecksum)] +
                st.drop_reason[static_cast<std::size_t>(apps::L3fwdDrop::kMalformed)] +
                st.drop_reason[static_cast<std::size_t>(apps::L3fwdDrop::kNotIpv4)],
            0u);
}

TEST(FaultCorruptionTest, L3fwdRejectsBadVersionAndLyingTotalLength) {
  apps::L3Forwarder fwd(apps::L3Forwarder::Mode::kLpm);
  fwd.add_port({0, net::MacAddress{}, net::MacAddress{}});
  fwd.add_route(net::ipv4_addr(10, 1, 0, 0), 16, 0);

  net::Packet v6;
  net::build_udp_packet(v6, test_tuple(), 64);
  v6.at<net::Ipv4Header>(sizeof(net::EthernetHeader))->version_ihl = 0x65;  // "IPv6", IHL 20
  EXPECT_FALSE(fwd.process(v6).has_value());

  net::Packet lying;
  net::build_udp_packet(lying, test_tuple(), 64);
  // total_length far beyond the buffer: parsing it as truth would read
  // out of bounds downstream.
  lying.at<net::Ipv4Header>(sizeof(net::EthernetHeader))->total_length =
      net::host_to_be16(4000);
  EXPECT_FALSE(fwd.process(lying).has_value());

  EXPECT_EQ(fwd.stats().drop_reason[static_cast<std::size_t>(apps::L3fwdDrop::kMalformed)], 2u);
}

TEST(FaultCorruptionTest, FloWatcherCountsMalformedSeparately) {
  apps::FloWatcher fw;
  net::Packet good;
  net::build_udp_packet(good, test_tuple(), 64);
  EXPECT_TRUE(fw.observe(good, 0));

  // Truncated below the IPv4 header: malformed, not non-IP.
  net::Packet trunc;
  net::build_udp_packet(trunc, test_tuple(), 64);
  trunc.trim(trunc.size() - (sizeof(net::EthernetHeader) + 10));
  EXPECT_FALSE(fw.observe(trunc, 1));

  net::Packet badver;
  net::build_udp_packet(badver, test_tuple(), 64);
  badver.at<net::Ipv4Header>(sizeof(net::EthernetHeader))->version_ihl = 0x95;
  EXPECT_FALSE(fw.observe(badver, 2));

  EXPECT_EQ(fw.total_packets(), 3u);
  EXPECT_EQ(fw.malformed_packets(), 2u);
  EXPECT_EQ(fw.non_ip_packets(), 0u);
  EXPECT_EQ(fw.active_flows(), 1u);
}

TEST(FaultCorruptionTest, IpsecDecapSurvivesTamperedTunnelPackets) {
  apps::SecurityAssociation sa;
  sa.tunnel_src = net::ipv4_addr(203, 0, 113, 1);
  sa.tunnel_dst = net::ipv4_addr(203, 0, 113, 2);
  apps::IpsecGateway egress(sa);
  apps::IpsecGateway ingress(sa);
  FaultInjector inj(FaultSpec{}, 31);

  std::uint64_t rejected = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    net::Packet pkt;
    net::build_udp_packet(pkt, test_tuple(), 128);
    ASSERT_TRUE(egress.encap(pkt));
    inj.flip_bits(pkt.data(), pkt.size(), 1 + (i % 4));
    if (!ingress.decap(pkt)) ++rejected;
  }
  // HMAC-SHA1-96 catches every flip that touches the authenticated
  // region; flips confined to the outer header fail the malformed /
  // checksum gates instead. The handful that land in bytes nobody
  // validates (the Ethernet MACs) decap successfully — the point is that
  // every packet is *accounted*, nothing crashes, and failures land in
  // counters.
  const auto& st = ingress.stats();
  EXPECT_EQ(rejected + st.decapsulated, static_cast<std::uint64_t>(n));
  EXPECT_EQ(st.auth_failures + st.malformed + st.replay_drops, rejected);
  EXPECT_GT(st.auth_failures, 0u);
  EXPECT_GT(st.malformed, 0u);
  EXPECT_GT(rejected, static_cast<std::uint64_t>(n) * 9 / 10)
      << "the unvalidated surface is 12 MAC bytes out of a ~200-byte frame";
}

// --- registered fault scenarios: determinism contract -----------------------

const char* const kFaultScenarios[] = {"cbr_lossy", "imix_corrupt", "poisson_linkflap",
                                       "incast_stall"};

TEST(FaultScenarioTest, RegistryCarriesActiveFaultSpecs) {
  for (const char* name : kFaultScenarios) {
    const auto* spec = scenario::find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->config.workload.fault.any()) << name << " must declare faults";
  }
  // Healthy scenarios stay inert — the fault plane must cost them nothing.
  EXPECT_FALSE(scenario::find_scenario("cbr_uniform")->config.workload.fault.any());
}

struct Fingerprint {
  std::uint64_t telemetry = 0;
  scenario::ShardCounters counters;
  std::uint64_t events = 0;
  sim::Time final_clock = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const scenario::ShardResult& r) {
  return Fingerprint{r.fingerprint, r.counters, r.events, r.final_clock};
}

scenario::SweepMatrix fault_matrix() {
  scenario::SweepMatrix m;
  m.scenarios.assign(std::begin(kFaultScenarios), std::end(kFaultScenarios));
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  return m;
}

TEST(FaultScenarioTest, BitIdenticalAcrossWorkerCounts) {
  const auto shards = scenario::SweepRunner::expand(fault_matrix());
  ASSERT_EQ(shards.size(), 4u);
  const auto serial = scenario::SweepRunner(1).run(shards);
  const auto parallel = scenario::SweepRunner(4).run(shards);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].failed) << shards[i].scenario << ": " << serial[i].error;
    EXPECT_EQ(fingerprint_of(serial[i]), fingerprint_of(parallel[i]))
        << "jobs=1 vs jobs=4, shard " << i;
  }
  EXPECT_EQ(scenario::report_json(shards, serial, false),
            scenario::report_json(shards, parallel, false));
}

TEST(FaultScenarioTest, FaultCountersReachTelemetry) {
  const auto shards = scenario::SweepRunner::expand(fault_matrix());
  const auto results = scenario::SweepRunner(2).run(shards);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ASSERT_FALSE(results[i].failed) << results[i].error;
    const auto& t = results[i].telemetry;
    ASSERT_NE(t.find("fault.dropped"), nullptr)
        << shards[i].scenario << ": fault counters must be registered";
    const std::uint64_t activity = t.counter("fault.dropped") + t.counter("fault.corrupted") +
                                   t.counter("fault.dup") + t.counter("fault.reordered") +
                                   t.counter("fault.link_down_ns") + t.counter("fault.stall_ns");
    EXPECT_GT(activity, 0u) << shards[i].scenario << " must witness its declared faults";
  }
  // Each fault shard's row in the report carries the six plane counters
  // in its `metrics` object.
  const std::string json = scenario::report_json(shards, results, false);
  std::size_t row = 0;
  for (const auto& shard : shards) {
    row = json.find("\"scenario\": \"" + shard.scenario + "\"", row);
    ASSERT_NE(row, std::string::npos) << shard.scenario;
    const std::size_t metrics = json.find("\"metrics\"", row);
    ASSERT_NE(metrics, std::string::npos) << shard.scenario;
    const std::size_t end = json.find("\"scenario\"", metrics);
    for (const char* name : {"dropped", "corrupted", "dup", "reordered", "link_down_ns",
                             "stall_ns"}) {
      const std::size_t at = json.find(std::string("\"fault.") + name + "\"", metrics);
      EXPECT_LT(at, end) << shard.scenario << ": fault." << name;
    }
    row = metrics;
  }
}

TEST(FaultScenarioTest, HealthyScenarioUnchangedByFaultPlane) {
  // The inert spec short-circuits: a healthy scenario must fingerprint
  // identically whether or not the fault subsystem exists — guarded here
  // by an explicitly zeroed spec vs the registry default.
  scenario::SweepMatrix m;
  m.scenarios = {"cbr_uniform"};
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  auto shards = scenario::SweepRunner::expand(m);
  auto with_default = scenario::SweepRunner(1).run(shards);
  shards[0].config.workload.fault = FaultSpec{};  // explicit no-op
  auto with_zeroed = scenario::SweepRunner(1).run(shards);
  EXPECT_EQ(fingerprint_of(with_default[0]), fingerprint_of(with_zeroed[0]));
}

// --- hardened sweep runner --------------------------------------------------

std::vector<scenario::Shard> shards_with_poisoned_trace() {
  // A kTrace shard with a nonexistent pcap path throws "cannot open trace
  // file" from the testbed constructor — a deterministic configuration
  // failure, the exact class the hardened runner must contain.
  scenario::SweepMatrix m;
  m.scenarios = {"cbr_uniform", "trace_replay_unbalanced", "mmpp_bursty"};
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  auto shards = scenario::SweepRunner::expand(m);
  shards[1].config.workload.trace.path = "/nonexistent/metro_no_such_trace.pcap";
  return shards;
}

TEST(SweepHardeningTest, ThrowingShardIsCapturedNotFatal) {
  const auto shards = shards_with_poisoned_trace();
  const auto results = scenario::SweepRunner(2).run(shards);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_TRUE(results[1].failed);
  EXPECT_NE(results[1].error.find("cannot open trace file"), std::string::npos)
      << results[1].error;
  EXPECT_EQ(results[1].attempts, 2) << "default policy: one deterministic retry";

  // The healthy shards around it ran to completion.
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[2].failed);
  EXPECT_GT(results[0].counters.processed, 1000u);
  EXPECT_GT(results[2].counters.processed, 1000u);

  EXPECT_EQ(scenario::failed_count(results), 1u);
  const std::string summary = scenario::failure_summary(shards, results);
  EXPECT_NE(summary.find("trace_replay_unbalanced"), std::string::npos);
  EXPECT_NE(summary.find("2 attempt"), std::string::npos);

  const std::string json = scenario::report_json(shards, results, false);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("cannot open trace file"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
}

TEST(SweepHardeningTest, FailureReportIdenticalAcrossWorkerCounts) {
  const auto shards = shards_with_poisoned_trace();
  const auto serial = scenario::SweepRunner(1).run(shards);
  const auto parallel = scenario::SweepRunner(4).run(shards);
  EXPECT_EQ(scenario::report_json(shards, serial, false),
            scenario::report_json(shards, parallel, false))
      << "failure capture must be as deterministic as success";
}

TEST(SweepHardeningTest, DeadlineWatchdogFailsWedgedShards) {
  scenario::SweepMatrix m;
  m.scenarios = {"cbr_uniform"};
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  const auto shards = scenario::SweepRunner::expand(m);

  scenario::SweepRunner runner(1);
  runner.set_shard_deadline(1e-9);  // no real shard fits in a nanosecond
  const auto results = runner.run(shards);
  ASSERT_TRUE(results[0].failed);
  EXPECT_NE(results[0].error.find("deadline exceeded"), std::string::npos) << results[0].error;
  EXPECT_EQ(results[0].attempts, 2) << "one retry, and the deadline fails it again";
  // Deterministic error text: no timing values that would differ across
  // reruns (the report must stay byte-identical across worker counts).
  EXPECT_NE(results[0].error.find("cbr_uniform"), std::string::npos);
  EXPECT_EQ(results[0].error.find("0."), std::string::npos);

  // A generous deadline never perturbs results: slicing run_until is
  // execution-equivalent.
  scenario::SweepRunner relaxed(1);
  relaxed.set_shard_deadline(300.0);
  const auto timed = relaxed.run(shards);
  const auto plain = scenario::SweepRunner(1).run(shards);
  ASSERT_FALSE(timed[0].failed) << timed[0].error;
  EXPECT_EQ(fingerprint_of(timed[0]), fingerprint_of(plain[0]));
}

TEST(SweepHardeningTest, DegenerateTopologyShardFailsWithMessage) {
  scenario::SweepMatrix m;
  m.scenarios = {"cbr_uniform", "cbr_uniform"};
  m.warmup = 2 * sim::kMillisecond;
  m.measure = 5 * sim::kMillisecond;
  auto shards = scenario::SweepRunner::expand(m);
  shards[0].config.n_queues = 0;
  shards[1].config.driver = apps::DriverKind::kMetronome;
  shards[1].config.met.n_threads = 0;
  const auto results = scenario::SweepRunner(1).run(shards);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].failed);
  EXPECT_NE(results[0].error.find("n_queues"), std::string::npos) << results[0].error;
  ASSERT_TRUE(results[1].failed);
  EXPECT_NE(results[1].error.find("met.n_threads"), std::string::npos) << results[1].error;
}

}  // namespace
}  // namespace metro
