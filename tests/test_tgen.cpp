// Traffic generation: CBR/Poisson streams, ramp profile, flow mixes, feeder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/experiment.hpp"
#include "nic/port.hpp"
#include "per_flow_oracle.hpp"
#include "scenario/registry.hpp"
#include "sim/simulation.hpp"
#include "tgen/bursty.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"
#include "tgen/trace.hpp"
#include "util/seed_mix.hpp"

namespace metro::tgen {
namespace {

using sim::Time;

TEST(FlowSetTest, DeterministicAndDistinct) {
  FlowSet a(64, 5), b(64, 5), c(64, 6);
  EXPECT_EQ(a.tuple(3), b.tuple(3));
  EXPECT_EQ(a.rss_hash(3), b.rss_hash(3));
  EXPECT_NE(a.tuple(3), c.tuple(3));
  // Flows are (statistically) distinct from each other.
  int distinct = 0;
  for (std::uint32_t i = 1; i < 64; ++i) {
    if (!(a.tuple(i) == a.tuple(0))) ++distinct;
  }
  EXPECT_EQ(distinct, 63);
}

// rss_hash reads in-range ids directly and wraps the rest by modulo; both
// paths must agree with tuple()'s wrap.
TEST(FlowSetTest, OutOfRangeIdsWrapModuloSize) {
  constexpr std::uint32_t kN = 37;
  FlowSet flows(kN, 9);
  for (std::uint32_t id = 0; id < kN; ++id) {
    for (const std::uint32_t k : {1u, 2u, 5u, 1000u, 0xFFFFFFFFu / kN - 1}) {
      ASSERT_EQ(flows.rss_hash(id + k * kN), flows.rss_hash(id)) << "id " << id << " k " << k;
    }
  }
}

TEST(StreamGeneratorTest, CbrGapsAreExact) {
  FlowSet flows(8, 1);
  StreamConfig cfg;
  cfg.rate_pps = 1e6;  // 1 us gap
  cfg.duration = 100 * sim::kMicrosecond;
  StreamGenerator gen(cfg, flows, FlowPicker(8));
  Time prev = -1;
  int count = 0;
  while (auto pkt = gen.next()) {
    if (prev >= 0) {
      EXPECT_EQ(pkt->arrival - prev, 1000);
    }
    prev = pkt->arrival;
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(StreamGeneratorTest, PoissonMeanRateMatches) {
  FlowSet flows(8, 1);
  StreamConfig cfg;
  cfg.rate_pps = 1e6;
  cfg.poisson = true;
  cfg.duration = 100 * sim::kMillisecond;
  StreamGenerator gen(cfg, flows, FlowPicker(8));
  int count = 0;
  while (gen.next()) ++count;
  EXPECT_NEAR(count, 100000, 2000);
}

TEST(StreamGeneratorTest, ZeroRateProducesNothing) {
  FlowSet flows(8, 1);
  StreamConfig cfg;
  cfg.rate_pps = 0.0;
  StreamGenerator gen(cfg, flows, FlowPicker(8));
  EXPECT_FALSE(gen.next().has_value());
}

TEST(StreamGeneratorTest, RssHashMatchesFlowSet) {
  FlowSet flows(4, 1);
  StreamConfig cfg;
  cfg.duration = 10 * sim::kMicrosecond;
  cfg.rate_pps = 1e6;
  StreamGenerator gen(cfg, flows, FlowPicker(4));
  while (auto pkt = gen.next()) {
    EXPECT_EQ(pkt->rss_hash, flows.rss_hash(pkt->flow_id));
  }
}

TEST(UnbalancedPickerTest, HeavyShareRespected) {
  sim::Rng rng(2);
  const FlowPicker picker(1000, 0, 0.3);
  int heavy = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (picker.pick(rng) == 0) ++heavy;
  }
  // 30% direct + ~0.1% of the uniform remainder.
  EXPECT_NEAR(static_cast<double>(heavy) / n, 0.3, 0.01);
}

TEST(RampProfileTest, RisesThenFalls) {
  // 60 s ramp, 2 s steps, peak 14 Mpps at the midpoint (§V-B).
  RampProfile ramp(0.5e6, 14e6, 2 * sim::kSecond, 60 * sim::kSecond);
  const double early = ramp.rate_at(2 * sim::kSecond);
  const double mid = ramp.rate_at(30 * sim::kSecond);
  const double late = ramp.rate_at(55 * sim::kSecond);
  EXPECT_LT(early, mid);
  EXPECT_GT(mid, late);
  EXPECT_NEAR(mid, 14e6, 1e6);
  EXPECT_EQ(ramp.rate_at(-1), 0.0);
  EXPECT_EQ(ramp.rate_at(61 * sim::kSecond), 0.0);
}

TEST(RampProfileTest, StepwiseConstantWithinStep) {
  RampProfile ramp(1e6, 10e6, 2 * sim::kSecond, 60 * sim::kSecond);
  EXPECT_EQ(ramp.rate_at(4 * sim::kSecond + 1), ramp.rate_at(5 * sim::kSecond));
}

TEST(ProfileGeneratorTest, FollowsProfileRate) {
  FlowSet flows(8, 1);
  RampProfile ramp(1e6, 5e6, 100 * sim::kMillisecond, sim::kSecond);
  ProfileGenerator gen(ramp, sim::kSecond, 64, flows, FlowPicker(8));
  // Count packets in the first 100 ms (low rate) vs around the peak.
  std::map<int, int> per_bucket;
  while (auto pkt = gen.next()) {
    per_bucket[static_cast<int>(pkt->arrival / (100 * sim::kMillisecond))]++;
  }
  EXPECT_GT(per_bucket[5], per_bucket[0] * 2);
}

sim::Task consume_all(sim::Simulation&, nic::RxRing& ring, int& received) {
  nic::PacketDesc buf[32];
  for (;;) {
    const int n = ring.pop_burst(buf, 32);
    received += n;
    if (n == 0) co_await ring.wait_arrival();
  }
}

TEST(FeederTest, DeliversEverythingToThePort) {
  sim::Simulation sim;
  nic::Port port(sim, nic::x520_config(1));
  FlowSet flows(16, 1);
  StreamConfig cfg;
  cfg.rate_pps = 2e6;
  cfg.duration = 50 * sim::kMillisecond;
  StreamGenerator gen(cfg, flows, FlowPicker(16));
  int received = 0;
  sim.spawn(consume_all(sim, port.rx_queue(0), received));
  attach(sim, port, gen);
  sim.run_until(60 * sim::kMillisecond);
  EXPECT_EQ(received, 100000);
  EXPECT_EQ(port.total_dropped(), 0u);
}

TEST(FeederTest, ArrivalTimestampsNeverExceedDeliveryTime) {
  // The feeder groups packets but must deliver them only after their wire
  // arrival time, so consumers can never see "future" packets.
  sim::Simulation sim;
  nic::Port port(sim, nic::x520_config(1));
  FlowSet flows(4, 1);
  StreamConfig cfg;
  cfg.rate_pps = 14.88e6;
  cfg.duration = 5 * sim::kMillisecond;
  StreamGenerator gen(cfg, flows, FlowPicker(4));
  attach(sim, port, gen);
  bool violated = false;
  sim.spawn([](sim::Simulation& s, nic::RxRing& ring, bool& bad) -> sim::Task {
    nic::PacketDesc buf[32];
    for (;;) {
      const int n = ring.pop_burst(buf, 32);
      for (int i = 0; i < n; ++i) {
        if (buf[i].arrival > s.now()) bad = true;
      }
      if (n == 0) co_await ring.wait_arrival();
    }
  }(sim, port.rx_queue(0), violated));
  sim.run_until(6 * sim::kMillisecond);
  EXPECT_FALSE(violated);
}

// --- next_batch() equivalence ------------------------------------------
//
// The batched arrival path is an amortisation, never a different
// workload: for every generator, next_batch() must emit the exact packet
// stream next() emits — same arrivals, same flows, same sizes — for any
// chunk size and even when the two entry points are interleaved
// mid-stream.

void expect_same_stream(const std::vector<nic::PacketDesc>& got,
                        const std::vector<nic::PacketDesc>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].arrival, want[i].arrival) << what << " packet " << i;
    ASSERT_EQ(got[i].flow_id, want[i].flow_id) << what << " packet " << i;
    ASSERT_EQ(got[i].rss_hash, want[i].rss_hash) << what << " packet " << i;
    ASSERT_EQ(got[i].wire_size, want[i].wire_size) << what << " packet " << i;
  }
}

/// `make` builds a fresh, identically-seeded generator on every call;
/// each of `chunks` is one next_batch() size.
void check_batched_equivalence(const std::function<std::unique_ptr<Generator>()>& make,
                               std::initializer_list<std::size_t> chunks = {1, 7, 32}) {
  std::vector<nic::PacketDesc> reference;
  {
    auto gen = make();
    while (auto pkt = gen->next()) reference.push_back(*pkt);
  }
  ASSERT_GT(reference.size(), 100u) << "workload too small to exercise batching";

  for (const std::size_t chunk : chunks) {
    auto gen = make();
    std::vector<nic::PacketDesc> got;
    while (gen->next_batch(got, chunk) > 0) {
    }
    expect_same_stream(got, reference, "batched");
    ASSERT_EQ(gen->next_batch(got, chunk), 0u) << "exhausted generator must stay exhausted";
  }

  // Switching entry points mid-stream continues the same stream.
  auto gen = make();
  std::vector<nic::PacketDesc> mixed;
  for (;;) {
    auto pkt = gen->next();
    if (!pkt.has_value()) break;
    mixed.push_back(*pkt);
    if (gen->next_batch(mixed, 5) == 0) break;
  }
  expect_same_stream(mixed, reference, "interleaved");
}

TEST(NextBatchTest, StreamCbrMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence([&] {
    StreamConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    return std::make_unique<StreamGenerator>(cfg, flows,
                                             FlowPicker(32));
  });
}

TEST(NextBatchTest, StreamPoissonImixMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence([&] {
    StreamConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    cfg.poisson = true;
    cfg.imix = true;
    return std::make_unique<StreamGenerator>(
        cfg, flows, FlowPicker(32, 0, 0.3));
  });
}

// The grouped ingress reads a whole prefetch buffer per call; chunks on
// either side of its depth, and one spanning several, draw the same
// stream, heavy-flow Bernoulli included.
TEST(NextBatchTest, StreamUnbalancedMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence(
      [&] {
        StreamConfig cfg;
        cfg.rate_pps = 1e6;
        cfg.duration = 2 * sim::kMillisecond;
        return std::make_unique<StreamGenerator>(cfg, flows, FlowPicker(32, 0, 0.3));
      },
      {1, 7, 32, kPrefetch - 1, kPrefetch, kPrefetch + 1, 3 * kPrefetch + 5});
}

TEST(NextBatchTest, ProfileMatchesUnbatched) {
  FlowSet flows(16, 3);
  static const RampProfile ramp(0.2e6, 2e6, 2 * sim::kMillisecond, 10 * sim::kMillisecond);
  check_batched_equivalence([&] {
    return std::make_unique<ProfileGenerator>(ramp, 10 * sim::kMillisecond, 64, flows,
                                              FlowPicker(16));
  });
}

TEST(NextBatchTest, MmppMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence([&] {
    MmppConfig cfg;
    cfg.mean_rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    return std::make_unique<MmppGenerator>(cfg, flows, FlowPicker(32));
  });
}

TEST(NextBatchTest, ParetoTrainMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence([&] {
    ParetoTrainConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    return std::make_unique<ParetoTrainGenerator>(cfg, flows);
  });
}

TEST(NextBatchTest, IncastMatchesUnbatched) {
  FlowSet flows(64, 3);
  check_batched_equivalence([&] {
    IncastConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    return std::make_unique<IncastGenerator>(cfg, flows);
  });
}

TEST(NextBatchTest, TraceMatchesUnbatched) {
  std::vector<TraceEntry> entries;
  for (std::uint32_t i = 0; i < 5; ++i) {
    TraceEntry e;
    e.tuple.src_ip = net::ipv4_addr(198, 18, 0, i);
    e.tuple.dst_ip = net::ipv4_addr(10, 0, 0, 1);
    e.tuple.src_port = static_cast<std::uint16_t>(2000 + i);
    e.tuple.dst_port = 443;
    e.rss_hash = 0x1000u + i;
    e.wire_size = static_cast<std::uint16_t>(64 + 10 * i);
    entries.push_back(e);
  }
  check_batched_equivalence([&] {
    return std::make_unique<TraceGenerator>(entries, 1e6, 2 * sim::kMillisecond);
  });
}

// --- arena vs coroutine per-flow sources --------------------------------
//
// PerFlowSourceArena is the million-flow form of the coroutine per-flow
// sources (per_flow_oracle.hpp): packed SoA lanes and a private arrival
// calendar, delivered lazily, instead of one coroutine frame and one
// pending kernel event per flow. The contract is bit-identical execution —
// the consumer below digests every delivered packet (fields and delivery
// instant), and the digest and the delivery count must match between the
// two attach paths, on either event store.

sim::Task digest_all(sim::Simulation& s, nic::RxRing& ring, std::uint64_t& digest,
                     std::uint64_t& count) {
  nic::PacketDesc buf[32];
  for (;;) {
    const int n = ring.pop_burst(buf, 32);
    for (int i = 0; i < n; ++i) {
      digest = digest * 1099511628211ull + static_cast<std::uint64_t>(buf[i].arrival);
      digest = digest * 1099511628211ull + buf[i].flow_id;
      digest = digest * 1099511628211ull + buf[i].rss_hash;
      digest = digest * 1099511628211ull + buf[i].wire_size;
      digest = digest * 1099511628211ull + static_cast<std::uint64_t>(s.now());
      ++count;
    }
    if (n == 0) co_await ring.wait_arrival();
  }
}

struct PerFlowRun {
  std::uint64_t digest = 0;
  std::uint64_t count = 0;
  std::uint64_t events = 0;
  bool operator==(const PerFlowRun&) const = default;
};

/// A per-flow population, its source config and how long to run it.
struct PerFlowCase {
  std::size_t flows = 256;
  PerFlowSourceConfig cfg{.total_rate_pps = 2e6,
                          .poisson = true,
                          .wire_size = 64,
                          .start = 0,
                          .duration = 20 * sim::kMillisecond};
  Time run_until = 25 * sim::kMillisecond;
  nic::PortConfig port = nic::x520_config(1);
};

/// Attach functions for run_per_flow. Each returns what must stay alive
/// for the run; run_per_flow holds it inside the simulation's lifetime.
struct AttachCoroutines {
  int operator()(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                 PerFlowSourceConfig cfg) const {
    testing::attach_per_flow_sources(sim, port, flows, cfg);
    return 0;
  }
};
struct AttachArena {
  const PerFlowSourceArena* operator()(sim::Simulation& sim, nic::Port& port,
                                       const FlowSet& flows, PerFlowSourceConfig cfg) const {
    return &attach_per_flow(sim, port, flows, cfg);  // the port owns it
  }
};

template <typename Sim, typename AttachFn>
PerFlowRun run_per_flow(AttachFn&& attach_fn, const PerFlowCase& c = {}) {
  Sim sim(7);
  nic::Port port(sim, c.port);
  FlowSet flows(c.flows, 11);
  PerFlowRun r;
  sim.spawn(digest_all(sim, port.rx_queue(0), r.digest, r.count));
  [[maybe_unused]] const auto keep = attach_fn(sim, port, flows, c.cfg);
  sim.run_until(c.run_until);
  r.events = sim.events_processed();
  return r;
}

TEST(PerFlowArenaTest, MatchesCoroutineSourcesExactly) {
  const auto coroutine = run_per_flow<sim::Simulation>(AttachCoroutines{});
  std::size_t arena_flows = 0;
  std::size_t arena_armed = ~std::size_t{0};
  std::uint64_t arena_fired = 0;
  const auto arena = run_per_flow<sim::Simulation>(
      [&](auto& sim, auto& port, const FlowSet& flows, PerFlowSourceConfig cfg) {
        const PerFlowSourceArena* a = AttachArena{}(sim, port, flows, cfg);
        sim.schedule_at(24 * sim::kMillisecond, [&, a] {
          arena_flows = a->flow_count();
          arena_armed = a->armed();
          arena_fired = a->fired();
        });
        return a;
      });
  EXPECT_GT(coroutine.count, 10000u);
  // The delivered packet stream — fields and delivery instants — is
  // bit-identical. events_processed legitimately differs: the arena keeps
  // no event per flow or per packet, only one armed while the consumer is
  // parked.
  EXPECT_EQ(arena.digest, coroutine.digest);
  EXPECT_EQ(arena.count, coroutine.count);
  EXPECT_LT(arena.events, coroutine.events);
  EXPECT_EQ(arena_flows, 256u);
  EXPECT_EQ(arena_armed, 0u) << "all arrivals must retire once every flow passed its end";
  EXPECT_EQ(arena_fired, arena.count) << "nothing dropped: fired == delivered";
}

TEST(PerFlowArenaTest, BitIdenticalAcrossBackends) {
  const auto heap = run_per_flow<sim::Simulation>(AttachArena{});
  const auto wheel = run_per_flow<sim::WheelSimulation>(AttachArena{});
  EXPECT_EQ(heap, wheel);
}

/// The arena on both backends against the coroutine oracle for one case.
void expect_arena_matches_oracle(const PerFlowCase& c, std::uint64_t min_packets) {
  const auto oracle = run_per_flow<sim::Simulation>(AttachCoroutines{}, c);
  const auto heap = run_per_flow<sim::Simulation>(AttachArena{}, c);
  const auto wheel = run_per_flow<sim::WheelSimulation>(AttachArena{}, c);
  EXPECT_GE(oracle.count, min_packets) << "the case must do real work";
  EXPECT_EQ(heap.digest, oracle.digest);
  EXPECT_EQ(heap.count, oracle.count);
  EXPECT_EQ(wheel, heap);
}

// The calendar's rare paths, each against the coroutine oracle.

TEST(PerFlowArenaTest, StartPastTheHorizonMatchesOracle) {
  // 256 flows at 2 Mpps: a 128 us mean per-flow gap and a calendar
  // horizon of about 1 ms. Starting at 50 ms puts every flow in overflow
  // at bootstrap; the calendar must jump to them.
  PerFlowCase c;
  c.cfg.start = 50 * sim::kMillisecond;
  c.cfg.duration = 5 * sim::kMillisecond;
  c.run_until = 60 * sim::kMillisecond;
  expect_arena_matches_oracle(c, 9000);
}

TEST(PerFlowArenaTest, ConstantGapsMatchOracle) {
  PerFlowCase c;
  c.cfg.poisson = false;
  expect_arena_matches_oracle(c, 39000);
}

TEST(PerFlowArenaTest, SingleFlowMatchesOracle) {
  // One flow: a one-bucket ring 8192 ns wide against a 1 us mean gap, so
  // re-arms land in the loaded run, in the next bucket and in overflow.
  PerFlowCase c;
  c.flows = 1;
  c.cfg.total_rate_pps = 1e6;
  expect_arena_matches_oracle(c, 19000);
}

TEST(PerFlowArenaTest, ManyFlowsOverSeveralHorizonRevolutionsMatchOracle) {
  // 2^16 Poisson flows at 4 Mpps: 2048 ns buckets, a 2^16-bucket ring
  // (a 134 ms horizon, 8.2 mean per-flow gaps) and a 420 ms window, so
  // the ring turns over three times and the exponential tail keeps
  // feeding the overflow chain.
  PerFlowCase c;
  c.flows = std::size_t{1} << 16;
  c.cfg.total_rate_pps = 4e6;
  c.cfg.duration = 420 * sim::kMillisecond;
  c.run_until = 430 * sim::kMillisecond;
  expect_arena_matches_oracle(c, 1'500'000);
}

TEST(PerFlowArenaTest, AttachAfterTheStartIsRejected) {
  // An arena attached at 20 ms whose flows start at 0 would owe every
  // arrival planned before 20 ms at once; attach_per_flow refuses it
  // before touching the port or the kernel. Attaching at the start
  // itself is fine.
  sim::Simulation sim(7);
  nic::Port port(sim, nic::x520_config(1));
  FlowSet flows(16, 11);
  PerFlowSourceConfig cfg;
  cfg.start = 0;
  sim.run_until(20 * sim::kMillisecond);
  EXPECT_THROW(attach_per_flow(sim, port, flows, cfg), std::invalid_argument);
  EXPECT_TRUE(sim.idle()) << "nothing was scheduled before the throw";
  cfg.start = sim.now();
  EXPECT_NO_THROW(attach_per_flow(sim, port, flows, cfg)) << "the port took no ingress before";
}

TEST(PerFlowArenaTest, NanosecondBucketsMatchOracle) {
  // 4096 flows at 8 Gpps: a 512 ns mean per-flow gap and 1 ns buckets
  // (a bucket width below the 16 slices of a refill key), so every
  // record of a bucket shares its instant: ~8 equal-`at` ties per bucket,
  // ordered by seq alone.
  PerFlowCase c;
  c.flows = 4096;
  c.cfg.total_rate_pps = 8e9;
  c.cfg.duration = 100 * sim::kMicrosecond;
  c.run_until = 110 * sim::kMicrosecond;
  expect_arena_matches_oracle(c, 700'000);
}

TEST(PerFlowArenaTest, SubNanosecondGapsMatchOracle) {
  // 2^14 flows at 10^14 pps: a 0.16 ns mean per-flow gap, so every phase
  // truncates to `start` and nearly every gap to 1 ns. So a refilled
  // 1 ns bucket holds thousands of records at one instant, chained in
  // reverse seq order: one slice far over the cap, which the refill must
  // hand to std::sort (an insertion pass over it would be quadratic). The
  // port ring holds a whole instant, so every packet's order reaches the
  // digest.
  PerFlowCase c;
  c.port.rx_ring_size = 1 << 15;
  c.flows = std::size_t{1} << 14;
  c.cfg.total_rate_pps = 1e14;
  c.cfg.start = 1000;
  c.cfg.duration = 40;
  c.run_until = 2000;
  expect_arena_matches_oracle(c, 600'000);
}

TEST(PerFlowDrawsTest, DrawsAreCountersOfTheFlowsMixedSeed) {
  // Flow f's draw k is output k of a SplitMix64 generator seeded with
  // util::mix_seed(seed, f): draw 0 the phase, draw k >= 1 the k-th gap.
  PerFlowSourceConfig cfg;
  cfg.total_rate_pps = 1e6;
  cfg.start = 5000;
  cfg.seed = 42;
  const PerFlowDraws draws(100, cfg);
  const double mean = 1e9 * 100 / cfg.total_rate_pps;
  const auto unit = [&](std::uint32_t f, std::uint64_t k) {
    const std::uint64_t key = util::mix_seed(cfg.seed, f);
    const std::uint64_t x = util::splitmix64(key + k * 0x9e3779b97f4a7c15ULL);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (const std::uint32_t f : {0u, 1u, 99u}) {
    EXPECT_EQ(draws.phase(f), cfg.start + static_cast<Time>(unit(f, 0) * mean));
    for (const std::uint64_t k : {1u, 2u, 1000u}) {
      EXPECT_EQ(draws.gap(f, k), static_cast<Time>(-mean * std::log(1.0 - unit(f, k))));
    }
  }
  cfg.seed = 43;
  EXPECT_NE(PerFlowDraws(100, cfg).phase(0), draws.phase(0)) << "the seed keys the draws";
}

// --- a per-flow arrival tied with a parked reader's timeout -----------------
//
// A reader on queue 0 parks with a timeout after every drain, and per-flow
// arrivals land on the very nanosecond of its timeouts, in either
// scheduling order of the tie:
//   * arrival first — the arrival's own event (one process per flow) was
//     scheduled before the timeout, so it wakes the reader and the timeout
//     never fires;
//   * timeout first — the timeout was scheduled before the arrival's own
//     event, so the timeout fires first and the reader reads its ring
//     before the arrival is handled. Only an arrival that woke nobody can
//     have been armed while the reader was parked, so this flow sends to
//     queue 1, whose reader parks without a timeout.
// Each case runs against the coroutine oracle, the arena on both stores.

struct TieRun {
  std::uint64_t digest = 0;  ///< both readers' packets and reader 0's wake-ups
  std::uint64_t count = 0;
  std::uint64_t notified_at_timeout = 0;  ///< a packet woke reader 0 at its timeout
  std::uint64_t timeouts = 0;             ///< reader 0's timeout fired
  bool operator==(const TieRun&) const = default;
};

/// From `start`, drain the ring and park for at most `timeout`, folding
/// every packet and every wake-up (instant, and whether a packet woke it)
/// into the digest.
sim::Task timed_reader(sim::Simulation& s, nic::RxRing& ring, Time start, Time timeout,
                       TieRun& r) {
  co_await s.sleep_until(start);
  nic::PacketDesc buf[32];
  for (;;) {
    const int n = ring.pop_burst(buf, 32);
    for (int i = 0; i < n; ++i) {
      r.digest = r.digest * 1099511628211ull + static_cast<std::uint64_t>(buf[i].arrival);
      r.digest = r.digest * 1099511628211ull + static_cast<std::uint64_t>(s.now());
      ++r.count;
    }
    if (n != 0) continue;
    const Time parked = s.now();
    const bool woke = co_await ring.wait_arrival_for(timeout);
    r.digest = r.digest * 1099511628211ull + static_cast<std::uint64_t>(s.now()) * 2 + woke;
    if (!woke) ++r.timeouts;
    if (woke && s.now() == parked + timeout) ++r.notified_at_timeout;
  }
}

/// One tie case: `flows` under `cfg`, reader 0 from `start` with `timeout`.
struct TieCase {
  FlowSet flows{1, 11};
  int queues = 1;
  PerFlowSourceConfig cfg{.total_rate_pps = 1e6,
                          .poisson = false,
                          .wire_size = 64,
                          .start = 0,
                          .duration = 2 * sim::kMillisecond};
  Time start = 0;
  Time timeout = sim::kMicrosecond;
};

template <typename Sim, typename AttachFn>
TieRun run_tie(AttachFn&& attach_fn, const TieCase& c) {
  Sim sim(7);
  nic::Port port(sim, nic::x520_config(c.queues));
  TieRun r;
  sim.spawn(timed_reader(sim, port.rx_queue(0), c.start, c.timeout, r));
  std::uint64_t other = 0;
  std::uint64_t other_count = 0;
  if (c.queues > 1) sim.spawn(digest_all(sim, port.rx_queue(1), other, other_count));
  [[maybe_unused]] const auto keep = attach_fn(sim, port, c.flows, c.cfg);
  sim.run_until(c.cfg.duration + sim::kMillisecond);
  r.digest ^= other;
  r.count += other_count;
  return r;
}

void expect_tie_matches_oracle(const TieCase& c) {
  const TieRun oracle = run_tie<sim::Simulation>(AttachCoroutines{}, c);
  EXPECT_EQ(run_tie<sim::Simulation>(AttachArena{}, c), oracle) << "heap";
  EXPECT_EQ(run_tie<sim::WheelSimulation>(AttachArena{}, c), oracle) << "wheel";
}

TEST(PerFlowArenaTest, ArrivalArmedBeforeATimeoutWakesTheReader) {
  // One CBR flow with a 1 us gap on one queue; the reader's 1 us timeout,
  // armed when it parks after each packet, ends on the next arrival, which
  // the packet before armed.
  const TieCase c;
  const TieRun oracle = run_tie<sim::Simulation>(AttachCoroutines{}, c);
  EXPECT_GE(oracle.notified_at_timeout, 1990u) << "every arrival after the first is a tie";
  EXPECT_EQ(oracle.count, 2000u);
  expect_tie_matches_oracle(c);
}

TEST(PerFlowArenaTest, TimeoutArmedBeforeAnArrivalFiresFirst) {
  // One CBR flow with a 1 us gap, sent to queue 1. Reader 0 starts at the
  // flow's phase and parks with a 2 us timeout, so every timeout lands on
  // an arrival armed while the reader was parked, 1 us after its park.
  TieCase c;
  c.queues = 2;
  std::uint64_t seed = 1;
  const nic::RssReta reta(2);
  while (reta.queue_for(FlowSet(1, seed).rss_hash(0)) != 1) ++seed;
  c.flows = FlowSet(1, seed);
  c.start = PerFlowDraws(1, c.cfg).phase(0);
  c.timeout = 2 * sim::kMicrosecond;
  const TieRun oracle = run_tie<sim::Simulation>(AttachCoroutines{}, c);
  EXPECT_GE(oracle.timeouts, 999u) << "a timeout every 2 us, each on an arrival while it runs";
  EXPECT_EQ(oracle.count, 2000u) << "queue 1's reader got every packet";
  expect_tie_matches_oracle(c);
}

// --- offered traffic independent of the driver -----------------------------
//
// Every flow's arrivals are drawn from the seed alone, so Metronome,
// static polling and XDP are offered the same packets.

/// The packets a testbed's per-flow arena offered by the end of a short
/// run: (arrival, flow, RSS hash) of each, flow by flow, rebuilt from the
/// packets each flow emitted, where its next arrival stands and the
/// seed's draws; plus the device-cap drops, which depend on the offered
/// packets alone.
std::uint64_t offered_digest(apps::ExperimentConfig cfg, apps::DriverKind driver) {
  cfg.driver = driver;
  cfg.warmup = sim::kMillisecond;
  cfg.measure = 4 * sim::kMillisecond;
  apps::Testbed bed(cfg);
  bed.start();
  bed.run_until(cfg.warmup + cfg.measure);
  const PerFlowSourceArena& arena = *bed.flow_arena();
  const FlowSet flows(cfg.workload.n_flows, cfg.workload.seed);
  PerFlowSourceConfig src;
  src.total_rate_pps = cfg.workload.rate_mpps * 1e6;
  src.poisson = cfg.workload.poisson;
  src.seed = cfg.workload.seed;
  const PerFlowDraws draws(flows.size(), src);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (std::uint32_t f = 0; f < flows.size(); ++f) {
    Time at = draws.phase(f);
    for (std::uint32_t k = 1; k <= arena.flow_fired(f); ++k) {
      add(static_cast<std::uint64_t>(at));
      add(f);
      add(flows.rss_hash(f));
      at += draws.gap(f, k);
    }
    add(static_cast<std::uint64_t>(arena.next_fire_at(f)));
  }
  add(arena.fired());
  add(bed.telemetry().snapshot().counter("port.cap_drops"));
  return h;
}

void expect_offered_independent_of_driver(std::string_view scenario) {
  const apps::ExperimentConfig& cfg = scenario::find_scenario(scenario)->config;
  const std::uint64_t metronome = offered_digest(cfg, apps::DriverKind::kMetronome);
  EXPECT_EQ(offered_digest(cfg, apps::DriverKind::kStaticPolling), metronome) << scenario;
  EXPECT_EQ(offered_digest(cfg, apps::DriverKind::kXdp), metronome) << scenario;
}

TEST(PerFlowArenaTest, OfferedPacketsIndependentOfTheDriver) {
  expect_offered_independent_of_driver("perflow_poisson");
  expect_offered_independent_of_driver("fig13_fullstack_perflow");
}

// --- golden streams ---------------------------------------------------------
//
// The first 10,000 packets of two seed-42 streams, digested when each
// picker was still its own virtual class. The flow picker's draw sequence
// (the Bernoulli only with a positive heavy share, then Lemire) must not
// move, through next() or a prefetch-sized next_batch().

std::uint64_t golden_digest(const std::vector<nic::PacketDesc>& pkts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const nic::PacketDesc& p : pkts) {
    add(static_cast<std::uint64_t>(p.arrival));
    add(p.flow_id);
    add(p.rss_hash);
    add(p.wire_size);
  }
  return h;
}

void expect_golden(const std::function<std::unique_ptr<Generator>()>& make,
                   std::uint64_t golden) {
  constexpr std::size_t kPackets = 10'000;
  auto by_packet = make();
  std::vector<nic::PacketDesc> pkts;
  while (pkts.size() < kPackets) pkts.push_back(by_packet->next().value());
  EXPECT_EQ(golden_digest(pkts), golden) << "next()";
  auto by_batch = make();
  pkts.clear();
  while (pkts.size() < kPackets) {
    ASSERT_GT(by_batch->next_batch(pkts, std::min(kPrefetch, kPackets - pkts.size())), 0u);
  }
  EXPECT_EQ(golden_digest(pkts), golden) << "next_batch()";
}

TEST(GoldenStreamTest, UniformCbr) {
  const FlowSet flows(4096, 42);
  expect_golden(
      [&] {
        StreamConfig cfg;
        cfg.rate_pps = 37e6;
        cfg.seed = 42;
        return std::make_unique<StreamGenerator>(cfg, flows, FlowPicker(4096));
      },
      0xa954be9450731ebdull);
}

TEST(GoldenStreamTest, UnbalancedPoissonImix) {
  const FlowSet flows(1000, 42);
  expect_golden(
      [&] {
        StreamConfig cfg;
        cfg.rate_pps = 14.88e6;
        cfg.seed = 42;
        cfg.poisson = true;
        cfg.imix = true;
        return std::make_unique<StreamGenerator>(cfg, flows, FlowPicker(1000, 0, 0.3));
      },
      0xf65133632ba38092ull);
}

// --- fail-fast stream configs ----------------------------------------------

/// StreamGenerator's constructor throws std::invalid_argument whose
/// message names `field`.
void expect_stream_rejected(const StreamConfig& cfg, const std::string& field) {
  const FlowSet flows(4, 1);
  try {
    StreamGenerator gen(cfg, flows, FlowPicker(4));
    ADD_FAILURE() << "accepted a stream with a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(StreamConfigTest, NanRateIsRejected) {
  StreamConfig cfg;
  cfg.rate_pps = std::numeric_limits<double>::quiet_NaN();
  expect_stream_rejected(cfg, "rate_pps");
}

TEST(StreamConfigTest, InfiniteRateIsRejected) {
  StreamConfig cfg;
  cfg.rate_pps = std::numeric_limits<double>::infinity();
  expect_stream_rejected(cfg, "rate_pps");
}

TEST(StreamConfigTest, NegativeRateIsRejected) {
  StreamConfig cfg;
  cfg.rate_pps = -1.0;
  expect_stream_rejected(cfg, "rate_pps");
}

TEST(StreamConfigTest, NegativeDurationIsRejected) {
  StreamConfig cfg;
  cfg.duration = -1;
  expect_stream_rejected(cfg, "duration");
}

TEST(StreamConfigTest, GapMustFitInTime) {
  // 1e9 / 1e-10 = 1e19 ns overflows sim::Time; 0.2 pps (a 5 s gap) fits.
  StreamConfig cfg;
  cfg.rate_pps = 1e-10;
  expect_stream_rejected(cfg, "rate_pps");
  cfg.rate_pps = 0.2;
  const FlowSet flows(4, 1);
  StreamGenerator gen(cfg, flows, FlowPicker(4));
  EXPECT_EQ(gen.next()->arrival, 0);
}

TEST(StreamConfigTest, ZeroRateOffersNoTraffic) {
  StreamConfig cfg;
  cfg.rate_pps = 0.0;
  const FlowSet flows(4, 1);
  StreamGenerator gen(cfg, flows, FlowPicker(4));
  EXPECT_FALSE(gen.next().has_value());
  std::vector<nic::PacketDesc> out;
  EXPECT_EQ(gen.next_batch(out, 8), 0u);
}

// A testbed whose stream rate is NaN fails at construction instead of
// emitting every packet at its first instant.
TEST(StreamConfigTest, TestbedRejectsNanRate) {
  apps::ExperimentConfig cfg;
  cfg.workload.rate_mpps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(apps::Testbed bed(cfg), std::invalid_argument);
}

// --- fail-fast per-flow configs --------------------------------------------

template <typename Attach>
void expect_rejected(Attach attach, PerFlowSourceConfig cfg) {
  sim::Simulation sim;
  nic::Port port(sim, nic::x520_config(1));
  FlowSet flows(4, 1);
  EXPECT_THROW(attach(sim, port, flows, cfg), std::invalid_argument);
  EXPECT_TRUE(sim.idle()) << "nothing was scheduled before the throw";
}

TEST(PerFlowConfigTest, NanRateIsRejected) {
  PerFlowSourceConfig cfg;
  cfg.total_rate_pps = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(AttachArena{}, cfg);
  expect_rejected(AttachCoroutines{}, cfg);
}

TEST(PerFlowConfigTest, InfiniteRateIsRejected) {
  PerFlowSourceConfig cfg;
  cfg.total_rate_pps = std::numeric_limits<double>::infinity();
  expect_rejected(AttachArena{}, cfg);
  expect_rejected(AttachCoroutines{}, cfg);
}

TEST(PerFlowConfigTest, NegativeDurationIsRejected) {
  PerFlowSourceConfig cfg;
  cfg.duration = -1;
  expect_rejected(AttachArena{}, cfg);
  expect_rejected(AttachCoroutines{}, cfg);
}

TEST(PerFlowConfigTest, GapsMustFitInTime) {
  // 4 flows at 1e-10 pps: a 4e19 ns mean gap, past sim::Time, where the
  // cast of a phase or gap is undefined. 1 pps (a 4 s mean gap) fits.
  PerFlowSourceConfig cfg;
  cfg.total_rate_pps = 1e-10;
  expect_rejected(AttachArena{}, cfg);
  expect_rejected(AttachCoroutines{}, cfg);
  cfg.total_rate_pps = 1.0;
  EXPECT_NO_THROW(check_per_flow_config(4, cfg));
}

TEST(PerFlowConfigTest, FlowIdsMustLeaveTheNilLink) {
  // Both entry points call check_per_flow_config first; a FlowSet of
  // 2^32 - 1 flows would take ~80 GB, so the bound is tested there.
  const PerFlowSourceConfig cfg;
  EXPECT_THROW(check_per_flow_config(0xffffffffu, cfg), std::invalid_argument);
  EXPECT_NO_THROW(check_per_flow_config(0xfffffffeu, cfg));
}

TEST(PerFlowArenaTest, LaneAccountingInvariantsAtScale) {
  // 2^18 flows on the wheel backend: big enough that most flows never
  // fire inside the window (the million-flow regime in miniature — mean
  // per-flow gap 66 ms vs a 20 ms duration). The SoA lanes must stay
  // mutually consistent both mid-run, with tens of thousands of timers in
  // flight, and after every flow retires.
  sim::WheelSimulation sim(13);
  nic::Port port(sim, nic::x520_config(1));
  const std::size_t n = std::size_t{1} << 18;
  FlowSet flows(n, 11);
  PerFlowSourceConfig cfg;
  cfg.total_rate_pps = 4e6;
  cfg.poisson = true;
  cfg.duration = 20 * sim::kMillisecond;
  std::uint64_t digest = 0;
  std::uint64_t count = 0;
  sim.spawn(digest_all(sim, port.rx_queue(0), digest, count));
  const PerFlowSourceArena& arena = attach_per_flow(sim, port, flows, cfg);
  EXPECT_EQ(arena.flow_count(), n);
  EXPECT_EQ(arena.armed(), 0u) << "bootstrap has not run yet";
  EXPECT_EQ(arena.fired(), 0u);
  std::uint64_t mid_fired = 0;
  sim.schedule_at(10 * sim::kMillisecond, [&] {
    std::size_t armed_flows = 0;
    std::uint64_t emitted_sum = 0;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (arena.next_fire_at(f) != PerFlowSourceArena::kIdle) {
        ++armed_flows;
        // A pending arrival is never in the past: the parked consumer
        // keeps the arena's event armed, so everything due before now was
        // delivered, and this probe was scheduled before any armed event
        // at its instant, so it runs first.
        EXPECT_GE(arena.next_fire_at(f), sim.now());
      } else {
        EXPECT_EQ(arena.next_fire_at(f), (PerFlowSourceArena::kIdle));
      }
      emitted_sum += arena.flow_fired(f);
    }
    EXPECT_EQ(armed_flows, arena.armed()) << "armed() == live next-fire lane entries";
    EXPECT_GT(armed_flows, 0u) << "mid-run: timers must be in flight";
    EXPECT_EQ(emitted_sum, arena.fired()) << "fired() == sum of the draw-state lane";
    mid_fired = arena.fired();
  });
  sim.run_until(25 * sim::kMillisecond);
  EXPECT_GT(arena.fired(), mid_fired) << "the second half of the window kept firing";
  std::size_t armed_flows = 0;
  std::uint64_t emitted_sum = 0;
  for (std::uint32_t f = 0; f < n; ++f) {
    if (arena.next_fire_at(f) != PerFlowSourceArena::kIdle) ++armed_flows;
    emitted_sum += arena.flow_fired(f);
  }
  EXPECT_EQ(arena.armed(), 0u) << "every flow retired past its end";
  EXPECT_EQ(armed_flows, 0u);
  EXPECT_EQ(emitted_sum, arena.fired());
  EXPECT_EQ(arena.fired(), count) << "nothing dropped: fired == delivered";
  EXPECT_GT(count, 10000u);
}

}  // namespace
}  // namespace metro::tgen
