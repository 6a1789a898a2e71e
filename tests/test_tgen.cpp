// Traffic generation: CBR/Poisson streams, ramp profile, flow mixes, feeder.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nic/port.hpp"
#include "sim/simulation.hpp"
#include "tgen/bursty.hpp"
#include "tgen/feeder.hpp"
#include "tgen/generator.hpp"
#include "tgen/trace.hpp"

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
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(8));
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
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(8));
  int count = 0;
  while (gen.next()) ++count;
  EXPECT_NEAR(count, 100000, 2000);
}

TEST(StreamGeneratorTest, ZeroRateProducesNothing) {
  FlowSet flows(8, 1);
  StreamConfig cfg;
  cfg.rate_pps = 0.0;
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(8));
  EXPECT_FALSE(gen.next().has_value());
}

TEST(StreamGeneratorTest, RssHashMatchesFlowSet) {
  FlowSet flows(4, 1);
  StreamConfig cfg;
  cfg.duration = 10 * sim::kMicrosecond;
  cfg.rate_pps = 1e6;
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(4));
  while (auto pkt = gen.next()) {
    EXPECT_EQ(pkt->rss_hash, flows.rss_hash(pkt->flow_id));
  }
}

TEST(UnbalancedPickerTest, HeavyShareRespected) {
  sim::Rng rng(2);
  UnbalancedFlowPicker picker(0, 0.3, 1000);
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
  ProfileGenerator gen(ramp, sim::kSecond, 64, flows, std::make_unique<UniformFlowPicker>(8));
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
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(16));
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
  StreamGenerator gen(cfg, flows, std::make_unique<UniformFlowPicker>(4));
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

/// `make` builds a fresh, identically-seeded generator on every call.
void check_batched_equivalence(const std::function<std::unique_ptr<Generator>()>& make) {
  std::vector<nic::PacketDesc> reference;
  {
    auto gen = make();
    while (auto pkt = gen->next()) reference.push_back(*pkt);
  }
  ASSERT_GT(reference.size(), 100u) << "workload too small to exercise batching";

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
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
                                             std::make_unique<UniformFlowPicker>(32));
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
        cfg, flows, std::make_unique<UnbalancedFlowPicker>(0, 0.3, 32));
  });
}

TEST(NextBatchTest, ProfileMatchesUnbatched) {
  FlowSet flows(16, 3);
  static const RampProfile ramp(0.2e6, 2e6, 2 * sim::kMillisecond, 10 * sim::kMillisecond);
  check_batched_equivalence([&] {
    return std::make_unique<ProfileGenerator>(ramp, 10 * sim::kMillisecond, 64, flows,
                                              std::make_unique<UniformFlowPicker>(16));
  });
}

TEST(NextBatchTest, MmppMatchesUnbatched) {
  FlowSet flows(32, 3);
  check_batched_equivalence([&] {
    MmppConfig cfg;
    cfg.mean_rate_pps = 1e6;
    cfg.duration = 2 * sim::kMillisecond;
    return std::make_unique<MmppGenerator>(cfg, flows, std::make_unique<UniformFlowPicker>(32));
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
// PerFlowSourceArena is the million-flow form of attach_per_flow_sources:
// packed SoA lanes and a private arrival calendar merged into the kernel's
// order instead of one coroutine frame and one pending kernel event per
// flow. The contract is bit-identical execution — the consumer below
// digests every delivered packet (fields and delivery instant), and the
// digest and the delivery count must match between the two attach paths,
// on either event store.

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
  /// The sources attach once the simulation reaches this instant.
  Time attach_at = 0;
  nic::PortConfig port = nic::x520_config(1);
};

/// Attach functions for run_per_flow. Each returns what must stay alive
/// for the run; run_per_flow holds it inside the simulation's lifetime.
struct AttachCoroutines {
  int operator()(sim::Simulation& sim, nic::Port& port, const FlowSet& flows,
                 PerFlowSourceConfig cfg) const {
    attach_per_flow_sources(sim, port, flows, cfg);
    return 0;
  }
};
struct AttachArena {
  std::unique_ptr<PerFlowSourceArena> operator()(sim::Simulation& sim, nic::Port& port,
                                                 const FlowSet& flows,
                                                 PerFlowSourceConfig cfg) const {
    return std::make_unique<PerFlowSourceArena>(sim, port, flows, cfg);
  }
};

template <typename Sim, typename AttachFn>
PerFlowRun run_per_flow(AttachFn&& attach_fn, const PerFlowCase& c = {}) {
  Sim sim(7);
  nic::Port port(sim, c.port);
  FlowSet flows(c.flows, 11);
  PerFlowRun r;
  sim.spawn(digest_all(sim, port.rx_queue(0), r.digest, r.count));
  sim.run_until(c.attach_at);
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
        auto holder = AttachArena{}(sim, port, flows, cfg);
        sim.schedule_at(24 * sim::kMillisecond, [&, a = holder.get()] {
          arena_flows = a->flow_count();
          arena_armed = a->armed();
          arena_fired = a->fired();
        });
        return holder;
      });
  EXPECT_GT(coroutine.count, 10000u);
  // The delivered packet stream — fields and delivery instants — is
  // bit-identical. events_processed legitimately differs: one bootstrap
  // event replaces the n per-flow spawn resumes.
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

TEST(PerFlowArenaTest, ClampedArmsMatchOracle) {
  // 2^16 flows attached at 20 ms, past start + the 16.4 ms mean per-flow
  // gap: every phase arm clamps to the attach instant, and the flows
  // whose planned phase + gap is still behind it fire again there. Each
  // next gap is drawn from the planned instant, as the coroutine does.
  PerFlowCase c;
  c.flows = std::size_t{1} << 16;
  c.cfg.total_rate_pps = 4e6;
  c.cfg.duration = 40 * sim::kMillisecond;
  c.run_until = 45 * sim::kMillisecond;
  c.attach_at = 20 * sim::kMillisecond;
  expect_arena_matches_oracle(c, 60'000);
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
  PerFlowSourceArena arena(sim, port, flows, cfg);
  EXPECT_EQ(arena.flow_count(), n);
  EXPECT_EQ(arena.armed(), 0u) << "bootstrap has not run yet";
  EXPECT_EQ(arena.fired(), 0u);
  std::uint64_t mid_fired = 0;
  sim.schedule_at(10 * sim::kMillisecond, [&] {
    std::size_t armed_flows = 0;
    std::uint64_t emitted_sum = 0;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (arena.flow_armed(f)) {
        ++armed_flows;
        // A pending timer is never in the past (same-instant sampling is
        // safe: this probe was scheduled before bootstrap, so it holds
        // the lower sequence number and runs first).
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
    if (arena.flow_armed(f)) ++armed_flows;
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
