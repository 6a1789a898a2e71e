// Microbenchmarks of the substrates (google-benchmark).
//
// These are sanity anchors for the calibration constants: the functional
// implementations should be in the same order of magnitude as the per-
// packet costs charged inside the simulator (on this container's CPU, not
// the paper's Xeon Silver).
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/flowatcher.hpp"
#include "apps/ipsec.hpp"
#include "apps/l3fwd.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha1.hpp"
#include "net/exact_match.hpp"
#include "net/lpm.hpp"
#include "nic/rss.hpp"
#include "rt/spsc_ring.hpp"
#include "rt/trylock.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

using namespace metro;

namespace {

void BM_LpmLookup(benchmark::State& state) {
  net::LpmTable lpm;
  sim::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    lpm.add(static_cast<std::uint32_t>(rng.next_u64()), 8 + static_cast<int>(rng.uniform_u64(17)),
            static_cast<std::uint16_t>(i));
  }
  std::uint32_t probe = 0x0a000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpm.lookup(probe));
    probe = probe * 2654435761u + 1;
  }
}
BENCHMARK(BM_LpmLookup);

void BM_CuckooFind(benchmark::State& state) {
  struct H {
    std::uint64_t operator()(const net::FiveTuple& t) const { return net::flow_hash(t); }
  };
  net::CuckooTable<net::FiveTuple, std::uint32_t, H> table(4096);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    table.insert(net::FiveTuple{i, ~i, 1, 2, 17}, i);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(net::FiveTuple{i % 3000, ~(i % 3000), 1, 2, 17}));
    ++i;
  }
}
BENCHMARK(BM_CuckooFind);

void BM_ToeplitzHash(benchmark::State& state) {
  std::uint32_t s = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nic::rss_hash_ipv4(s, ~s, 1000, 2000));
    ++s;
  }
}
BENCHMARK(BM_ToeplitzHash);

void BM_AesCbcEncrypt(benchmark::State& state) {
  std::array<std::uint8_t, 16> key{};
  for (std::size_t i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  crypto::AesCbc cbc{std::span<const std::uint8_t, 16>(key)};
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)), 0xab);
  const std::array<std::uint8_t, 16> iv{};
  for (auto _ : state) {
    cbc.encrypt(buf, std::span<const std::uint8_t, 16>(iv), buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(64)->Arg(1504);

void BM_HmacSha1(benchmark::State& state) {
  std::vector<std::uint8_t> key(20, 0x0b);
  crypto::HmacSha1 hmac(key);
  std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac.compute96(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(1504);

void BM_L3fwdProcess(benchmark::State& state) {
  apps::L3Forwarder fwd(apps::L3Forwarder::Mode::kLpm);
  fwd.add_port({0, {}, {}});
  fwd.add_route(net::ipv4_addr(10, 0, 0, 0), 8, 0);
  net::Packet pkt;
  const net::FiveTuple t{net::ipv4_addr(198, 18, 0, 1), net::ipv4_addr(10, 1, 2, 3), 1000, 2000,
                         net::kIpProtoUdp};
  for (auto _ : state) {
    state.PauseTiming();
    apps::build_udp_packet(pkt, t, 64, 64);
    state.ResumeTiming();
    benchmark::DoNotOptimize(fwd.process(pkt));
  }
}
BENCHMARK(BM_L3fwdProcess);

void BM_IpsecEncapDecap(benchmark::State& state) {
  apps::SecurityAssociation sa;
  sa.tunnel_src = net::ipv4_addr(1, 1, 1, 1);
  sa.tunnel_dst = net::ipv4_addr(2, 2, 2, 2);
  apps::IpsecGateway egress(sa), ingress(sa);
  net::Packet pkt;
  const net::FiveTuple t{net::ipv4_addr(198, 18, 0, 1), net::ipv4_addr(10, 1, 2, 3), 1000, 2000,
                         net::kIpProtoUdp};
  for (auto _ : state) {
    state.PauseTiming();
    apps::build_udp_packet(pkt, t, 64, 64);
    state.ResumeTiming();
    benchmark::DoNotOptimize(egress.encap(pkt));
    benchmark::DoNotOptimize(ingress.decap(pkt));
  }
}
BENCHMARK(BM_IpsecEncapDecap);

void BM_FloWatcherObserve(benchmark::State& state) {
  apps::FloWatcher fw(1 << 14);
  std::uint32_t i = 0;
  for (auto _ : state) {
    fw.observe_flow(net::FiveTuple{i % 4096, 1, 2, 3, 17}, 64, static_cast<std::int64_t>(i));
    ++i;
  }
}
BENCHMARK(BM_FloWatcherObserve);

void BM_SpscRingPushPop(benchmark::State& state) {
  rt::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t buf[32];
  std::uint64_t v = 0;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) ring.push(v++);
    benchmark::DoNotOptimize(ring.pop_burst(buf, 32));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SpscRingPushPop);

void BM_TryLockUncontended(benchmark::State& state) {
  rt::TryLock lock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.try_lock());
    lock.unlock();
  }
}
BENCHMARK(BM_TryLockUncontended);

void BM_HistogramAdd(benchmark::State& state) {
  stats::Histogram h(0.05, 5000.0);
  double v = 0.0;
  for (auto _ : state) {
    h.add(v);
    v += 0.37;
    if (v > 4000.0) v = 0.0;
  }
}
BENCHMARK(BM_HistogramAdd);

// One sample per packet on the latency path. The summary is forced to
// memory every iteration, as it is between the simulator's callbacks, so
// each add waits on the previous one: this times the update's latency.
void BM_SummaryAdd(benchmark::State& state) {
  stats::Summary s;
  double v = 0.0;
  for (auto _ : state) {
    s.add(v);
    benchmark::DoNotOptimize(s);
    v += 0.37;
    if (v > 4000.0) v = 0.0;
  }
}
BENCHMARK(BM_SummaryAdd);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Events dispatched per second by the DES kernel.
  for (auto _ : state) {
    sim::Simulation sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace

BENCHMARK_MAIN();
