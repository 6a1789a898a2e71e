// Shared helpers for the crypto substrate bench (bench_crypto) and the
// live-crypto ipsec path of bench_paper's fig16 (--crypto=live).
//
// Every number is the median of repeated trials with the IQR alongside
// (bench::sample_of), after an untimed warm-up run, and every timed loop
// folds its output into a checksum that is published through a volatile
// sink so the optimiser can delete nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "apps/ipsec.hpp"
#include "common.hpp"
#include "net/packet.hpp"
#include "net/packet_builder.hpp"
#include "nic/sim_packet.hpp"

namespace metro::bench::cryptob {

/// The fixed key/IV every crypto bench loop uses (the SP 800-38A F.2 key,
/// so the numbers are reproducible against a published vector).
inline constexpr std::array<std::uint8_t, 16> kBenchKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
inline constexpr std::array<std::uint8_t, 16> kBenchIv = {
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};

/// Sink that defeats dead-code elimination: every timed loop accumulates
/// into a checksum and stores it here.
inline volatile std::uint8_t g_sink = 0;

/// Time `fn(iters)` (which must run the operation `iters` times and
/// return a checksum byte) over `trials` repetitions, after one untimed
/// warm-up call. Returns ns-per-op samples.
template <typename Fn>
Sample time_ns_per_op(int trials, std::uint64_t iters, Fn&& fn) {
  g_sink = static_cast<std::uint8_t>(g_sink ^ fn(iters));  // warm-up, untimed
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint8_t csum = fn(iters);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = static_cast<std::uint8_t>(g_sink ^ csum);
    const double total_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ns.push_back(total_ns / static_cast<double>(iters));
  }
  return sample_of(std::move(ns));
}

/// Ratio of two per-trial ns/op medians, the "speedup" convention of
/// BENCH_crypto.json: slow/fast, > 1 means `fast` won.
inline double speedup(const Sample& slow, const Sample& fast) {
  return fast.median > 0.0 ? slow.median / fast.median : 0.0;
}

/// In-place CBC over `buf` under kBenchKey/kBenchIv, `iters` times.
/// \tparam kDecrypt false = encrypt direction.
template <typename Cbc, bool kDecrypt>
std::uint8_t cbc_loop(const Cbc& cbc, std::vector<std::uint8_t>& buf, std::uint64_t iters) {
  const std::span<const std::uint8_t, 16> iv(kBenchIv);
  for (std::uint64_t i = 0; i < iters; ++i) {
    if constexpr (kDecrypt) {
      cbc.decrypt(buf, iv, buf);
    } else {
      cbc.encrypt(buf, iv, buf);
    }
  }
  return buf[0];
}

/// HMAC-SHA1-96 tag stream over a fixed message, `iters` tags.
template <typename Hmac>
std::uint8_t hmac_loop(const Hmac& h, std::span<const std::uint8_t> msg, std::uint64_t iters) {
  std::uint8_t csum = 0;
  std::array<std::uint8_t, 12> tag{};
  for (std::uint64_t i = 0; i < iters; ++i) {
    h.compute96(msg, tag);
    csum = static_cast<std::uint8_t>(csum ^ tag[0]);
  }
  return csum;
}

/// One ESP encap+decap round trip per iteration on a fresh template copy.
template <typename Gateway>
std::uint8_t gateway_loop(Gateway& egress, Gateway& ingress, const std::vector<std::uint8_t>& inner,
                          std::uint64_t iters) {
  net::Packet pkt;
  std::uint8_t csum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    pkt.assign(inner.data(), inner.size());
    if (egress.encap(pkt) && ingress.decap(pkt)) {
      csum = static_cast<std::uint8_t>(csum ^ pkt.data()[0]);
    }
  }
  return csum;
}

/// The SA every crypto bench uses (same shape as the ipsec tests).
inline apps::SecurityAssociation bench_sa() {
  apps::SecurityAssociation sa;
  for (std::size_t i = 0; i < sa.cipher_key.size(); ++i) {
    sa.cipher_key[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t i = 0; i < sa.auth_key.size(); ++i) {
    sa.auth_key[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  sa.tunnel_src = net::ipv4_addr(203, 0, 113, 1);
  sa.tunnel_dst = net::ipv4_addr(203, 0, 113, 2);
  return sa;
}

/// Per-packet live-crypto worker for the --crypto=live bench mode: bound
/// to the drivers' nic::PacketWork hook, it runs the real ESP gateway
/// (encap on a template inner packet, then decap of the produced tunnel
/// packet) for every drained descriptor. Wall-clock work only — it never
/// touches simulated time, so simulation results are bit-identical to the
/// calibrated mode (bench_paper --crypto=live asserts exactly that).
/// \tparam Gateway apps::IpsecGateway or apps::ScalarIpsecGateway.
template <typename Gateway>
class LiveGatewayWorker {
 public:
  explicit LiveGatewayWorker(const apps::SecurityAssociation& sa, std::size_t wire_size = 64)
      : egress_(sa), ingress_(sa) {
    net::Packet tmpl;
    const net::FiveTuple tuple{net::ipv4_addr(192, 168, 1, 5), net::ipv4_addr(192, 168, 2, 9),
                               5555, 6666, net::kIpProtoUdp};
    net::build_udp_packet(tmpl, tuple, wire_size);
    inner_.assign(tmpl.data(), tmpl.data() + tmpl.size());
  }

  void operator()(const nic::PacketDesc&) {
    scratch_.assign(inner_.data(), inner_.size());
    if (egress_.encap(scratch_)) ingress_.decap(scratch_);
    ++processed_;
    g_sink = static_cast<std::uint8_t>(g_sink ^ scratch_.data()[0]);
  }

  std::uint64_t processed() const noexcept { return processed_; }

 private:
  Gateway egress_;
  Gateway ingress_;
  net::Packet scratch_;
  std::vector<std::uint8_t> inner_;
  std::uint64_t processed_ = 0;
};

}  // namespace metro::bench::cryptob
