// Workload generators — the MoonGen substitute.
//
// A Generator yields a monotone stream of packet descriptors (arrival
// time, flow, wire size). The paper's campaigns need:
//   * constant bit rate at line rate and fractions of it (most figures),
//   * Poisson arrivals (robustness checks),
//   * the MoonGen `rate-control-methods.lua` ramp of §V-B (rate stepped
//     every 2 s up to 14 Mpps and back down over a minute),
//   * the unbalanced flow mix of §V-F.4 (a 1000-packet trace, 30% one UDP
//     flow, 70% uniformly random flows).
//
// Flow identities come from a FlowSet which precomputes each flow's
// 5-tuple and Toeplitz RSS hash, so the hot path is hash-free.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/flow.hpp"
#include "nic/rss.hpp"
#include "nic/sim_packet.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace metro::tgen {

/// A pool of synthetic UDP flows with precomputed RSS hashes.
class FlowSet {
 public:
  FlowSet(std::size_t n_flows, std::uint64_t seed);

  std::size_t size() const noexcept { return flows_.size(); }
  const net::FiveTuple& tuple(std::uint32_t flow_id) const {
    return flows_[flow_id % flows_.size()].tuple;
  }
  /// Every picker-drawn id is in range, so the per-packet path skips the
  /// 64-bit modulo; an out-of-range id wraps as tuple() does.
  std::uint32_t rss_hash(std::uint32_t flow_id) const {
    if (flow_id < flows_.size()) [[likely]] return flows_[flow_id].rss;
    return flows_[flow_id % flows_.size()].rss;
  }

 private:
  struct Flow {
    net::FiveTuple tuple;
    std::uint32_t rss;
  };
  std::vector<Flow> flows_;
};

class Generator {
 public:
  virtual ~Generator() = default;
  /// Next packet, or nullopt when the workload is exhausted. Arrival times
  /// are non-decreasing.
  virtual std::optional<nic::PacketDesc> next() = 0;
  /// Append up to `max` packets to `out`; returns the number appended
  /// (0 = exhausted). Draws the exact stream next() would — the batched
  /// path is an amortisation, never a different workload (enforced by
  /// tests/test_tgen.cpp for every generator). The default loops next();
  /// hot generators override it to hoist the per-call virtual dispatch
  /// and state reloads out of the loop.
  virtual std::size_t next_batch(std::vector<nic::PacketDesc>& out, std::size_t max);
};

/// Picks flow ids for successive packets.
class FlowPicker {
 public:
  virtual ~FlowPicker() = default;
  virtual std::uint32_t pick(sim::Rng& rng) = 0;
};

/// Uniform over the flow set.
class UniformFlowPicker final : public FlowPicker {
 public:
  explicit UniformFlowPicker(std::uint32_t n_flows) : n_(n_flows) {}
  std::uint32_t pick(sim::Rng& rng) override {
    return static_cast<std::uint32_t>(rng.uniform_u64(n_));
  }

 private:
  std::uint32_t n_;
};

/// One heavy flow with probability `heavy_share`, uniform otherwise —
/// the §V-F.4 unbalanced trace.
class UnbalancedFlowPicker final : public FlowPicker {
 public:
  UnbalancedFlowPicker(std::uint32_t heavy_flow, double heavy_share, std::uint32_t n_flows)
      : heavy_(heavy_flow), share_(heavy_share), n_(n_flows) {}
  std::uint32_t pick(sim::Rng& rng) override {
    if (rng.chance(share_)) return heavy_;
    return static_cast<std::uint32_t>(rng.uniform_u64(n_));
  }

 private:
  std::uint32_t heavy_;
  double share_;
  std::uint32_t n_;
};

/// Time-varying rate profile (packets per second) for ramp workloads.
class RateProfile {
 public:
  virtual ~RateProfile() = default;
  virtual double rate_at(sim::Time t) const = 0;
};

/// MoonGen rate-control ramp: step up every `step` until `peak_pps` at
/// the midpoint, then step back down (§V-B: 2 s steps, 14 Mpps peak at
/// ~30 s of a one-minute run).
class RampProfile final : public RateProfile {
 public:
  RampProfile(double floor_pps, double peak_pps, sim::Time step, sim::Time total)
      : floor_(floor_pps), peak_(peak_pps), step_(step), total_(total) {}

  double rate_at(sim::Time t) const override;

 private:
  double floor_;
  double peak_;
  sim::Time step_;
  sim::Time total_;
};

struct StreamConfig {
  double rate_pps = 14.88e6;
  std::uint16_t wire_size = 64;
  /// Draw sizes from the simple-IMIX mix (64/570/1518 at 7:4:1) instead of
  /// the fixed wire_size — used by the Appendix-II size-independence check.
  bool imix = false;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
  bool poisson = false;      // exponential vs constant inter-arrival
  std::uint64_t seed = 42;
};

/// CBR or Poisson stream over a flow set.
class StreamGenerator final : public Generator {
 public:
  StreamGenerator(StreamConfig cfg, const FlowSet& flows, std::unique_ptr<FlowPicker> picker);

  std::optional<nic::PacketDesc> next() override;
  /// Bulk variant with the per-packet draw sequence of next(), minus the
  /// per-packet virtual call — the feeder's steady-state path.
  std::size_t next_batch(std::vector<nic::PacketDesc>& out, std::size_t max) override;

 private:
  StreamConfig cfg_;
  const FlowSet& flows_;
  std::unique_ptr<FlowPicker> picker_;
  sim::Rng rng_;
  sim::Time t_;
  sim::Time gap_;
};

/// Stream whose instantaneous rate follows a RateProfile (re-evaluated per
/// packet). Zero-rate intervals are skipped in 1 ms hops.
class ProfileGenerator final : public Generator {
 public:
  ProfileGenerator(const RateProfile& profile, sim::Time duration, std::uint16_t wire_size,
                   const FlowSet& flows, std::unique_ptr<FlowPicker> picker,
                   std::uint64_t seed = 42);

  std::optional<nic::PacketDesc> next() override;

 private:
  const RateProfile& profile_;
  sim::Time duration_;
  std::uint16_t wire_size_;
  const FlowSet& flows_;
  std::unique_ptr<FlowPicker> picker_;
  sim::Rng rng_;
  sim::Time t_ = 0;
};

}  // namespace metro::tgen
