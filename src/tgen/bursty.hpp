/// \file bursty.hpp
/// Bursty / heavy-tail workload generators beyond CBR and Poisson.
///
/// The paper's campaigns run smooth arrivals (CBR, Poisson, the §V-B
/// ramp); real deployments see correlated bursts. Three generators widen
/// the scenario registry (src/scenario/) accordingly:
///
///   * MmppGenerator       — a 2-state Markov-modulated Poisson process
///                           (ON/OFF bursty arrivals): exponential dwell
///                           times in a high-rate and a low-rate state.
///   * ParetoTrainGenerator— heavy-tail flow-size mix: flows send
///                           back-to-back packet trains whose lengths are
///                           Pareto distributed, so a few elephant trains
///                           carry most packets.
///   * IncastGenerator     — synchronized incast: every epoch a fan-in of
///                           senders fires a burst at the same instant,
///                           the pattern that overruns shallow Rx rings.
///
/// All three implement tgen::Generator (pull-based, non-decreasing
/// arrival times) and own a private sim::Rng seeded explicitly, so the
/// stream a feeder pulls is a pure function of the config — bit-identical
/// across event-queue backends and across sweep worker counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "tgen/generator.hpp"

namespace metro::tgen {

/// Shape knobs of the 2-state MMPP, expressed relative to the mean rate
/// so the headline rate stays the sweepable knob. The long-run rate is
/// mean_rate * (on_factor * duty + off_factor * (1 - duty)) with
/// duty = mean_on / (mean_on + mean_off); the defaults keep the
/// configured mean exactly: 3.7 * 0.25 + 0.1 * 0.75 == 1.
struct MmppShape {
  double on_factor = 3.7;   ///< ON-state rate = on_factor * mean rate.
  double off_factor = 0.1;  ///< OFF-state rate (0 = pure ON/OFF silence).
  sim::Time mean_on = 100 * sim::kMicrosecond;   ///< mean ON dwell (exponential)
  sim::Time mean_off = 300 * sim::kMicrosecond;  ///< mean OFF dwell (exponential)
};

struct MmppConfig {
  double mean_rate_pps = 10e6;  ///< headline (long-run average) rate
  MmppShape shape{};
  std::uint16_t wire_size = 64;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
  std::uint64_t seed = 42;
};

/// 2-state MMPP / ON-OFF arrival process over a flow set.
class MmppGenerator final : public Generator {
 public:
  MmppGenerator(MmppConfig cfg, const FlowSet& flows, FlowPicker picker);

  std::optional<nic::PacketDesc> next() override;

 private:
  MmppConfig cfg_;
  const FlowSet& flows_;
  FlowPicker picker_;
  sim::Rng rng_;
  sim::Time t_;
  sim::Time state_end_;
  bool on_ = true;
};

/// Shape knobs of the heavy-tail flow-train mix.
struct ParetoTrainShape {
  double alpha = 1.3;        ///< Pareto shape; <2 puts most mass in few trains
  double mean_train = 16.0;  ///< mean packets per train (sets the scale xm)
  std::uint64_t max_train = 1u << 20;  ///< truncation so one draw cannot stall a sweep
};

struct ParetoTrainConfig {
  double rate_pps = 10e6;  ///< aggregate CBR packet rate
  ParetoTrainShape shape{};
  std::uint16_t wire_size = 64;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
  std::uint64_t seed = 42;
};

/// Heavy-tail flow-size mix: the aggregate stream is CBR at `rate_pps`,
/// but consecutive packets belong to the *same* flow for a Pareto-sized
/// train before a fresh flow (uniform over the set) takes over.
class ParetoTrainGenerator final : public Generator {
 public:
  ParetoTrainGenerator(ParetoTrainConfig cfg, const FlowSet& flows);

  std::optional<nic::PacketDesc> next() override;

 private:
  void next_train();

  ParetoTrainConfig cfg_;
  const FlowSet& flows_;
  sim::Rng rng_;
  sim::Time t_;
  sim::Time gap_;
  std::uint32_t flow_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Shape knobs of the synchronized incast pattern. The epoch period is
/// derived from the headline rate: period = fan_in * burst_per_sender /
/// rate, so rate sweeps stretch or squeeze the silence between bursts
/// while each burst stays back-to-back at wire speed.
struct IncastShape {
  std::uint32_t fan_in = 32;           ///< senders per epoch
  std::uint32_t burst_per_sender = 8;  ///< packets each sender contributes
  sim::Time intra_gap = 67;            ///< ns between packets inside a burst (~64B line rate)
};

struct IncastConfig {
  double rate_pps = 5e6;  ///< long-run average rate (sets the epoch period)
  IncastShape shape{};
  std::uint16_t wire_size = 64;
  sim::Time start = 0;
  sim::Time duration = sim::kSecond;
  std::uint64_t seed = 42;
};

/// Synchronized incast: every epoch, `fan_in` flows (a random contiguous
/// window of the flow set) each contribute `burst_per_sender` packets,
/// interleaved round-robin and spaced `intra_gap` apart — the whole
/// fan-in lands within one ring-sized instant, then the line goes silent
/// until the next epoch.
class IncastGenerator final : public Generator {
 public:
  IncastGenerator(IncastConfig cfg, const FlowSet& flows);

  std::optional<nic::PacketDesc> next() override;

 private:
  IncastConfig cfg_;
  const FlowSet& flows_;
  sim::Rng rng_;
  sim::Time epoch_start_;
  sim::Time period_;
  std::uint32_t base_flow_ = 0;
  std::uint32_t index_ = 0;       // packet index within the epoch
  std::uint32_t epoch_packets_;   // fan_in * burst_per_sender
};

}  // namespace metro::tgen
