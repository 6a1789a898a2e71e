#include "tgen/bursty.hpp"

#include <algorithm>
#include <cmath>

namespace metro::tgen {

using sim::Time;

// --- MMPP -------------------------------------------------------------------

MmppGenerator::MmppGenerator(MmppConfig cfg, const FlowSet& flows, FlowPicker picker)
    : cfg_(cfg),
      flows_(flows),
      picker_(picker),
      rng_(cfg.seed),
      t_(cfg.start),
      state_end_(cfg.start) {}

std::optional<nic::PacketDesc> MmppGenerator::next() {
  const Time end = cfg_.start + cfg_.duration;
  while (t_ < end) {
    if (t_ >= state_end_) {
      // Dwell expired: flip state and draw the next dwell. The first call
      // lands here too (state_end_ == start), so the process begins with a
      // fresh ON dwell.
      on_ = state_end_ == cfg_.start ? true : !on_;
      const double mean_dwell =
          static_cast<double>(on_ ? cfg_.shape.mean_on : cfg_.shape.mean_off);
      state_end_ = t_ + std::max<Time>(1, static_cast<Time>(rng_.exponential(mean_dwell)));
    }
    const double rate =
        cfg_.mean_rate_pps * (on_ ? cfg_.shape.on_factor : cfg_.shape.off_factor);
    if (rate <= 0.0) {
      t_ = state_end_;  // silent state: skip to the next transition
      continue;
    }
    const Time gap = std::max<Time>(1, static_cast<Time>(rng_.exponential(1e9 / rate)));
    if (t_ + gap >= state_end_) {
      // The draw crosses the state boundary; Poisson memorylessness lets us
      // discard it and redraw from the boundary in the new state.
      t_ = state_end_;
      continue;
    }
    t_ += gap;
    if (t_ >= end) break;  // the dwell ran past the horizon mid-gap
    nic::PacketDesc pkt;
    pkt.arrival = t_;
    pkt.flow_id = picker_.pick(rng_);
    pkt.rss_hash = flows_.rss_hash(pkt.flow_id);
    pkt.wire_size = cfg_.wire_size;
    return pkt;
  }
  return std::nullopt;
}

// --- Pareto flow trains -----------------------------------------------------

ParetoTrainGenerator::ParetoTrainGenerator(ParetoTrainConfig cfg, const FlowSet& flows)
    : cfg_(cfg),
      flows_(flows),
      rng_(cfg.seed),
      t_(cfg.start),
      gap_(cfg.rate_pps > 0 ? static_cast<Time>(1e9 / cfg.rate_pps) : 0) {}

void ParetoTrainGenerator::next_train() {
  flow_ = static_cast<std::uint32_t>(rng_.uniform_u64(flows_.size()));
  // Pareto mean is xm * alpha / (alpha - 1); invert so mean_train is the
  // actual mean train length (alpha must be > 1 for the mean to exist).
  const double alpha = std::max(1.0001, cfg_.shape.alpha);
  const double xm = cfg_.shape.mean_train * (alpha - 1.0) / alpha;
  const double draw = rng_.pareto(xm, alpha);
  remaining_ = std::clamp<std::uint64_t>(static_cast<std::uint64_t>(draw), 1,
                                         cfg_.shape.max_train);
}

std::optional<nic::PacketDesc> ParetoTrainGenerator::next() {
  if (gap_ == 0 || t_ >= cfg_.start + cfg_.duration) return std::nullopt;
  if (remaining_ == 0) next_train();
  nic::PacketDesc pkt;
  pkt.arrival = t_;
  pkt.flow_id = flow_;
  pkt.rss_hash = flows_.rss_hash(flow_);
  pkt.wire_size = cfg_.wire_size;
  --remaining_;
  t_ += gap_;
  return pkt;
}

// --- Synchronized incast ----------------------------------------------------

IncastGenerator::IncastGenerator(IncastConfig cfg, const FlowSet& flows)
    : cfg_(cfg),
      flows_(flows),
      rng_(cfg.seed),
      epoch_start_(cfg.start),
      epoch_packets_(cfg.shape.fan_in * cfg.shape.burst_per_sender) {
  const double per_epoch = static_cast<double>(epoch_packets_);
  period_ = cfg.rate_pps > 0 ? static_cast<Time>(1e9 * per_epoch / cfg.rate_pps) : 0;
  // A period shorter than the burst itself would make arrivals overlap the
  // next epoch (and regress); keep at least the burst span.
  period_ = std::max<Time>(period_, static_cast<Time>(epoch_packets_) * cfg.shape.intra_gap + 1);
  base_flow_ = static_cast<std::uint32_t>(rng_.uniform_u64(flows_.size()));
}

std::optional<nic::PacketDesc> IncastGenerator::next() {
  if (period_ == 0 || epoch_packets_ == 0) return std::nullopt;
  if (index_ == epoch_packets_) {
    epoch_start_ += period_;
    index_ = 0;
    base_flow_ = static_cast<std::uint32_t>(rng_.uniform_u64(flows_.size()));
  }
  if (epoch_start_ >= cfg_.start + cfg_.duration) return std::nullopt;
  // Interleave senders round-robin so consecutive packets hit different
  // flows (and thus, via RSS, different queues) — the worst case for a
  // shared ring, which is the point of incast.
  const std::uint32_t sender = index_ % cfg_.shape.fan_in;
  nic::PacketDesc pkt;
  pkt.arrival = epoch_start_ + static_cast<Time>(index_) * cfg_.shape.intra_gap;
  // An epoch straddling the horizon is truncated: the stream's contract
  // (like every generator here) is that no arrival lands past duration.
  if (pkt.arrival >= cfg_.start + cfg_.duration) return std::nullopt;
  pkt.flow_id = (base_flow_ + sender) % static_cast<std::uint32_t>(flows_.size());
  pkt.rss_hash = flows_.rss_hash(pkt.flow_id);
  pkt.wire_size = cfg_.wire_size;
  ++index_;
  return pkt;
}

}  // namespace metro::tgen
