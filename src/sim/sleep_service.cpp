#include "sim/sleep_service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

namespace metro::sim {

namespace {

/// Log-interpolate the overhead distribution between calibrated anchors.
struct Overhead {
  double mean_us;
  double sd_us;
};

/// log10 of each anchor's requested duration, taken once per table rather
/// than twice per interpolated sleep (the same libm call on the same
/// inputs, so interpolation stays bit-identical).
template <std::size_t N>
std::array<double, N> anchor_logs(const calib::SleepAnchor (&anchors)[N]) {
  std::array<double, N> logs{};
  for (std::size_t i = 0; i < N; ++i) {
    logs[i] = std::log10(static_cast<double>(anchors[i].requested));
  }
  return logs;
}

const auto kHrSleepLogs = anchor_logs(calib::kHrSleepAnchors);
const auto kNanosleepLogs = anchor_logs(calib::kNanosleepAnchors);

Overhead interpolate(std::span<const calib::SleepAnchor> anchors, std::span<const double> logs,
                     Time requested) {
  if (requested <= anchors.front().requested) {
    return {anchors.front().overhead_mean_us, anchors.front().overhead_sd_us};
  }
  if (requested >= anchors.back().requested) {
    return {anchors.back().overhead_mean_us, anchors.back().overhead_sd_us};
  }
  for (std::size_t i = 0; i + 1 < anchors.size(); ++i) {
    if (requested <= anchors[i + 1].requested) {
      const double x0 = logs[i];
      const double x1 = logs[i + 1];
      const double x = std::log10(static_cast<double>(requested));
      const double t = (x - x0) / (x1 - x0);
      return {anchors[i].overhead_mean_us +
                  t * (anchors[i + 1].overhead_mean_us - anchors[i].overhead_mean_us),
              anchors[i].overhead_sd_us +
                  t * (anchors[i + 1].overhead_sd_us - anchors[i].overhead_sd_us)};
    }
  }
  return {anchors.back().overhead_mean_us, anchors.back().overhead_sd_us};
}

}  // namespace

Time SleepService::sample_timer_latency(Time requested) {
  Rng& rng = sim_.rng();
  if (cfg_.kind == SleepKind::kHrSleep && cfg_.sub_us_fast_return && requested < 1_us) {
    // Patched fast path: bare syscall entry/exit, no timer programmed.
    return 150_ns + static_cast<Time>(rng.normal(0.0, 15.0));
  }
  const bool hr = cfg_.kind == SleepKind::kHrSleep;
  const auto anchors = hr ? std::span<const calib::SleepAnchor>(calib::kHrSleepAnchors)
                          : std::span<const calib::SleepAnchor>(calib::kNanosleepAnchors);
  const auto logs =
      hr ? std::span<const double>(kHrSleepLogs) : std::span<const double>(kNanosleepLogs);
  const Overhead oh = interpolate(anchors, logs, std::max<Time>(requested, 1));
  double latency_us = to_micros(requested) + rng.normal(oh.mean_us, oh.sd_us);
  if (cfg_.kind == SleepKind::kNanosleep && cfg_.timer_slack > 0) {
    // Timer coalescing: firing skews late within the slack window.
    latency_us += rng.uniform(0.3 * to_micros(cfg_.timer_slack), to_micros(cfg_.timer_slack));
  }
  const Time latency = from_micros(latency_us);
  return std::max<Time>(latency, 1);
}

Time SleepService::sample_dispatch_latency() {
  Rng& rng = sim_.rng();
  Time d = calib::kDispatchBase;
  if (core_ != nullptr && core_->runnable_count() > 0) {
    d += static_cast<Time>(rng.exponential(static_cast<double>(calib::kDispatchContendedMean)));
  }
  if (cfg_.dispatch_tail && rng.chance(calib::kDispatchTailProb)) {
    d += static_cast<Time>(rng.uniform(static_cast<double>(calib::kDispatchTailMin),
                                       static_cast<double>(calib::kDispatchTailMax)));
  }
  return d;
}

}  // namespace metro::sim
