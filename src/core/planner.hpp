// Deployment planner: closed-form predictions from the §IV model.
//
// Given a Metronome configuration and an expected load, predict the
// steady-state operating point — rho, TS, mean vacation, wake-up rate, CPU
// usage and a worst-case buffering bound — without running anything. The
// simulator cross-validates these predictions (tests/test_planner.cpp), and
// operators can use them to size M / V-bar for a deployment the same way
// §IV-D reasons about the trade-off.
#pragma once

#include <cmath>
#include <string>

#include "core/model.hpp"
#include "sim/calibration.hpp"
#include "sim/time.hpp"
#include "stats/metric_set.hpp"

namespace metro::core {

struct PlannerInput {
  int n_threads = 3;        // M
  int n_queues = 1;         // N
  double target_vacation_us = 10.0;
  double long_timeout_us = 500.0;
  double rate_pps = 14.88e6;           // offered load (aggregate)
  double service_rate_pps = 1e9 / static_cast<double>(sim::calib::kL3fwdPerPacketCost);
  /// Fixed CPU cost charged per wake-up (sleep syscall, trylock, poll).
  double wakeup_overhead_us =
      sim::to_micros(sim::calib::kWakeupOverheadCost + sim::calib::kTrylockCost +
                     sim::calib::kEmptyPollCost);
  /// Mean sleep-service overhead added to every timeout (Fig. 1).
  double sleep_overhead_us = 3.5;
};

struct PlannerOutput {
  double rho = 0.0;            // per-queue load
  double ts_us = 0.0;          // adaptive short timeout, eq. 13/14
  double mean_vacation_us = 0.0;
  double mean_busy_us = 0.0;   // eq. 3
  double nv = 0.0;             // packets per vacation (Little)
  double wakeups_per_sec = 0.0;
  double cpu_percent = 0.0;    // all threads, 100 = one core
  /// Worst-case buffering delay for a packet arriving right after a
  /// release: one full vacation plus the time to drain the backlog ahead
  /// of it (§IV-D's worst-case argument), ignoring scheduling tails.
  double worst_case_delay_us = 0.0;

  /// Attach every predicted observable as a gauge under `prefix`, so a
  /// plan can be snapshotted, fingerprinted and reported through the same
  /// telemetry path as the measured sets it predicts.
  void register_metrics(stats::MetricSet& set, const std::string& prefix) {
    set.attach_gauge(prefix + ".rho", rho);
    set.attach_gauge(prefix + ".ts_us", ts_us);
    set.attach_gauge(prefix + ".mean_vacation_us", mean_vacation_us);
    set.attach_gauge(prefix + ".mean_busy_us", mean_busy_us);
    set.attach_gauge(prefix + ".nv", nv);
    set.attach_gauge(prefix + ".wakeups_per_sec", wakeups_per_sec);
    set.attach_gauge(prefix + ".cpu_percent", cpu_percent);
    set.attach_gauge(prefix + ".worst_case_delay_us", worst_case_delay_us);
  }
};

inline PlannerOutput plan(const PlannerInput& in) {
  PlannerOutput out;
  const double per_queue_rate = in.rate_pps / in.n_queues;
  out.rho = per_queue_rate / in.service_rate_pps;
  if (out.rho >= 1.0) {
    // Saturated: one thread per queue drains continuously.
    out.rho = 1.0;
    out.cpu_percent = 100.0 * in.n_queues;
    out.ts_us = in.target_vacation_us;
    return out;
  }

  out.ts_us = model::ts_for_target_multiqueue(in.target_vacation_us, out.rho, in.n_threads,
                                              in.n_queues);
  const double ts_eff_us = out.ts_us + in.sleep_overhead_us;  // what threads really sleep

  // Effective number of co-primaries per queue. The §IV-C model assumes a
  // thread is primary with probability 1 - rho; in practice a non-anchor
  // primary *drops out* to the backup role whenever one of its wake-ups
  // lands in a busy period (probability rho per wake) and only returns
  // after ~TL/(1 - rho). Its duty cycle as a primary is therefore
  //   f = (TS_eff/rho) / (TS_eff/rho + TL/(1 - rho)),
  // which converges to the model's 1 - rho behaviour at rho -> 0 and to a
  // single anchor primary at high load.
  const double threads_per_queue = static_cast<double>(in.n_threads) / in.n_queues;
  double primary_duty = 1.0;
  if (out.rho > 1e-9) {
    const double t_primary = ts_eff_us / out.rho;
    const double t_backup = in.long_timeout_us / std::max(1e-9, 1.0 - out.rho);
    primary_duty = t_primary / (t_primary + t_backup);
  }
  const double co_primaries = 1.0 + std::max(0.0, threads_per_queue - 1.0) * primary_duty;

  out.mean_vacation_us = ts_eff_us / co_primaries;
  out.mean_busy_us = model::busy_given_vacation(out.mean_vacation_us, out.rho);
  out.nv = per_queue_rate / 1e6 * out.mean_vacation_us;  // lambda * E[V]

  // Wake-up rate: co-primaries cycle on TS_eff (plus their busy time);
  // the remaining threads cycle on TL.
  const double cycle_us = ts_eff_us + out.mean_busy_us * co_primaries / threads_per_queue;
  const double primary_wakes = co_primaries * in.n_queues * 1e6 / cycle_us;
  const double backups = std::max(0.0, threads_per_queue - co_primaries) * in.n_queues;
  const double backup_wakes = backups * 1e6 / in.long_timeout_us;
  out.wakeups_per_sec = primary_wakes + backup_wakes;

  // CPU: packet work + per-wake overhead.
  const double drain_fraction = in.rate_pps / in.service_rate_pps;
  out.cpu_percent =
      100.0 * (drain_fraction + out.wakeups_per_sec * in.wakeup_overhead_us / 1e6);

  // Worst case: a full vacation, then the backlog NV ahead of the packet.
  out.worst_case_delay_us =
      out.mean_vacation_us + out.nv / (in.service_rate_pps / 1e6) + in.sleep_overhead_us;
  return out;
}

}  // namespace metro::core
