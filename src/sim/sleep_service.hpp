/// \file sleep_service.hpp
/// Fine-grain thread sleep services (paper §III-A).
//
// The paper relies on microsecond-precision sleeps and compares two
// services: Linux `nanosleep()` (subject to the per-thread timer slack,
// minimum 1 us when configured via prctl(), 50 us by default) and the
// authors' `hr_sleep()` kernel service, which bypasses the TCB slack
// handling entirely. Fig. 1 shows both wake up a few microseconds *after*
// the requested timeout, with hr_sleep slightly tighter in mean and
// variance.
//
// Model: actual latency = requested + overhead + slack_extra + dispatch,
//   * overhead ~ Normal(mean(req), sd(req)) log-interpolated between the
//     calibrated anchors (calibration.hpp) — the cost of entering the
//     kernel, programming the hrtimer and being woken;
//   * slack_extra ~ U[0.3 s, s] for nanosleep with timer slack s (timer
//     coalescing makes late-in-window firing more likely); hr_sleep has no
//     slack;
//   * dispatch = OS run-queue latency after the timer fires: a small base,
//     an exponential extra when the target core is contended, and a rare
//     heavy tail (kernel housekeeping) — this produces the beyond-TL
//     wake-ups visible in Fig. 4.
//
// §V-C's "patched" hr_sleep returns immediately for sub-microsecond
// requests; enable via `sub_us_fast_return`.
#pragma once

#include <coroutine>

#include "sim/calibration.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace metro::sim {

/// Which OS sleep primitive the service models.
enum class SleepKind {
  kHrSleep,   ///< the paper's hr_sleep() kernel service (no timer slack)
  kNanosleep  ///< Linux nanosleep(), subject to per-thread timer slack
};

/// Tunables of the modelled sleep service.
struct SleepServiceConfig {
  /// The modelled primitive (hr_sleep by default).
  SleepKind kind = SleepKind::kHrSleep;
  /// Timer slack (nanosleep only). 1 us = prctl(PR_SET_TIMERSLACK, 1);
  /// kDefaultTimerSlack models an unconfigured thread.
  Time timer_slack = 1_us;
  /// Patched hr_sleep: requests < 1 us return after a bare syscall.
  bool sub_us_fast_return = false;
  /// Disable the rare heavy-tail dispatch events (for model-validation
  /// tests that need the pure analytical distribution).
  bool dispatch_tail = true;
};

/// Calibrated model of a microsecond-precision OS sleep: the awaitable
/// sleep() wakes the calling process after requested + overhead +
/// slack + dispatch virtual nanoseconds (see the file comment for the
/// model). One instance per simulated thread; all randomness is drawn
/// from the owning Simulation's RNG, so runs stay deterministic.
class SleepService {
 public:
  /// `core`, when given, is consulted at wake time for contention-dependent
  /// dispatch latency. Pass nullptr for an isolated core.
  SleepService(Simulation& sim, SleepServiceConfig cfg = {}, Core* core = nullptr)
      : sim_(sim), cfg_(cfg), core_(core) {}

  const SleepServiceConfig& config() const noexcept { return cfg_; }

  /// Sample the in-kernel part of the latency (timer programming +
  /// overhead + slack), excluding dispatch jitter. Deterministic given the
  /// simulation RNG state; also used directly by the Fig. 1 bench.
  Time sample_timer_latency(Time requested);

  /// Sample the dispatch (run-queue) latency applied after the timer fires.
  Time sample_dispatch_latency();

  /// Awaitable: suspend the calling process for ~`requested` ns, waking
  /// after the modelled service latency. Resumes strictly later than now.
  auto sleep(Time requested) {
    struct Awaiter {
      SleepService& svc;
      Time requested;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        SleepService* service = &svc;
        const Time timer = service->sample_timer_latency(requested);
        // Two-phase: fire the timer, then apply dispatch latency sampled at
        // wake time (contention is evaluated when the timer fires, not when
        // the sleep starts). The timer callback is 16 bytes and trivially
        // copyable, so it rides inline in the event slot; the final resume
        // is a raw-handle event — neither phase allocates. The resume is
        // the callback's last act, so when nothing can run before it the
        // callback runs it in place instead.
        service->sim_.schedule_after(timer, [service, h] {
          Simulation& sim = service->sim_;
          const Time wake = sim.now() + service->sample_dispatch_latency();
          if (sim.advance_inline(wake)) {
            h.resume();
          } else {
            sim.schedule_handle_at(wake, h);
          }
        });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, requested};
  }

 private:
  Simulation& sim_;
  SleepServiceConfig cfg_;
  Core* core_;
};

}  // namespace metro::sim
