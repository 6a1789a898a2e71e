#include "rt/metronome_rt.hpp"

#include <random>

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace metro::rt {

MetronomeRt::MetronomeRt(RtConfig cfg) : cfg_(cfg), rate_pps_(cfg.rate_pps) {
  queues_.reserve(static_cast<std::size_t>(cfg_.n_queues));
  for (int q = 0; q < cfg_.n_queues; ++q) {
    auto state = std::make_unique<RtQueueState>();
    state->ring = std::make_unique<SpscRing<RtPacket>>(cfg_.ring_capacity);
    state->ts_us.store(cfg_.adaptive
                           ? cfg_.target_vacation_us * cfg_.n_threads / cfg_.n_queues
                           : cfg_.fixed_ts_us);
    queues_.push_back(std::move(state));
  }
  worker_stats_.reserve(static_cast<std::size_t>(cfg_.n_threads));
  for (int t = 0; t < cfg_.n_threads; ++t) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  }
}

MetronomeRt::~MetronomeRt() {
  if (running_.load()) stop();
}

namespace {
double process_cpu_seconds() {
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
#else
  return 0.0;
#endif
}
}  // namespace

void MetronomeRt::start() {
  cpu_seconds_at_start_ = process_cpu_seconds();
  wall_ns_at_start_ = monotonic_ns();
  running_.store(true, std::memory_order_release);
  producer_ = std::thread([this] { producer_loop(); });
  for (int t = 0; t < cfg_.n_threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

void MetronomeRt::producer_loop() {
  set_min_timer_slack();
  std::mt19937_64 rng(12345);
  std::int64_t next_send = monotonic_ns();
  while (running_.load(std::memory_order_acquire)) {
    const double rate = rate_pps_.load(std::memory_order_relaxed);
    if (rate <= 0.0) {
      hr_sleep(100'000);
      next_send = monotonic_ns();
      continue;
    }
    const auto gap = static_cast<std::int64_t>(1e9 / rate);
    const std::int64_t now = monotonic_ns();
    if (now < next_send) {
      // Hybrid pacing: sleep for coarse gaps, spin for the rest.
      if (next_send - now > 50'000) hr_sleep(next_send - now - 20'000);
      while (monotonic_ns() < next_send && running_.load(std::memory_order_relaxed)) {
      }
    }
    RtPacket pkt;
    pkt.arrival_ns = monotonic_ns();
    pkt.flow_id = static_cast<std::uint32_t>(rng());
    const int q = cfg_.n_queues > 1
                      ? static_cast<int>(pkt.flow_id % static_cast<std::uint32_t>(cfg_.n_queues))
                      : 0;
    queues_[static_cast<std::size_t>(q)]->ring->push(pkt);
    ++producer_pushed_;
    next_send += gap;
    // If we fell behind (scheduled out), resynchronize instead of bursting.
    if (monotonic_ns() - next_send > 10'000'000) next_send = monotonic_ns();
  }
}

void MetronomeRt::worker_loop(int thread_id) {
  set_min_timer_slack();
  WorkerStats& my = *worker_stats_[static_cast<std::size_t>(thread_id)];
  std::mt19937_64 rng(777 + static_cast<std::uint64_t>(thread_id));
  std::vector<RtPacket> burst(static_cast<std::size_t>(cfg_.burst));
  int curr = thread_id % cfg_.n_queues;

  while (running_.load(std::memory_order_acquire)) {
    RtQueueState& q = *queues_[static_cast<std::size_t>(curr)];
    q.total_tries.fetch_add(1, std::memory_order_relaxed);

    if (!q.lock.try_lock()) {
      q.busy_tries.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.n_queues > 1) {
        curr = static_cast<int>(rng() % static_cast<std::uint64_t>(cfg_.n_queues));
      }
      hr_sleep(static_cast<std::int64_t>(cfg_.long_timeout_us * 1e3));
      continue;
    }

    // --- busy period ---------------------------------------------------
    const std::int64_t acquire = monotonic_ns();
    const std::int64_t last_release = q.last_release_ns.load(std::memory_order_relaxed);

    std::uint64_t drained = 0;
    int n;
    // Stop check before the pop: a burst popped after stop() must still be
    // counted, or the conservation audit in stop() comes up short.
    while (running_.load(std::memory_order_relaxed) &&
           (n = q.ring->pop_burst(burst.data(), cfg_.burst)) > 0) {
      const std::int64_t t_pop = monotonic_ns();
      for (int i = 0; i < n; ++i) {
        my.latency_us.add(static_cast<double>(t_pop - burst[static_cast<std::size_t>(i)].arrival_ns) /
                          1e3);
      }
      drained += static_cast<std::uint64_t>(n);
    }
    const std::int64_t release = monotonic_ns();
    q.last_release_ns.store(release, std::memory_order_relaxed);
    packets_consumed_.fetch_add(drained, std::memory_order_relaxed);

    double ts_us = q.ts_us.load(std::memory_order_relaxed);
    if (last_release >= 0) {
      const double vacation_us = static_cast<double>(acquire - last_release) / 1e3;
      const double busy_us = static_cast<double>(release - acquire) / 1e3;
      my.vacation_us.add(vacation_us);
      my.busy_us.add(busy_us);
      // Eq. (11) EWMA of eq. (4) samples; published for the other threads.
      const double sample = core::model::rho_estimate(busy_us, vacation_us);
      const double rho =
          (1.0 - cfg_.alpha) * q.rho.load(std::memory_order_relaxed) + cfg_.alpha * sample;
      q.rho.store(rho, std::memory_order_relaxed);
      if (cfg_.adaptive) {
        ts_us = core::model::ts_for_target_multiqueue(cfg_.target_vacation_us, rho,
                                                      cfg_.n_threads, cfg_.n_queues);
        q.ts_us.store(ts_us, std::memory_order_relaxed);
      }
    }
    q.lock.unlock();

    hr_sleep(static_cast<std::int64_t>(ts_us * 1e3));
  }
}

RtResult MetronomeRt::stop() {
  running_.store(false, std::memory_order_release);
  if (producer_.joinable()) producer_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  RtResult r;
  r.packets_consumed = packets_consumed_.load();
  r.producer_pushed = producer_pushed_;
  for (const auto& q : queues_) {
    r.producer_drops += q->ring->dropped();
    r.busy_tries += q->busy_tries.load();
    r.total_tries += q->total_tries.load();
    // Drain whatever the workers had not yet retrieved (threads are joined,
    // so this is safe) to make the packet conservation audit exact.
    RtPacket buf[64];
    int n;
    while ((n = q->ring->pop_burst(buf, 64)) > 0) {
      r.leftover_in_rings += static_cast<std::uint64_t>(n);
    }
  }
  for (const auto& w : worker_stats_) {
    r.vacation_us.merge(w->vacation_us);
    r.busy_us.merge(w->busy_us);
    r.latency_us.merge(w->latency_us);
  }
  r.final_rho = queues_[0]->rho.load();
  r.final_ts_us = queues_[0]->ts_us.load();
  r.cpu_seconds = process_cpu_seconds() - cpu_seconds_at_start_;
  r.wall_seconds = static_cast<double>(monotonic_ns() - wall_ns_at_start_) / 1e9;
  return r;
}

}  // namespace metro::rt
