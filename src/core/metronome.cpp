#include "core/metronome.hpp"

#include <string>

namespace metro::core {

using sim::Time;
namespace calib = sim::calib;

namespace {

/// EWMA weight of the rho estimator, eq. (11).
constexpr double kRhoAlpha = 0.05;

}  // namespace

Metronome::Metronome(sim::Simulation& sim, nic::Port& port, std::vector<sim::Core*> cores,
                     MetronomeConfig cfg)
    : sim_(sim), port_(port), cores_(std::move(cores)), cfg_(cfg) {
  const int n = port_.n_rx_queues();
  queues_.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    auto state = std::make_unique<QueueState>();
    state->rho = Ewma(kRhoAlpha);
    // Initial TS: no load observed yet, so the low-load setting M/N * V-bar.
    state->ts = compute_ts(*state);
    queues_.push_back(std::move(state));
  }
}

Time Metronome::compute_ts(const QueueState& q) const {
  if (!cfg_.adaptive) return cfg_.fixed_ts;
  const double target_us = sim::to_micros(cfg_.target_vacation);
  const double ts_us = model::ts_for_target_multiqueue(target_us, q.rho.value(), cfg_.n_threads,
                                                       port_.n_rx_queues());
  return sim::from_micros(ts_us);
}

void Metronome::start() {
  if (started_) return;
  started_ = true;
  threads_.reserve(static_cast<std::size_t>(cfg_.n_threads));
  for (int t = 0; t < cfg_.n_threads; ++t) {
    sim::Core* core = cores_[static_cast<std::size_t>(t) % cores_.size()];
    const auto ent = core->add_entity("metronome-" + std::to_string(t), -20);
    threads_.push_back(ThreadRef{core, ent});
    sleepers_.push_back(std::make_unique<sim::SleepService>(sim_, cfg_.sleep, core));
    sim_.spawn(thread_task(t));
  }
}

sim::Task Metronome::thread_task(int thread_id) {
  sim::Core& core = *threads_[static_cast<std::size_t>(thread_id)].core;
  const auto ent = threads_[static_cast<std::size_t>(thread_id)].entity;
  sim::SleepService& sleeper = *sleepers_[static_cast<std::size_t>(thread_id)];
  const int n_queues = port_.n_rx_queues();
  std::vector<nic::PacketDesc> burst(static_cast<std::size_t>(calib::kBurstSize));

  // Start staggered so wake-up times are decorrelated from the outset.
  int curr = thread_id % n_queues;
  co_await sim_.sleep_for(static_cast<Time>(
      sim_.rng().uniform(0.0, static_cast<double>(cfg_.long_timeout))));

  for (;;) {
    // Cost of waking up: timer bookkeeping, syscall return, cache refill,
    // and the trylock CMPXCHG itself.
    co_await core.run_for(ent, calib::kWakeupOverheadCost + calib::kTrylockCost);

    QueueState& q = *queues_[static_cast<std::size_t>(curr)];
    ++q.total_tries;

    if (!q.lock.try_lock(thread_id)) {
      // Busy try: another thread is already unloading this queue.
      ++q.busy_tries;
      const int tried = curr;  // the sleep is attributed to the queue whose timeout armed it
      if (cfg_.primary_backup) {
        if (cfg_.random_backup && n_queues > 1) {
          curr = static_cast<int>(sim_.rng().uniform_u64(static_cast<std::uint64_t>(n_queues)));
        }
        const Time sleep_t0 = sim_.now();
        co_await sleeper.sleep(cfg_.long_timeout);
        note_sleep(q, thread_id, tried, sleep_t0, cfg_.long_timeout);
      } else {
        // Equal-timeouts ablation: no backup role, sleep the short timer.
        const Time armed = q.ts;
        const Time sleep_t0 = sim_.now();
        co_await sleeper.sleep(armed);
        note_sleep(q, thread_id, tried, sleep_t0, armed);
      }
      continue;
    }

    // --- busy period ----------------------------------------------------
    ++q.lock_successes;
    const Time acquire = sim_.now();
    const Time vacation = q.last_release >= 0 ? acquire - q.last_release : -1;
    nic::RxRing& ring = port_.rx_queue(curr);
    const auto nv = static_cast<double>(ring.size());
    std::uint64_t drained = 0;

    int n;
    while ((n = ring.pop_burst(burst.data(), calib::kBurstSize)) > 0) {
      drained += static_cast<std::uint64_t>(n);
      q.burst_fill.add(static_cast<double>(n));
      co_await core.run_for(ent, static_cast<Time>(n) * cfg_.per_packet_cost);
      if (cfg_.packet_work) {
        for (int i = 0; i < n; ++i) cfg_.packet_work(burst[static_cast<std::size_t>(i)]);
      }
      port_.tx().send(burst.data(), n);
      q.packets += static_cast<std::uint64_t>(n);
    }
    // The final poll that finds the queue empty ends the busy period.
    co_await core.run_for(ent, calib::kEmptyPollCost);
    if (drained == 0) ++q.empty_polls;

    const Time release = sim_.now();
    q.last_release = release;
    q.lock.unlock(thread_id);
    if (trace::Tracer* t = sim_.tracer(); t != nullptr) [[unlikely]] {
      t->span(trace::id::kMetDrain, acquire, release - acquire, drained,
              static_cast<std::uint32_t>(thread_id), static_cast<std::uint32_t>(curr));
    }

    if (vacation >= 0) {
      const Time busy = release - acquire;
      q.vacation_us.add(sim::to_micros(vacation));
      if (q.vacation_hist != nullptr) q.vacation_hist->add(sim::to_micros(vacation));
      q.busy_us.add(sim::to_micros(busy));
      q.nv.add(nv);
      // Eq. (11): EWMA of the per-cycle load sample B / (V + B), eq. (4).
      q.rho.update(model::rho_estimate(static_cast<double>(busy), static_cast<double>(vacation)));
    }
    q.ts = compute_ts(q);

    // Primary role: re-arm the short timeout; by default contend for the
    // same queue again (it is likely to win there, §IV-E). A primary whose
    // busy period drained nothing moves on at random instead — stickiness
    // has no value on an idle queue, and without this amendment a
    // deployment with M < N could leave queues permanently unvisited
    // (trylocks never fail there, so backup hopping never kicks in).
    const bool stay = cfg_.sticky_primary && drained > 0;
    const int drained_queue = curr;
    if (!stay && n_queues > 1) {
      curr = static_cast<int>(sim_.rng().uniform_u64(static_cast<std::uint64_t>(n_queues)));
    }
    const Time armed = q.ts;
    const Time sleep_t0 = sim_.now();
    co_await sleeper.sleep(armed);
    note_sleep(q, thread_id, drained_queue, sleep_t0, armed);
  }
}

void Metronome::note_sleep(QueueState& q, int thread_id, int queue, Time t0,
                                     Time armed) {
  const Time slept = sim_.now() - t0;
  q.slept_ns += static_cast<std::uint64_t>(slept);
  q.sleep_us.add(sim::to_micros(slept));
  if (trace::Tracer* t = sim_.tracer(); t != nullptr) [[unlikely]] {
    t->span(trace::id::kMetSleep, t0, slept, static_cast<std::uint64_t>(armed),
            static_cast<std::uint32_t>(thread_id), static_cast<std::uint32_t>(queue));
  }
}

std::uint64_t Metronome::packets_processed() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q->packets;
  return total;
}

double Metronome::mean_rho() const {
  double sum = 0.0;
  for (const auto& q : queues_) sum += q->rho.value();
  return sum / static_cast<double>(queues_.size());
}

double Metronome::mean_ts_us() const {
  double sum = 0.0;
  for (const auto& q : queues_) sum += sim::to_micros(q->ts);
  return sum / static_cast<double>(queues_.size());
}

void Metronome::register_metrics(stats::MetricSet& set, const std::string& prefix) {
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    const std::string base = prefix + ".q" + std::to_string(q);
    QueueState& qs = *queues_[q];
    set.attach_counter(base + ".total_tries", qs.total_tries);
    set.attach_counter(base + ".busy_tries", qs.busy_tries);
    set.attach_counter(base + ".lock_successes", qs.lock_successes);
    set.attach_counter(base + ".packets", qs.packets);
    set.attach_counter(base + ".empty_polls", qs.empty_polls);
    set.attach_counter(base + ".slept_ns", qs.slept_ns);
    set.attach_summary(base + ".vacation_us", qs.vacation_us);
    set.attach_summary(base + ".busy_us", qs.busy_us);
    set.attach_summary(base + ".nv", qs.nv);
    set.attach_summary(base + ".sleep_us", qs.sleep_us);
    set.attach_summary(base + ".burst_fill", qs.burst_fill);
  }
}

}  // namespace metro::core
