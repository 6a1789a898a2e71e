#include "sim/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

namespace metro::sim {

namespace {
// kernel/sched/core.c sched_prio_to_weight[], indexed by nice + 20.
constexpr int kNiceToWeight[40] = {
    88761, 71755, 56483, 46273, 36291,  // -20 .. -16
    29154, 23254, 18705, 14949, 11916,  // -15 .. -11
    9548,  7620,  6100,  4904,  3906,   // -10 .. -6
    3121,  2501,  1991,  1586,  1277,   // -5 .. -1
    1024,  820,   655,   526,   423,    //  0 .. 4
    335,   272,   215,   172,   137,    //  5 .. 9
    110,   87,    70,    56,    45,     // 10 .. 14
    36,    29,    23,    18,    15,     // 15 .. 19
};

constexpr double kWorkEpsilon = 0.5;  // ns: below this a job counts as done
}  // namespace

int nice_to_weight(int nice) {
  nice = std::clamp(nice, -20, 19);
  return kNiceToWeight[nice + 20];
}

Core::Core(Simulation& sim, int core_id, CoreConfig cfg)
    : sim_(sim), core_id_(core_id), cfg_(cfg) {
  if (cfg_.governor == Governor::kOndemand) {
    freq_ratio_ = cfg_.min_freq_ratio;  // starts relaxed; ramps with load
    sim_.schedule_after(cfg_.ondemand_sampling, [this] { governor_tick(); });
  }
  last_update_ = sim_.now();
  last_sample_at_ = sim_.now();
}

Core::EntityId Core::add_entity(std::string name, int nice) {
  settle();
  Entity e;
  e.name = std::move(name);
  e.weight = nice_to_weight(nice);
  entities_.push_back(std::move(e));
  return static_cast<EntityId>(entities_.size() - 1);
}

void Core::set_spinning(EntityId id, bool spinning) {
  settle();
  Entity& e = entities_[static_cast<std::size_t>(id)];
  if (e.spinning == spinning) return;
  e.spinning = spinning;
  if (spinning) {
    if (!e.has_job) activate(id);
  } else if (!e.has_job) {
    deactivate(id);
  }
  reschedule_completion();
}

void Core::activate(EntityId id) {
  Entity& e = entities_[static_cast<std::size_t>(id)];
  assert(e.active_pos < 0);
  e.active_pos = static_cast<int>(active_.size());
  active_.push_back(id);
  active_weight_ += e.weight;
}

void Core::deactivate(EntityId id) {
  Entity& e = entities_[static_cast<std::size_t>(id)];
  assert(e.active_pos >= 0);
  const EntityId last = active_.back();
  active_[static_cast<std::size_t>(e.active_pos)] = last;
  entities_[static_cast<std::size_t>(last)].active_pos = e.active_pos;
  active_.pop_back();
  e.active_pos = -1;
  active_weight_ -= e.weight;
}

bool Core::submit_job(EntityId id, Time work, std::coroutine_handle<> h) {
  settle();
  Entity& e = entities_[static_cast<std::size_t>(id)];
  assert(!e.has_job && "entity already has an outstanding job");
  e.has_job = true;
  e.remaining = static_cast<double>(work);
  e.waiter = h;
  if (!e.spinning) activate(id);  // spinners are already active
  if (active_.size() == 1 && completion_event_ == Simulation::kInvalidEvent) {
    // A lone job: its completion event is the next thing that can happen
    // on this core. When the kernel proves it is also the next thing that
    // happens anywhere, run it in place — the body of on_completion_event,
    // then the resume it would schedule. A job still unserved after the
    // in-place settle goes on as the completion event's body would.
    const Time at = sim_.now() + completion_delay();
    if (sim_.advance_inline(at)) {
      settle();
      if (e.remaining <= kWorkEpsilon && sim_.advance_inline(at)) {
        retire(id);
        return false;  // the caller goes on at `at`
      }
    }
  }
  reschedule_completion();
  return true;
}

void Core::settle() {
  const Time now = sim_.now();
  const Time dt = now - last_update_;
  if (dt <= 0) return;
  last_update_ = now;

  if (active_.empty()) {
    energy_j_ += to_seconds(dt) * calib::kCoreIdleWatts;
    return;
  }

  busy_time_ += dt;
  const double f = freq_ratio_;
  energy_j_ += to_seconds(dt) *
               (calib::kCoreStaticWatts * f + calib::kCoreDynamicWatts * f * f * f);

  const double total_weight = static_cast<double>(active_weight_);
  for (EntityId id : active_) {
    Entity& e = entities_[static_cast<std::size_t>(id)];
    const double share = e.weight / total_weight;
    const double cpu_ns = static_cast<double>(dt) * share;
    e.on_cpu += static_cast<Time>(cpu_ns + 0.5);
    if (e.has_job) e.remaining -= cpu_ns * f;
  }
}

std::coroutine_handle<> Core::retire(EntityId id) {
  Entity& e = entities_[static_cast<std::size_t>(id)];
  e.has_job = false;
  e.remaining = 0.0;
  const auto h = std::exchange(e.waiter, nullptr);
  if (!e.spinning) deactivate(id);
  return h;
}

Time Core::completion_delay() const {
  const double total_weight = static_cast<double>(active_weight_);
  double best_eta = -1.0;
  for (EntityId id : active_) {
    const Entity& e = entities_[static_cast<std::size_t>(id)];
    if (!e.has_job) continue;
    const double share = e.weight / total_weight;
    const double eta = e.remaining / (share * freq_ratio_);
    if (best_eta < 0.0 || eta < best_eta) best_eta = eta;
  }
  return best_eta < 0.0 ? -1 : static_cast<Time>(std::ceil(best_eta));
}

void Core::reschedule_completion() {
  // First retire any jobs that completed at the current instant.
  bool retired = true;
  while (retired) {
    retired = false;
    for (EntityId id : active_) {
      const Entity& e = entities_[static_cast<std::size_t>(id)];
      if (e.has_job && e.remaining <= kWorkEpsilon) {
        if (const auto h = retire(id)) sim_.schedule_handle_after(0, h);
        retired = true;
        break;  // active_ mutated; restart scan
      }
    }
  }

  if (completion_event_ != Simulation::kInvalidEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = Simulation::kInvalidEvent;
  }
  // Schedule the earliest completion among remaining jobs.
  const Time delay = completion_delay();
  if (delay >= 0) {
    completion_event_ = sim_.schedule_after(delay, [this] { on_completion_event(); });
  }
}

void Core::on_completion_event() {
  completion_event_ = Simulation::kInvalidEvent;  // this event just fired
  settle();
  reschedule_completion();
}

void Core::governor_tick() {
  settle();
  const Time now = sim_.now();
  const Time window = now - last_sample_at_;
  if (window > 0) {
    const double load =
        static_cast<double>(busy_time_ - busy_at_last_sample_) / static_cast<double>(window);
    double target;
    if (load > cfg_.ondemand_up_threshold) {
      target = 1.0;
    } else {
      target = std::max(cfg_.min_freq_ratio, load);
    }
    set_freq(target);
  }
  last_sample_at_ = now;
  busy_at_last_sample_ = busy_time_;
  sim_.schedule_after(cfg_.ondemand_sampling, [this] { governor_tick(); });
}

void Core::request_freq(double ratio) {
  if (cfg_.governor != Governor::kUserspace) return;
  set_freq(std::clamp(ratio, cfg_.min_freq_ratio, 1.0));
}

void Core::set_freq(double ratio) {
  if (ratio == freq_ratio_) return;
  settle();
  freq_ratio_ = ratio;
  reschedule_completion();
}

Time Core::on_cpu_time(EntityId id) const {
  // settle() is non-const bookkeeping; expose the value as of last settle
  // plus the in-flight share (callers snapshot at event boundaries, where
  // settle() has just run, so this is exact in practice).
  return entities_[static_cast<std::size_t>(id)].on_cpu;
}

Time Core::busy_time() const { return busy_time_; }

double Core::energy_joules() const { return energy_j_; }

Core::Snapshot Core::snapshot() {
  settle();
  return Snapshot{sim_.now(), busy_time_, energy_j_};
}

Machine::Machine(Simulation& sim, int n_cores, CoreConfig cfg) {
  cores_.reserve(static_cast<std::size_t>(n_cores));
  for (int i = 0; i < n_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(sim, i, cfg));
  }
}

std::vector<Core::Snapshot> Machine::snapshot_all() {
  std::vector<Core::Snapshot> snaps;
  snaps.reserve(cores_.size());
  for (auto& c : cores_) snaps.push_back(c->snapshot());
  return snaps;
}

Machine::WindowStats Machine::window_stats(const std::vector<Core::Snapshot>& start,
                                           const std::vector<Core::Snapshot>& end) const {
  WindowStats ws;
  if (start.empty() || start.size() != end.size()) return ws;
  const Time window = end[0].at - start[0].at;
  if (window <= 0) return ws;
  double joules = calib::kPackageBaseWatts * to_seconds(window);
  double busy_sum = 0.0;
  for (std::size_t i = 0; i < start.size(); ++i) {
    joules += end[i].joules - start[i].joules;
    busy_sum += static_cast<double>(end[i].busy - start[i].busy);
  }
  ws.avg_package_watts = joules / to_seconds(window);
  ws.total_cpu_usage_percent = 100.0 * busy_sum / static_cast<double>(window);
  return ws;
}

}  // namespace metro::sim
