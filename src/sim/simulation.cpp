#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

namespace metro::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::Simulation(std::uint64_t seed, TimingWheelBackend wheel)
    : wheel_(std::move(wheel)), rng_(seed) {}

Simulation::~Simulation() {
  // Drop pending events first so no event can refer to a destroyed frame,
  // then destroy all frames (they are suspended, so destroy() is legal).
  const auto drop = [this](const EventEntry& e) {
    if (e.kind == EventKind::kCallback && !dead(e)) slots_[e.slot].cb.destroy();
  };
  if (wheel_) {
    wheel_->for_each(drop);
  } else {
    heap_.for_each(drop);
  }
  slots_.clear();
  for (auto h : processes_) {
    if (h) h.destroy();
  }
}

LazySource::~LazySource() {
  if (armed_) sim_.cancel(fire_);
}

void LazySource::arm() {
  if (armed_ || due_at_ == kNever) return;
  armed_ = true;
  fire_ = sim_.schedule_at(due_at_, [this] { fire(); });
}

void LazySource::fire() {
  armed_ = false;
  deliver_until(sim_.now());
  if (stay_armed()) arm();
}

void Simulation::attach_lazy(LazySource* source) {
  if (source == nullptr) throw std::invalid_argument("attach_lazy: null source");
  lazy_.push_back(source);
}

void Simulation::detach_lazy(LazySource* source) noexcept {
  std::erase(lazy_, source);
}

void Simulation::set_tracer(trace::Tracer* t) noexcept {
  tracer_ = t;
  if (wheel_) wheel_->set_tracer(t);
}

Time Simulation::run_until(Time end) {
  drain_store(end);
  if (now_ < end) now_ = end;
  // Settle the lazy sources at the slice end, so state read between slices
  // is what eager delivery would have left. This wakes no one: a parked
  // reader keeps an event of its source armed, and drain_store() has run
  // every one due by `end`.
  for (LazySource* s : lazy_) s->deliver_until(end);
  return now_;
}

Time Simulation::run() {
  for (;;) {
    drain_store(kTimeMax);
    // The store is dry: apply the earliest lazily held effects at their
    // instant and go on with whatever they woke.
    Time due = LazySource::kNever;
    for (const LazySource* s : lazy_) due = std::min(due, s->due_at());
    if (due == LazySource::kNever) return now_;
    if (now_ < due) now_ = due;
    for (LazySource* s : lazy_) s->deliver_until(now_);
  }
}

void Simulation::drain_store(Time end) {
  // advance_inline() is granted only up to the end of the running slice;
  // restored on the way out, exceptions included.
  struct SliceScope {
    Time& slot;
    Time saved;
    ~SliceScope() { slot = saved; }
  } scope{slice_end_, std::exchange(slice_end_, end)};
  if (wheel_) {
    drain(*wheel_, end);
  } else {
    drain(heap_, end);
  }
}

void Simulation::push_wheel(const EventEntry& e) { wheel_->push(e); }

void Simulation::purge() {
  const auto is_dead = [this](const EventEntry& e) { return dead(e); };
  if (wheel_) {
    wheel_->erase_if(is_dead);
  } else {
    heap_.erase_if(is_dead);
  }
  tombstones_ = 0;
}

void Simulation::dispatch(const EventEntry& top) {
  advance(top.at);
  if (top.kind == EventKind::kCoroutine) {
    const auto h = std::coroutine_handle<>::from_address(top.payload);
    if (!h.done()) h.resume();
  } else {
    // Detach the callable before invoking: the handler may schedule new
    // events that reuse this slot, and the popped id is stale from here.
    SmallCallback cb = slots_[top.slot].cb;  // trivial copy; takes ownership
    release_slot(top.slot);
    cb();
    cb.destroy();
  }
}

/// Tombstones at the store's front are discarded first, so the merge below
/// only ever sees a live store minimum. Two sorted streams meet here by
/// (at, seq): the store and the now-FIFO.
template <typename Store>
[[gnu::always_inline]] inline bool Simulation::step_if(Store& store, Time end) {
  while (tombstones_ != 0 && dead(store.peek())) {
    store.pop_min();
    --tombstones_;
  }
  if (fifo_empty()) {
    if (store.empty()) return false;
    const EventEntry top = store.peek();
    if (top.at > end) return false;
    // Start pulling the coroutine frame in while the pop runs; resume()
    // needs it a few dozen cycles from now.
    if (top.kind == EventKind::kCoroutine) __builtin_prefetch(top.payload);
    store.pop_min();
    dispatch(top);
    return true;
  }
  // The FIFO front is its minimum (entries are appended in seq order at
  // a single instant); merge it with the store's minimum by (at, seq).
  if (store.empty() || event_precedes(fifo_[fifo_head_], store.peek())) {
    const EventEntry top = fifo_[fifo_head_];
    if (top.at > end) return false;
    fifo_pop();
    dispatch(top);
  } else {
    const EventEntry top = store.peek();
    if (top.at > end) return false;
    store.pop_min();
    dispatch(top);
  }
  return true;
}

template <typename Store>
void Simulation::drain(Store& store, Time end) {
  while (step_if(store, end)) {
  }
}

}  // namespace metro::sim
