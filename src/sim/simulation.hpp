/// \file simulation.hpp
/// The discrete-event simulation kernel.
///
/// A Simulation owns:
///   * the virtual clock (nanoseconds, see time.hpp),
///   * a pending-event store (see event_queue.hpp) holding timestamped
///     events, chosen at construction — a binary min-heap by default, or a
///     timing wheel,
///   * the registered LazySources, producers it never schedules but
///     settles at the end of every run slice (a port's ingress: a grouped
///     stream or the per-flow arrival arena),
///   * the coroutine frames of all spawned processes,
///   * a deterministic RNG shared by models that need randomness.
///
/// Events inserted at equal timestamps run in insertion order (a strictly
/// increasing sequence number breaks ties, merged across the store and the
/// now-FIFO), which keeps runs bit-for-bit reproducible — on either store.
///
/// The event path is allocation-free in steady state and built for
/// throughput:
///   * an event record is a 32-byte POD {time, seq, payload} compared and
///     moved contiguously — no type erasure on the hot path;
///   * the overwhelmingly common event is "resume this coroutine"
///     (sleep_for, SleepService wake-ups, Core job completions, Signal
///     resumes): the raw handle rides inside the event record itself, with
///     zero side-table bookkeeping, and same-instant resumes bypass the
///     store entirely through a FIFO that is already in execution order;
///   * an event that nothing can precede need not be stored at all:
///     advance_inline() moves the clock to its instant in place when no
///     stored or FIFO event could run first and the slice reaches it. A
///     lone Core job (completion, then resume) and a SleepService wake-up
///     take this path, so a thread that sleeps, wakes and runs a few jobs
///     alone on its core costs the store one event per wake-up;
///   * the store is tested once per run_until()/run() call, not once per
///     event: the step loop is a member template instantiated per store,
///     so only the schedule_* pushes branch on the store kind;
///   * callback events (governor ticks, cancellable timeouts, test
///     fixtures) live in a pooled slot with a small-buffer-optimised
///     callable and a stable EventId, so pending timers can be *cancelled*
///     instead of being left to fire as stale no-ops. Callables that are
///     trivially copyable and fit kInlineCallbackSize bytes never touch the
///     heap allocator.
///
/// Cancellation is the kernel's alone; the stores are plain (at, seq)
/// queues. cancel() frees the callable and bumps the slot generation, so
/// the stored entry becomes a *tombstone*: step_if() discards it when it
/// reaches the front, without advancing the clock or counting it as
/// processed, and pending_events()/idle() subtract the tombstone count.
/// Once more than kPurgeMin tombstones make up over half the store,
/// cancel() drops them all through the store's erase_if(), so dense
/// cancel traffic does not pay a full pop per tombstone. Only the spinning
/// baselines cancel (the next arrival beats their idle Signal timeout);
/// the single-queue X520 poller stays below the floor, denser ones purge.
///
/// Tail-resume invariant: every resume of a process is the last thing its
/// resumer does (dispatch(), Signal's TimeoutFire, SleepService's timer
/// callback), and a process that suspends returns straight to it. So when
/// a process is about to suspend, or a resumer is about to resume, the next
/// thing to happen is the kernel's next step — and if advance_inline()
/// proves that step is the event the caller would store, going on in place
/// runs the same (at, seq) order. A grant counts the event as processed (the
/// tracer's kernel-fire samples included), so events_processed() does not
/// depend on which path ran.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace metro::sim {

class Simulation;

/// A producer the kernel does not schedule: it applies its effects when
/// something looks at them — the way a port's ingress (tgen/feeder.hpp)
/// puts arrivals into its rings only when a ring is read, not at one
/// kernel event per arrival.
///
/// The source keeps due_at() at its earliest unapplied effect (set_due())
/// and applies effects in instant order. Whoever reads the state it
/// produces calls deliver_until(now) first; the kernel settles it at the
/// end of each run slice and counts pending() in pending_events() and
/// idle(). A process that parks until the next effect calls arm() first:
/// one kernel event is then kept armed at that effect's instant, which
/// delivers what is due and arms again while stay_armed() holds.
/// Registered with Simulation::attach_lazy() and unregistered
/// (detach_lazy()) before the simulation is destroyed.
class LazySource {
 public:
  static constexpr Time kNever = INT64_MAX;

  /// Cancels the armed event, which points back at the source.
  virtual ~LazySource();
  LazySource(const LazySource&) = delete;
  LazySource& operator=(const LazySource&) = delete;

  /// Instant of the earliest effect not yet applied (kNever when none).
  Time due_at() const noexcept { return due_at_; }
  /// 1 while the source holds an unapplied effect that no pending kernel
  /// event of its own stands for, else 0.
  std::size_t pending() const noexcept { return due_at_ != kNever && !armed_ ? 1 : 0; }

  /// Apply every effect due at or before `t`, in instant order.
  void deliver_until(Time t) {
    if (due_at_ <= t) deliver(t, kNever);
  }

  /// Apply what a kernel event at `t` that was scheduled at `since` finds
  /// applied: every effect due before `t`, and each effect due at `t`
  /// whose own kernel event, had it been scheduled eagerly, would have been
  /// scheduled before `since` (so would have taken an older sequence
  /// number). Ties at `since` itself count as later.
  virtual void deliver(Time t, Time since) = 0;

  /// A process is about to park until the next effect: keep one kernel
  /// event armed at its instant. Called before the process schedules a
  /// timeout of its own, so at equal instants the effect wakes it first.
  void arm();

 protected:
  explicit LazySource(Simulation& sim) : sim_(sim) {}

  /// Whether the armed event, having delivered what was due, arms again
  /// (a reader is still parked).
  virtual bool stay_armed() const = 0;

  /// Record the instant of the earliest unapplied effect.
  void set_due(Time at) noexcept { due_at_ = at; }

  Simulation& sim_;

 private:
  /// The armed event: deliver what is due, and arm again while stay_armed().
  void fire();

  Time due_at_ = kNever;
  bool armed_ = false;       // fire_ is pending
  std::uint64_t fire_ = 0;   // the armed event's Simulation::EventId
};

/// The discrete-event kernel.
///
/// The pending-event store is picked at construction: a BinaryHeapBackend
/// by default, or a TimingWheelBackend. Both uphold the same observable
/// contract — identical execution order and steady-state allocation
/// freedom — so the store only changes wall time.
class Simulation {
 public:
  /// Stable identifier of a pending *callback* event: {slot generation,
  /// slot index}. Ids are invalidated the moment the event fires or is
  /// cancelled; a stale id can never alias a newer event (the generation
  /// is bumped on every slot reuse). 0 is never a valid id.
  using EventId = std::uint64_t;
  /// The never-valid EventId.
  static constexpr EventId kInvalidEvent = 0;

  /// Callables at most this size (and trivially copyable/destructible) are
  /// stored inline in the pooled slot — no heap traffic.
  static constexpr std::size_t kInlineCallbackSize = 24;

  /// Construct an idle simulation on the binary-heap store whose RNG is
  /// seeded with `seed`.
  explicit Simulation(std::uint64_t seed = 1);

  /// Construct on the given timing wheel (e.g. the deliberately tiny
  /// geometries the wheel tests drive).
  Simulation(std::uint64_t seed, TimingWheelBackend wheel);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  ~Simulation();

  /// Current virtual time, ns.
  Time now() const noexcept { return now_; }
  /// The simulation-owned deterministic RNG.
  Rng& rng() noexcept { return rng_; }
  /// The timing-wheel store, or nullptr when the simulation runs on the
  /// heap (observability for tests and benches).
  const TimingWheelBackend* wheel() const noexcept { return wheel_ ? &*wheel_ : nullptr; }
  /// Entries in the event store, tombstones included.
  std::size_t stored_events() const noexcept { return wheel_ ? wheel_->size() : heap_.size(); }
  /// Cancelled entries still in the store.
  std::size_t tombstones() const noexcept { return tombstones_; }

  /// Schedule a callback at absolute virtual time `t` (>= now()).
  /// Returns an id usable with cancel() while the event is pending.
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].cb.emplace(std::forward<F>(fn));
    EventEntry e;
    e.at = t < now_ ? now_ : t;
    e.seq = next_seq_++;
    e.payload = encode_generation(slots_[slot].generation);
    e.slot = slot;
    e.kind = EventKind::kCallback;
    push(e);
    return make_id(slot);
  }

  /// Schedule a callback `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_after(Time delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Register (or unregister) a LazySource: run_until() settles it at the
  /// end of each slice, run() drains it, idle()/pending_events() count it.
  void attach_lazy(LazySource* source);
  void detach_lazy(LazySource* source) noexcept;

  /// Apply every lazily held effect due by now() — for readers of state a
  /// LazySource produces that are not its own consumers (telemetry
  /// samples, measurement windows). A reader running inside a kernel event
  /// that was scheduled at `since` passes it, and effects due at exactly
  /// now() count only if they would have run before that event
  /// (LazySource::deliver).
  void sync_lazy(Time since = LazySource::kNever) {
    for (LazySource* s : lazy_) {
      if (s->due_at() <= now_) s->deliver(now_, since);
    }
  }

  /// Schedule a coroutine resume at absolute virtual time `t`. This is the
  /// hot path: the raw handle rides in the event record, nothing is erased,
  /// nothing can be cancelled (no user needs to revoke a bare resume; a
  /// cancellable timer is a callback event). Resumes landing at the
  /// current instant (Signal notifies, spawns, job completions) bypass the
  /// store entirely: they run at now() in insertion order, which is
  /// exactly the now-FIFO — O(1) instead of a store insert.
  void schedule_handle_at(Time t, std::coroutine_handle<> h) {
    EventEntry e;
    e.at = t < now_ ? now_ : t;
    e.seq = next_seq_++;
    e.payload = h.address();
    e.slot = 0;
    e.kind = EventKind::kCoroutine;
    if (e.at == now_) {
      fifo_.push_back(e);
    } else {
      push(e);
    }
  }

  /// Schedule a coroutine resume `delay` nanoseconds from now.
  void schedule_handle_after(Time delay, std::coroutine_handle<> h) {
    schedule_handle_at(now_ + (delay < 0 ? 0 : delay), h);
  }

  /// Stand in place for one event at `t` (>= now()) that the caller would
  /// otherwise schedule and that would run next: when no event could run
  /// before it, move the clock to `t` and count the event as processed,
  /// and return true — the caller then runs the event's body itself.
  /// Granted only inside a run slice (run_until() or run()) whose end is at
  /// or after `t`, with the now-FIFO empty and the store's front (a
  /// tombstone too) strictly later than `t`. On false nothing changed:
  /// schedule as usual.
  /// Only a caller whose next act is to return to the kernel (see the
  /// tail-resume invariant above) may use it.
  bool advance_inline(Time t) {
    assert(t >= now_);
    // Cheapest first: the wheel's peek() may cascade.
    if (t > slice_end_ || !fifo_empty()) return false;
    if (stored_events() != 0 && store_front() <= t) return false;
    ++inlined_;
    advance(t);
    return true;
  }

  /// Revoke a pending callback event in amortised O(1): its callable is
  /// destroyed and its stored entry becomes a tombstone that never fires.
  /// Returns false when the id is stale (already fired, already cancelled,
  /// or never valid).
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (id == kInvalidEvent || slot >= slots_.size()) return false;
    CallbackSlot& s = slots_[slot];
    if (s.generation != gen) return false;
    s.cb.destroy();
    release_slot(slot);  // the generation bump is what makes dead() flag it
    ++cancelled_;
    if (++tombstones_ > kPurgeMin && 2 * tombstones_ > stored_events()) purge();
    return true;
  }

  /// Start a simulation process. The first resume happens "now".
  void spawn(Task task) {
    auto handle = task.release();
    processes_.push_back(handle);
    schedule_handle_after(0, handle);
  }

  /// Run until the event queue drains or the clock passes `end`.
  /// Events at exactly `end` are executed, and every LazySource effect due
  /// by `end` is applied. Returns the final clock value.
  Time run_until(Time end);

  /// Run until no events remain (all processes finished or are blocked)
  /// and every LazySource is drained.
  Time run();

  /// True when no live event is pending.
  bool idle() const noexcept {
    return stored_events() == tombstones_ && fifo_empty() && lazy_pending() == 0;
  }
  /// Number of live pending events (store minus tombstones, plus the
  /// now-FIFO, plus one per LazySource holding undelivered effects).
  std::size_t pending_events() const noexcept {
    return stored_events() - tombstones_ + (fifo_.size() - fifo_head_) + lazy_pending();
  }
  /// Total events executed since construction (throughput accounting).
  std::uint64_t events_processed() const noexcept { return processed_; }
  /// Events of events_processed() that advance_inline() ran in place.
  std::uint64_t events_inlined() const noexcept { return inlined_; }
  /// Total callback events cancelled since construction.
  std::uint64_t events_cancelled() const noexcept { return cancelled_; }

  /// Attach (or detach, with nullptr) a trace recorder. Default-off: the
  /// only hot-path cost while detached is one predictable null test per
  /// dispatched event. The wheel store also receives the tracer for its
  /// structural events (cascade/rebase). Tracing
  /// only *observes* — it never changes what the run computes, so
  /// telemetry fingerprints are bit-identical either way (test-enforced).
  void set_tracer(trace::Tracer* t) noexcept;
  /// The attached trace recorder, or nullptr.
  trace::Tracer* tracer() const noexcept { return tracer_; }

  // --- awaitables -----------------------------------------------------

  /// co_await sim.sleep_for(d): suspend the calling process for `d` ns of
  /// virtual time. This is *exact* virtual sleeping — OS-level inaccuracy
  /// is modelled separately by SleepService.
  auto sleep_for(Time d) {
    struct Awaiter {
      Simulation& sim;
      Time delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_handle_after(delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// co_await sim.sleep_until(t): suspend until absolute virtual time `t`.
  auto sleep_until(Time t) { return sleep_for(t - now_); }

 private:
  /// Type-erased callable with small-buffer optimisation. Trivially
  /// copyable callables up to kInlineCallbackSize live in `storage`
  /// directly; larger or non-trivial ones are heap-allocated and only the
  /// pointer lives inline. Either way the wrapper itself is trivially
  /// movable.
  struct SmallCallback {
    alignas(void*) unsigned char storage[kInlineCallbackSize];
    void (*invoke)(void* self) = nullptr;
    void (*destroy_fn)(void* self) = nullptr;  // set only for heap fallback

    template <typename F>
    void emplace(F&& fn) {
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineCallbackSize &&
                    alignof(Fn) <= alignof(void*) &&
                    std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>) {
        ::new (static_cast<void*>(storage)) Fn(std::forward<F>(fn));
        invoke = [](void* self) { (*static_cast<Fn*>(self))(); };
        destroy_fn = nullptr;
      } else {
        auto* heap = new Fn(std::forward<F>(fn));
        std::memcpy(storage, &heap, sizeof(heap));
        invoke = [](void* self) {
          Fn* p;
          std::memcpy(&p, self, sizeof(p));
          (*p)();
        };
        destroy_fn = [](void* self) {
          Fn* p;
          std::memcpy(&p, self, sizeof(p));
          delete p;
        };
      }
    }

    void operator()() { invoke(storage); }
    void destroy() {
      if (destroy_fn != nullptr) {
        destroy_fn(storage);
        destroy_fn = nullptr;
      }
      invoke = nullptr;
    }
  };

  /// Pooled storage for callback events (the cancellable minority).
  struct CallbackSlot {
    SmallCallback cb;  // 40 bytes
    std::uint32_t generation = 1;
    std::uint32_t next_free = 0;  // free-list link while the slot is free
  };

  /// True for a tombstone: a callback entry whose slot was cancelled (or
  /// cancelled and reused) since the entry was stored.
  bool dead(const EventEntry& e) const noexcept {
    return e.kind == EventKind::kCallback &&
           slots_[e.slot].generation != decode_generation(e.payload);
  }

  static void* encode_generation(std::uint32_t gen) noexcept {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(gen));
  }
  static std::uint32_t decode_generation(void* payload) noexcept {
    return static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(payload));
  }

  std::uint32_t acquire_slot() {
    std::uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    CallbackSlot& s = slots_[slot];
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  EventId make_id(std::uint32_t slot) const noexcept {
    return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  }

  bool fifo_empty() const noexcept { return fifo_head_ == fifo_.size(); }

  void fifo_pop() {
    if (++fifo_head_ == fifo_.size()) {
      // The FIFO fully drains before the clock can advance, so the buffer
      // is recycled (not freed) between instants — allocation-free once
      // warm.
      fifo_.clear();
      fifo_head_ = 0;
    }
  }

  std::size_t lazy_pending() const noexcept {
    std::size_t n = 0;
    for (const LazySource* s : lazy_) n += s->pending();
    return n;
  }

  /// Store one entry in whichever store the simulation runs on. The heap
  /// push inlines; the wheel's stays out of line so it does not bloat
  /// every schedule_* call site.
  void push(const EventEntry& e) {
    if (wheel_) {
      push_wheel(e);
    } else {
      heap_.push(e);
    }
  }
  void push_wheel(const EventEntry& e);

  /// Instant of the store's front entry, live or not. Precondition: the
  /// store is not empty.
  Time store_front() { return wheel_ ? wheel_->peek().at : heap_.peek().at; }

  /// Drop every stored tombstone at once (cancel()'s purge).
  void purge();

  /// Advance the clock to `at` and count one processed event.
  void advance(Time at) {
    now_ = at;
    ++processed_;
    if (tracer_ != nullptr) [[unlikely]] {
      // 1-in-256 deterministic sampling: a full-rate fire instant per
      // event would saturate the ring in microseconds of sim time.
      if ((processed_ & 0xff) == 0) {
        tracer_->instant(trace::id::kKernelFire, at, processed_);
      }
    }
  }

  void dispatch(const EventEntry& top);

  /// Execute every live event with at <= end on the store the simulation
  /// runs on.
  void drain_store(Time end);

  /// Execute every live event with at <= end on `store` (the one the
  /// simulation runs on); simulation.cpp instantiates it per store.
  template <typename Store>
  void drain(Store& store, Time end);

  /// Pop and execute the earliest live event with at <= end, false when
  /// none (see simulation.cpp; always inlined into drain()).
  template <typename Store>
  bool step_if(Store& store, Time end);

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Purge floor: up to this many tombstones are popped as they come due
  /// (the X520 poller keeps at most ~45). Above it, a purge at half the
  /// store costs O(1) amortised per cancel.
  static constexpr std::size_t kPurgeMin = 64;
  static constexpr Time kTimeMax = INT64_MAX;
  /// slice_end_ outside any run slice: no advance_inline() is granted.
  static constexpr Time kNoSlice = INT64_MIN;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t inlined_ = 0;
  Time slice_end_ = kNoSlice;  // end of the running drain_store() slice
  BinaryHeapBackend heap_;                   // the store unless wheel_ is set
  std::optional<TimingWheelBackend> wheel_;  // the store when set
  std::vector<EventEntry> fifo_;  // coroutine resumes at the current instant
  std::size_t fifo_head_ = 0;
  std::vector<CallbackSlot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t tombstones_ = 0;  // cancelled entries still in the store
  std::vector<LazySource*> lazy_;  // attach_lazy(); settled per slice
  std::vector<std::coroutine_handle<Task::promise_type>> processes_;
  Rng rng_;
  trace::Tracer* tracer_ = nullptr;
};

/// Kept for metrobench until the wheel store goes: a Simulation on the
/// default timing wheel, so `apps::BasicTestbed<sim::WheelSimulation>`
/// names the wheel-backed testbed.
class WheelSimulation : public Simulation {
 public:
  explicit WheelSimulation(std::uint64_t seed = 1) : Simulation(seed, TimingWheelBackend{}) {}
};

/// A one-to-many wake-up signal. Processes co_await the signal (optionally
/// with a timeout); notify_all() resumes every waiter at the current
/// virtual time. Used e.g. by a busy-polling driver fast-forwarding an idle
/// stretch: the poller is logically spinning (and is accounted as busy),
/// but the simulator skips straight to the next packet arrival.
///
/// Waiters form an intrusive doubly-linked FIFO over a pooled token array —
/// a wait costs no allocation in steady state. A timed wait arms a
/// cancellable kernel timer; notification cancels it, leaving a kernel
/// tombstone that never fires (and vice versa the timer detaches the
/// waiter), so notify racing timeout can never double-resume.
class Signal {
 public:
  /// Bind the signal to its owning simulation.
  explicit Signal(Simulation& sim) : sim_(sim) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Cancel every armed timeout on destruction: the timer callbacks hold a
  /// raw pointer back to this Signal and must never fire after it is gone.
  /// Still-queued waiters simply never resume; their frames are reclaimed
  /// by the owning Simulation.
  ~Signal() {
    for (std::uint32_t i = head_; i != kNil; i = pool_[i].next) {
      if (pool_[i].timeout_event != Simulation::kInvalidEvent) {
        sim_.cancel(pool_[i].timeout_event);
      }
    }
  }

  /// co_await sig.wait(): suspend until the next notify_all().
  auto wait() { return WaitAwaiter{*this, -1, kNil}; }

  /// co_await sig.wait_for(t): suspend until notify_all() or `t` elapses,
  /// whichever comes first. Resumes with true if notified.
  auto wait_for(Time timeout) { return WaitAwaiter{*this, timeout, kNil}; }

  /// Wake all current waiters (they resume via the event queue, at now(),
  /// in wait order).
  void notify_all() {
    std::uint32_t i = head_;
    head_ = tail_ = kNil;
    while (i != kNil) {
      Token& t = pool_[i];
      const std::uint32_t next = t.next;
      t.next = t.prev = kNil;
      t.waiting = false;
      t.notified = true;
      if (t.timeout_event != Simulation::kInvalidEvent) {
        sim_.cancel(t.timeout_event);
        t.timeout_event = Simulation::kInvalidEvent;
      }
      sim_.schedule_handle_after(0, t.handle);
      i = next;
    }
  }

  /// True while at least one process is blocked on the signal.
  bool has_waiters() const noexcept { return head_ != kNil; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Token {
    std::coroutine_handle<> handle;
    Simulation::EventId timeout_event = Simulation::kInvalidEvent;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t generation = 0;
    bool waiting = false;
    bool notified = false;
  };

  /// Fired by the kernel when a timed wait expires un-notified.
  struct TimeoutFire {
    Signal* sig;
    std::uint32_t token;
    std::uint32_t generation;
    void operator()() const {
      Token& t = sig->pool_[token];
      if (t.generation != generation || !t.waiting) return;  // stale
      sig->detach(token);
      t.waiting = false;
      t.notified = false;
      t.timeout_event = Simulation::kInvalidEvent;
      if (!t.handle.done()) t.handle.resume();
    }
  };

  struct WaitAwaiter {
    Signal& sig;
    Time timeout;  // < 0: wait forever
    std::uint32_t token;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      token = sig.acquire_token();
      Token& t = sig.pool_[token];
      t.handle = h;
      t.waiting = true;
      t.notified = false;
      sig.append(token);
      if (timeout >= 0) {
        t.timeout_event =
            sig.sim_.schedule_after(timeout, TimeoutFire{&sig, token, t.generation});
      }
    }
    bool await_resume() noexcept {
      const bool notified = sig.pool_[token].notified;
      sig.release_token(token);
      return notified;
    }
  };

  std::uint32_t acquire_token() {
    std::uint32_t i;
    if (free_head_ != kNil) {
      i = free_head_;
      free_head_ = pool_[i].next;
    } else {
      i = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[i].next = pool_[i].prev = kNil;
    return i;
  }

  void release_token(std::uint32_t i) {
    Token& t = pool_[i];
    assert(!t.waiting && "token released while still queued");
    ++t.generation;
    t.handle = nullptr;
    t.next = free_head_;
    free_head_ = i;
  }

  void append(std::uint32_t i) {
    Token& t = pool_[i];
    t.prev = tail_;
    t.next = kNil;
    if (tail_ != kNil) {
      pool_[tail_].next = i;
    } else {
      head_ = i;
    }
    tail_ = i;
  }

  void detach(std::uint32_t i) {
    Token& t = pool_[i];
    if (t.prev != kNil) {
      pool_[t.prev].next = t.next;
    } else {
      head_ = t.next;
    }
    if (t.next != kNil) {
      pool_[t.next].prev = t.prev;
    } else {
      tail_ = t.prev;
    }
    t.next = t.prev = kNil;
  }

  Simulation& sim_;
  std::vector<Token> pool_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_head_ = kNil;
};

}  // namespace metro::sim
