/// \file trace.hpp
/// Sim-time span/instant tracer with Chrome trace-event export.
///
/// The telemetry layer (stats::MetricSet) answers "how much happened";
/// this answers "when". A trace::Tracer is a pre-sized ring buffer of
/// 40-byte POD TraceEvent records — instants ("a cascade happened at t")
/// and spans ("this queue drained from t0 for d ns") — with category and
/// name interned once at registration so the recording hot path writes a
/// handful of integers and never touches a string or the allocator.
///
/// Design constraints, in order:
///   * **default-off, branch-predictable** — every instrumentation site is
///     behind a `tracer_ != nullptr` test marked [[unlikely]]; a run that
///     never arms a tracer pays one always-false compare per site.
///   * **alloc-free recording** — the buffer is sized at construction;
///     a full ring counts drops instead of growing (`dropped()`).
///   * **deterministic observation** — sim-time timestamps only; recording
///     never feeds back into the simulation, so telemetry fingerprints
///     are bit-identical with tracing on or off (test-enforced).
///
/// Export is Chrome trace-event JSON (`write_chrome_trace`): the file
/// loads directly into chrome://tracing or Perfetto, one process lane per
/// Tracer (e.g. per sweep shard), one thread lane per tid (e.g. per
/// Metronome queue). Wall-clock spans (sweep shards) use the same record
/// with nanoseconds-since-epoch timestamps from WallSpan.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace metro::trace {

/// Chrome trace-event phase of a record.
enum class Phase : std::uint8_t {
  kInstant,  ///< point event ("i")
  kSpan,     ///< complete duration event ("X")
};

/// Well-known event names, pre-interned by every Tracer in this exact
/// order (the constant *is* the intern id). Instrumentation sites use
/// these directly; ad-hoc users call Tracer::intern for their own ids.
namespace id {
inline constexpr std::uint32_t kKernelFire = 0;     ///< sampled event dispatch
inline constexpr std::uint32_t kWheelCascade = 1;   ///< wheel level cascade
inline constexpr std::uint32_t kWheelEpoch = 2;     ///< wheel overflow rebase
inline constexpr std::uint32_t kRxBurst = 3;        ///< NIC grouped ingress
inline constexpr std::uint32_t kTxFlush = 4;        ///< TxRing batch flush
inline constexpr std::uint32_t kMetSleep = 5;       ///< Metronome sleep→wake
inline constexpr std::uint32_t kMetDrain = 6;       ///< Metronome busy period
inline constexpr std::uint32_t kFaultDrop = 7;      ///< injected packet drop
inline constexpr std::uint32_t kFaultReorder = 8;   ///< injected reorder hold
inline constexpr std::uint32_t kFaultLinkDown = 9;  ///< link-flap window hit
inline constexpr std::uint32_t kFaultStall = 10;    ///< rx-ring stall window
inline constexpr std::uint32_t kShard = 11;         ///< sweep shard (wall time)
}  // namespace id

/// One recorded event. POD, 40 bytes; timestamps are sim-time ns (or, for
/// wall lanes, ns since the run's wall epoch).
struct TraceEvent {
  sim::Time ts = 0;           ///< start (kSpan) or occurrence (kInstant)
  sim::Time dur = 0;          ///< span duration in ns; 0 for instants
  std::uint64_t arg = 0;      ///< primary payload (see NameInfo::arg_label)
  std::uint32_t name = 0;     ///< intern id (index into the name table)
  std::uint32_t tid = 0;      ///< thread lane (queue index, worker index)
  std::uint32_t arg2 = 0;     ///< secondary payload
  Phase phase = Phase::kInstant;
};
static_assert(sizeof(TraceEvent) <= 40, "TraceEvent grew past its budget");

/// Display metadata of an interned name (strings live here, never in the
/// per-event records).
struct NameInfo {
  std::string category;   ///< Chrome "cat" field (kernel/nic/met/fault/sweep)
  std::string name;       ///< Chrome "name" field
  std::string arg_label;  ///< label of TraceEvent::arg in the args object
  std::string arg2_label; ///< label of TraceEvent::arg2; empty = omitted
};

/// Pre-sized ring-buffer recorder. Construction allocates the buffer and
/// interns the well-known ids; recording is noexcept and alloc-free.
/// Not thread-safe: one Tracer per shard/worker, merged at export.
class Tracer {
 public:
  /// `capacity` bounds the event count; a full ring drops (counted).
  explicit Tracer(std::size_t capacity = 1u << 13);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Register an ad-hoc name; returns its id. Setup-time only.
  std::uint32_t intern(std::string category, std::string name,
                       std::string arg_label = "arg", std::string arg2_label = {});

  /// Record a point event at sim-time `ts`.
  void instant(std::uint32_t name, sim::Time ts, std::uint64_t arg = 0,
               std::uint32_t tid = 0, std::uint32_t arg2 = 0) noexcept {
    if (size_ == buf_.size()) {
      ++dropped_;
      return;
    }
    buf_[size_++] = TraceEvent{ts, 0, arg, name, tid, arg2, Phase::kInstant};
  }

  /// Record a completed span [start, start+dur).
  void span(std::uint32_t name, sim::Time start, sim::Time dur, std::uint64_t arg = 0,
            std::uint32_t tid = 0, std::uint32_t arg2 = 0) noexcept {
    if (size_ == buf_.size()) {
      ++dropped_;
      return;
    }
    buf_[size_++] = TraceEvent{start, dur, arg, name, tid, arg2, Phase::kSpan};
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return buf_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const TraceEvent& event(std::size_t i) const { return buf_[i]; }

  const NameInfo& name_info(std::uint32_t id) const { return names_[id]; }

  /// Recorded events carrying intern id `name` (export sanity checks).
  std::size_t count(std::uint32_t name) const noexcept;

  /// Forget recorded events (capacity and names kept).
  void clear() noexcept {
    size_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<NameInfo> names_;
};

/// RAII wall-clock span, timestamped as ns since a caller-chosen epoch
/// (the sweep run start) so all workers share one timeline. Wall lanes
/// are nondeterministic by nature; they are kept out of every
/// deterministic report path and exist only for --trace-out export.
class WallSpan {
 public:
  WallSpan(Tracer* t, std::chrono::steady_clock::time_point epoch, std::uint32_t name,
           std::uint32_t tid = 0, std::uint64_t arg = 0) noexcept
      : t_(t), epoch_(epoch), name_(name), tid_(tid), arg_(arg),
        t0_(std::chrono::steady_clock::now()) {}

  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

  ~WallSpan() {
    if (t_ == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    const auto ns = [](auto d) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    };
    t_->span(name_, ns(t0_ - epoch_), ns(now - t0_), arg_, tid_);
  }

 private:
  Tracer* t_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t name_;
  std::uint32_t tid_;
  std::uint64_t arg_;
  std::chrono::steady_clock::time_point t0_;
};

/// One process lane of a Chrome trace export: a display name (shard or
/// worker label) plus the tracer whose events fill the lane.
struct TraceProcess {
  std::string name;
  const Tracer* tracer = nullptr;
};

/// Write Chrome trace-event JSON ({"traceEvents": [...]}) for the given
/// process lanes: pid = index + 1, with a process_name metadata record per
/// lane. Timestamps convert ns → µs (Chrome's unit) as exact doubles.
void write_chrome_trace(std::ostream& os, const std::vector<TraceProcess>& processes);

}  // namespace metro::trace
