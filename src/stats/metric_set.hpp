/// \file metric_set.hpp
/// Typed metric registry: the telemetry substrate of every layer.
///
/// The paper's whole evaluation is a read-out of counters and
/// distributions — tries, wake-ups, drops, latency histograms — and every
/// layer (kernel-adjacent services, NIC rings, drivers, apps, the
/// experiment harness) contributes some. A MetricSet is one named,
/// registration-ordered collection of those observables:
///
///   * **register at setup, update raw** — layers either create owned
///     metrics (`counter("x")` returns a `std::uint64_t&`) or attach the
///     fields they already have (`attach_counter("x", field_)`); the hot
///     path keeps doing plain `++field_` with zero telemetry overhead and
///     zero steady-state allocations;
///   * **window semantics** — `window_start()` snapshots counter/gauge
///     values and resets distributions; `delta(start)` subtracts counters
///     so a measurement window is two calls, not a hand-copied
///     `*_at_start_` field per counter;
///   * **order-sensitive fingerprint()** — one 64-bit SplitMix64-chained
///     digest over every name, kind and value (histograms bin for bin).
///     Two runs fingerprint equal iff every registered observable is
///     bit-identical, which is what cross-backend / cross-jobs identity
///     checks mean by "the same execution".
///
/// Adding an observable to a layer is one `attach_*` line; it then shows
/// up in snapshots, window deltas, fingerprints and the JSON report with
/// no further edits anywhere.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace metro::stats {

class JsonWriter;

/// What a registry entry measures (fixed at registration).
enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotonically increasing std::uint64_t
  kGauge,      ///< instantaneous double (a level, not a total)
  kSummary,    ///< streaming moments (stats::Summary)
  kHistogram,  ///< binned distribution (stats::Histogram)
};

/// Stable display name of a metric kind ("counter", "gauge", ...).
const char* metric_kind_name(MetricKind kind) noexcept;

/// A point-in-time copy of a MetricSet's values, in registration order.
/// Snapshots own their data: they outlive the set, subtract (window
/// deltas) and fingerprint independently.
class MetricSnapshot {
 public:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;           ///< kCounter value
    double gauge = 0.0;                  ///< kGauge value
    Summary summary;                     ///< kSummary value
    std::optional<Histogram> histogram;  ///< kHistogram value
  };

  std::size_t size() const noexcept { return entries_.size(); }
  const Entry& entry(std::size_t i) const { return entries_[i]; }

  /// Lookup by name; nullptr when absent.
  const Entry* find(std::string_view name) const noexcept;

  /// Typed lookups; throw std::out_of_range on a missing name and
  /// std::invalid_argument on a kind mismatch.
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const Summary& summary(std::string_view name) const;
  const Histogram& histogram(std::string_view name) const;

  /// Overwrite a counter value. Exists for tests that need to *seed* a
  /// perturbation and prove the fingerprint catches it; production code
  /// never mutates snapshots.
  void set_counter(std::string_view name, std::uint64_t value);

  /// This snapshot minus `start`, for a measurement window: counters
  /// subtract, everything else keeps this snapshot's value (distributions
  /// are window-local — the set reset them at window_start()). Throws
  /// std::invalid_argument unless `start` has the identical shape (same
  /// names, kinds and order).
  MetricSnapshot delta(const MetricSnapshot& start) const;

  /// Order-sensitive digest over every name, kind and value — same
  /// algorithm as MetricSet::fingerprint(), so a snapshot fingerprints
  /// equal to the set it was taken from.
  std::uint64_t fingerprint() const;

  /// Emit as one JSON object via the shared writer: counters/gauges as
  /// numbers, summaries as {count, mean, stddev, min, max, sum},
  /// histograms as {count, overflow, bin_width, n_bins, digest} plus the
  /// boxplot quantiles (raw bins stay out of reports; `digest` carries
  /// bin-for-bin identity).
  void write_json(JsonWriter& w) const;

 private:
  friend class MetricSet;
  // The time-series sampler writes per-window deltas into preallocated
  // snapshots in place (no per-sample allocation).
  friend class SeriesRecorder;
  std::vector<Entry> entries_;
};

/// The live registry: layers register (or attach) metrics at setup; the
/// harness snapshots, windows and fingerprints them. Attached metrics are
/// borrowed — the owning layer must outlive the set. Not copyable (owned
/// metric references must stay stable).
class MetricSet {
 public:
  MetricSet() = default;
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  /// Create an owned metric. The returned reference is stable for the
  /// set's lifetime; duplicate names throw std::invalid_argument.
  std::uint64_t& counter(std::string name);
  double& gauge(std::string name);
  Summary& summary(std::string name);
  Histogram& histogram(std::string name, double bin_width, double max_value);

  /// Register an externally-owned metric (a field the layer already
  /// updates on its hot path). The set only reads/resets it; the caller
  /// keeps updating the field directly.
  void attach_counter(std::string name, std::uint64_t& value);
  void attach_gauge(std::string name, double& value);
  void attach_summary(std::string name, Summary& value);
  void attach_histogram(std::string name, Histogram& value);

  std::size_t size() const noexcept { return slots_.size(); }
  MetricKind kind(std::size_t i) const { return slots_[i].kind; }
  const std::string& name(std::size_t i) const { return slots_[i].name; }
  bool contains(std::string_view name) const noexcept;

  /// Copy every value out, in registration order.
  MetricSnapshot snapshot() const;

  /// Refresh a snapshot previously taken from this set *in place*:
  /// overwrites values only, reusing the entry names and histogram
  /// storage, so the steady-state cost is copies — zero allocations.
  /// This is the time-series sampling hot path. Throws
  /// std::invalid_argument if `out`'s shape (names, kinds, order, or a
  /// histogram geometry) no longer matches the registry.
  void snapshot_into(MetricSnapshot& out) const;

  /// Open a measurement window: returns the counter/gauge baseline and
  /// resets every summary and histogram (distributions are per-window;
  /// counters are lifetime totals read through delta()).
  MetricSnapshot window_start();

  /// snapshot() minus `start` (see MetricSnapshot::delta).
  MetricSnapshot delta(const MetricSnapshot& start) const;

  /// Order-sensitive digest of the live values (no snapshot copy).
  std::uint64_t fingerprint() const;

  /// Zero every metric (counters and gauges included).
  void reset();

 private:
  struct Slot {
    std::string name;
    MetricKind kind;
    void* ptr;  // uint64_t* / double* / Summary* / Histogram*
  };

  void add_slot(std::string name, MetricKind kind, void* ptr);

  std::vector<Slot> slots_;
  // Owned storage; deque keeps addresses stable across registrations.
  std::deque<std::uint64_t> owned_counters_;
  std::deque<double> owned_gauges_;
  std::deque<Summary> owned_summaries_;
  std::deque<Histogram> owned_histograms_;
};

}  // namespace metro::stats
