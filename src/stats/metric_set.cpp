#include "stats/metric_set.hpp"

#include <bit>
#include <stdexcept>

#include "stats/json_writer.hpp"
#include "util/seed_mix.hpp"

namespace metro::stats {

namespace {

// --- fingerprint accumulator ------------------------------------------------
// One algorithm for live sets and snapshots: a SplitMix64 chain over every
// name byte, kind tag and value, in registration order. Doubles hash by
// bit pattern, so "bit-identical" is literal.

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return util::splitmix64(h ^ v); }

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_string(std::uint64_t h, std::string_view s) {
  h = mix(h, s.size());
  // FNV-1a over the bytes, folded once: cheaper than a splitmix step per
  // character and still order/content sensitive.
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 0x100000001b3ULL;
  }
  return mix(h, fnv);
}

std::uint64_t mix_summary(std::uint64_t h, const Summary& s) {
  h = mix(h, s.count());
  h = mix_double(h, s.sum());
  h = mix_double(h, s.mean());
  h = mix_double(h, s.variance());
  h = mix_double(h, s.min());
  return mix_double(h, s.max());
}

std::uint64_t mix_histogram(std::uint64_t h, const Histogram& hist) {
  h = mix_double(h, hist.bin_width());
  h = mix(h, hist.n_bins());
  // Bins at or above the touched watermark are zero by invariant, and the
  // watermark itself is a deterministic function of the recorded values —
  // hashing the prefix plus the watermark covers the full bin array at a
  // cost that scales with the data, not the geometry (the default latency
  // histogram is 100k bins of which a run touches a few thousand; the
  // per-window series fingerprints walk this for every sample).
  const std::size_t hi = hist.touched_bins();
  h = mix(h, hi);
  for (std::size_t i = 0; i < hi; ++i) h = mix(h, hist.bin_count(i));
  h = mix(h, hist.overflow());
  return mix_summary(h, hist.summary());
}

/// Digest of a single histogram's bins (reports carry this instead of the
/// raw bin array).
std::uint64_t histogram_digest(const Histogram& hist) {
  return mix_histogram(util::splitmix64(0x486973746f6772ULL), hist);
}

[[noreturn]] void throw_kind_mismatch(std::string_view name, MetricKind want, MetricKind got) {
  throw std::invalid_argument("metric '" + std::string(name) + "' is a " +
                              metric_kind_name(got) + ", not a " + metric_kind_name(want));
}

}  // namespace

const char* metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kSummary: return "summary";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// --- MetricSnapshot ---------------------------------------------------------

const MetricSnapshot::Entry* MetricSnapshot::find(std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {
const MetricSnapshot::Entry& require(const MetricSnapshot& snap, std::string_view name,
                                     MetricKind want) {
  const MetricSnapshot::Entry* e = snap.find(name);
  if (e == nullptr) {
    throw std::out_of_range("no metric named '" + std::string(name) + "' in snapshot");
  }
  if (e->kind != want) throw_kind_mismatch(name, want, e->kind);
  return *e;
}
}  // namespace

std::uint64_t MetricSnapshot::counter(std::string_view name) const {
  return require(*this, name, MetricKind::kCounter).counter;
}

double MetricSnapshot::gauge(std::string_view name) const {
  return require(*this, name, MetricKind::kGauge).gauge;
}

const Summary& MetricSnapshot::summary(std::string_view name) const {
  return require(*this, name, MetricKind::kSummary).summary;
}

const Histogram& MetricSnapshot::histogram(std::string_view name) const {
  return *require(*this, name, MetricKind::kHistogram).histogram;
}

void MetricSnapshot::set_counter(std::string_view name, std::uint64_t value) {
  const_cast<Entry&>(require(*this, name, MetricKind::kCounter)).counter = value;
}

MetricSnapshot MetricSnapshot::delta(const MetricSnapshot& start) const {
  if (start.entries_.size() != entries_.size()) {
    throw std::invalid_argument("MetricSnapshot::delta: shape mismatch (" +
                                std::to_string(entries_.size()) + " vs " +
                                std::to_string(start.entries_.size()) + " entries)");
  }
  MetricSnapshot out = *this;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& s = start.entries_[i];
    Entry& e = out.entries_[i];
    if (e.name != s.name || e.kind != s.kind) {
      throw std::invalid_argument("MetricSnapshot::delta: entry " + std::to_string(i) +
                                  " mismatch ('" + e.name + "' vs '" + s.name + "')");
    }
    if (e.kind == MetricKind::kCounter) e.counter -= s.counter;
  }
  return out;
}

std::uint64_t MetricSnapshot::fingerprint() const {
  std::uint64_t h = util::splitmix64(entries_.size());
  for (const Entry& e : entries_) {
    h = mix_string(h, e.name);
    h = mix(h, static_cast<std::uint64_t>(e.kind));
    switch (e.kind) {
      case MetricKind::kCounter: h = mix(h, e.counter); break;
      case MetricKind::kGauge: h = mix_double(h, e.gauge); break;
      case MetricKind::kSummary: h = mix_summary(h, e.summary); break;
      case MetricKind::kHistogram: h = mix_histogram(h, *e.histogram); break;
    }
  }
  return h;
}

void MetricSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        w.kv(e.name, e.counter);
        break;
      case MetricKind::kGauge:
        w.kv(e.name, e.gauge);
        break;
      case MetricKind::kSummary:
        w.key(e.name).begin_object();
        w.kv("count", e.summary.count());
        w.kv("mean", e.summary.mean());
        w.kv("stddev", e.summary.stddev());
        w.kv("min", e.summary.min());
        w.kv("max", e.summary.max());
        w.kv("sum", e.summary.sum());
        w.end_object();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e.histogram;
        const Boxplot b = h.boxplot();
        w.key(e.name).begin_object();
        w.kv("count", h.count());
        w.kv("overflow", h.overflow());
        w.kv("bin_width", h.bin_width());
        w.kv("n_bins", static_cast<std::uint64_t>(h.n_bins()));
        w.kv("digest", histogram_digest(h));
        w.kv("p5", b.whisker_lo);
        w.kv("p25", b.p25);
        w.kv("median", b.median);
        w.kv("p75", b.p75);
        w.kv("p95", b.whisker_hi);
        w.kv("mean", b.mean);
        w.end_object();
        break;
      }
    }
  }
  w.end_object();
}

// --- MetricSet --------------------------------------------------------------

void MetricSet::add_slot(std::string name, MetricKind kind, void* ptr) {
  if (contains(name)) {
    throw std::invalid_argument("metric '" + name + "' registered twice");
  }
  slots_.push_back(Slot{std::move(name), kind, ptr});
}

std::uint64_t& MetricSet::counter(std::string name) {
  std::uint64_t& v = owned_counters_.emplace_back(0);
  add_slot(std::move(name), MetricKind::kCounter, &v);
  return v;
}

double& MetricSet::gauge(std::string name) {
  double& v = owned_gauges_.emplace_back(0.0);
  add_slot(std::move(name), MetricKind::kGauge, &v);
  return v;
}

Summary& MetricSet::summary(std::string name) {
  Summary& v = owned_summaries_.emplace_back();
  add_slot(std::move(name), MetricKind::kSummary, &v);
  return v;
}

Histogram& MetricSet::histogram(std::string name, double bin_width, double max_value) {
  Histogram& v = owned_histograms_.emplace_back(bin_width, max_value);
  add_slot(std::move(name), MetricKind::kHistogram, &v);
  return v;
}

void MetricSet::attach_counter(std::string name, std::uint64_t& value) {
  add_slot(std::move(name), MetricKind::kCounter, &value);
}

void MetricSet::attach_gauge(std::string name, double& value) {
  add_slot(std::move(name), MetricKind::kGauge, &value);
}

void MetricSet::attach_summary(std::string name, Summary& value) {
  add_slot(std::move(name), MetricKind::kSummary, &value);
}

void MetricSet::attach_histogram(std::string name, Histogram& value) {
  add_slot(std::move(name), MetricKind::kHistogram, &value);
}

bool MetricSet::contains(std::string_view name) const noexcept {
  for (const Slot& s : slots_) {
    if (s.name == name) return true;
  }
  return false;
}

MetricSnapshot MetricSet::snapshot() const {
  MetricSnapshot out;
  out.entries_.reserve(slots_.size());
  for (const Slot& s : slots_) {
    MetricSnapshot::Entry e;
    e.name = s.name;
    e.kind = s.kind;
    switch (s.kind) {
      case MetricKind::kCounter: e.counter = *static_cast<const std::uint64_t*>(s.ptr); break;
      case MetricKind::kGauge: e.gauge = *static_cast<const double*>(s.ptr); break;
      case MetricKind::kSummary: e.summary = *static_cast<const Summary*>(s.ptr); break;
      case MetricKind::kHistogram:
        e.histogram.emplace(*static_cast<const Histogram*>(s.ptr));
        break;
    }
    out.entries_.push_back(std::move(e));
  }
  return out;
}

void MetricSet::snapshot_into(MetricSnapshot& out) const {
  if (out.entries_.size() != slots_.size()) {
    throw std::invalid_argument("MetricSet::snapshot_into: shape mismatch (" +
                                std::to_string(out.entries_.size()) + " entries vs " +
                                std::to_string(slots_.size()) + " registered)");
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    MetricSnapshot::Entry& e = out.entries_[i];
    if (e.name != s.name || e.kind != s.kind) {
      throw std::invalid_argument("MetricSet::snapshot_into: entry " + std::to_string(i) +
                                  " mismatch ('" + e.name + "' vs '" + s.name + "')");
    }
    switch (s.kind) {
      case MetricKind::kCounter: e.counter = *static_cast<const std::uint64_t*>(s.ptr); break;
      case MetricKind::kGauge: e.gauge = *static_cast<const double*>(s.ptr); break;
      case MetricKind::kSummary: e.summary = *static_cast<const Summary*>(s.ptr); break;
      case MetricKind::kHistogram: {
        const Histogram& src = *static_cast<const Histogram*>(s.ptr);
        if (!e.histogram.has_value() || e.histogram->bin_width() != src.bin_width() ||
            e.histogram->n_bins() != src.n_bins()) {
          throw std::invalid_argument("MetricSet::snapshot_into: metric '" + s.name +
                                      "': histogram geometry changed");
        }
        // Equal-geometry Histogram assignment reuses the existing bin
        // storage and copies only the touched prefix: the refresh stays
        // allocation-free and scales with the data, not the geometry.
        *e.histogram = src;
        break;
      }
    }
  }
}

MetricSnapshot MetricSet::window_start() {
  for (const Slot& s : slots_) {
    if (s.kind == MetricKind::kSummary) {
      static_cast<Summary*>(s.ptr)->reset();
    } else if (s.kind == MetricKind::kHistogram) {
      static_cast<Histogram*>(s.ptr)->reset();
    }
  }
  return snapshot();
}

MetricSnapshot MetricSet::delta(const MetricSnapshot& start) const {
  return snapshot().delta(start);
}

std::uint64_t MetricSet::fingerprint() const {
  std::uint64_t h = util::splitmix64(slots_.size());
  for (const Slot& s : slots_) {
    h = mix_string(h, s.name);
    h = mix(h, static_cast<std::uint64_t>(s.kind));
    switch (s.kind) {
      case MetricKind::kCounter: h = mix(h, *static_cast<const std::uint64_t*>(s.ptr)); break;
      case MetricKind::kGauge: h = mix_double(h, *static_cast<const double*>(s.ptr)); break;
      case MetricKind::kSummary: h = mix_summary(h, *static_cast<const Summary*>(s.ptr)); break;
      case MetricKind::kHistogram:
        h = mix_histogram(h, *static_cast<const Histogram*>(s.ptr));
        break;
    }
  }
  return h;
}

void MetricSet::reset() {
  for (const Slot& s : slots_) {
    switch (s.kind) {
      case MetricKind::kCounter: *static_cast<std::uint64_t*>(s.ptr) = 0; break;
      case MetricKind::kGauge: *static_cast<double*>(s.ptr) = 0.0; break;
      case MetricKind::kSummary: static_cast<Summary*>(s.ptr)->reset(); break;
      case MetricKind::kHistogram: static_cast<Histogram*>(s.ptr)->reset(); break;
    }
  }
}

}  // namespace metro::stats
