// Fixed-resolution histogram with percentile queries and boxplot stats.
//
// Values are binned linearly at a configurable resolution over [0, max);
// out-of-range values are counted in a saturating overflow bin, and exact
// min/max/mean are tracked on the side so reported extremes are not
// quantised. Sufficient for latency distributions where the paper reports
// boxplots (median, quartiles, whiskers) and density plots (Fig. 4).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace metro::stats {

struct Boxplot {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double whisker_lo = 0.0;  // p5
  double whisker_hi = 0.0;  // p95
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t count = 0;
};

class Histogram {
 public:
  /// `bin_width` and `max_value` are in the caller's unit (we use us).
  /// Throws std::invalid_argument unless bin_width is finite and positive
  /// and max_value is finite and at least bin_width.
  Histogram(double bin_width, double max_value)
      : bin_width_(bin_width), bins_(checked_bin_count(bin_width, max_value), 0) {}

  // Copies stay geometry-identical but only move the touched bin prefix:
  // the default latency geometry is 100k bins (~0.8 MB) of which a run
  // touches a few thousand, and the time-series sampler copies histograms
  // once per window. Bins at or above touched_bins() are zero by
  // invariant, so the prefix copy (plus zeroing any stale tail of the
  // destination) reproduces the full state.
  Histogram(const Histogram& other)
      : bin_width_(other.bin_width_),
        bins_(other.bins_.size(), 0),
        overflow_(other.overflow_),
        summary_(other.summary_),
        hi_(other.hi_) {
    std::copy(other.bins_.begin(), other.bins_.begin() + static_cast<std::ptrdiff_t>(hi_),
              bins_.begin());
  }

  Histogram& operator=(const Histogram& other) {
    if (this == &other) return *this;
    if (bins_.size() == other.bins_.size()) {
      // In-place: overwrite the source's touched prefix, zero whatever my
      // previous contents touched above it. Never allocates — this is the
      // alloc-free refresh path of MetricSet::snapshot_into.
      std::copy(other.bins_.begin(),
                other.bins_.begin() + static_cast<std::ptrdiff_t>(other.hi_), bins_.begin());
      if (hi_ > other.hi_) {
        std::fill(bins_.begin() + static_cast<std::ptrdiff_t>(other.hi_),
                  bins_.begin() + static_cast<std::ptrdiff_t>(hi_), 0);
      }
    } else {
      bins_.assign(other.bins_.size(), 0);
      std::copy(other.bins_.begin(),
                other.bins_.begin() + static_cast<std::ptrdiff_t>(other.hi_), bins_.begin());
    }
    bin_width_ = other.bin_width_;
    overflow_ = other.overflow_;
    summary_ = other.summary_;
    hi_ = other.hi_;
    return *this;
  }

  Histogram(Histogram&&) = default;
  Histogram& operator=(Histogram&&) = default;

  void add(double x) {
    summary_.add(x);
    std::size_t idx = x <= 0.0 ? 0 : static_cast<std::size_t>(x / bin_width_);
    if (idx >= bins_.size()) {
      ++overflow_;
      return;
    }
    ++bins_[idx];
    if (idx >= hi_) hi_ = idx + 1;
  }

  std::uint64_t count() const noexcept { return summary_.count(); }
  const Summary& summary() const noexcept { return summary_; }
  std::uint64_t overflow() const noexcept { return overflow_; }

  /// Value at quantile q in [0, 1] (linear within the bin).
  double percentile(double q) const {
    const std::uint64_t total = summary_.count();
    if (total == 0) return 0.0;
    const double target = q * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      const double next = cum + static_cast<double>(bins_[i]);
      if (next >= target && bins_[i] > 0) {
        const double frac = (target - cum) / static_cast<double>(bins_[i]);
        return (static_cast<double>(i) + frac) * bin_width_;
      }
      cum = next;
    }
    return summary_.max();
  }

  Boxplot boxplot() const {
    Boxplot b;
    b.p25 = percentile(0.25);
    b.median = percentile(0.50);
    b.p75 = percentile(0.75);
    b.whisker_lo = percentile(0.05);
    b.whisker_hi = percentile(0.95);
    b.mean = summary_.mean();
    b.stddev = summary_.stddev();
    b.count = summary_.count();
    return b;
  }

  /// Normalised density per bin (integrates to ~1 over the covered range).
  std::vector<double> density() const {
    std::vector<double> d(bins_.size(), 0.0);
    const double total = static_cast<double>(summary_.count());
    if (total == 0.0) return d;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      d[i] = static_cast<double>(bins_[i]) / (total * bin_width_);
    }
    return d;
  }

  /// Write `this - earlier` into `out`, where `earlier` is a previous
  /// snapshot of this same histogram (bins are monotonic between resets,
  /// so the bin-wise subtraction is exact; the side Summary subtracts by
  /// Summary::since). `out` must already have the matching geometry —
  /// writes happen in place and never allocate, which is what lets the
  /// time-series sampler run inside the alloc-free window. Throws
  /// std::invalid_argument on any geometry mismatch.
  void since_into(const Histogram& earlier, Histogram& out) const {
    if (earlier.bin_width_ != bin_width_ || earlier.bins_.size() != bins_.size() ||
        out.bin_width_ != bin_width_ || out.bins_.size() != bins_.size()) {
      throw std::invalid_argument(
          "Histogram::since_into: geometry mismatch (bin_width " +
          std::to_string(bin_width_) + "/" + std::to_string(earlier.bin_width_) + "/" +
          std::to_string(out.bin_width_) + ", bins " + std::to_string(bins_.size()) + "/" +
          std::to_string(earlier.bins_.size()) + "/" + std::to_string(out.bins_.size()) + ")");
    }
    // `earlier` is an older snapshot of *this, so its touched range is a
    // prefix of ours (bins beyond it read zero either way); `out` may hold
    // a stale previous delta whose tail must be cleared.
    for (std::size_t i = 0; i < hi_; ++i) {
      out.bins_[i] = bins_[i] - earlier.bins_[i];
    }
    if (out.hi_ > hi_) {
      std::fill(out.bins_.begin() + static_cast<std::ptrdiff_t>(hi_),
                out.bins_.begin() + static_cast<std::ptrdiff_t>(out.hi_), 0);
    }
    out.hi_ = hi_;
    out.overflow_ = overflow_ - earlier.overflow_;
    out.summary_ = summary_.since(earlier.summary_);
  }

  double bin_width() const noexcept { return bin_width_; }
  std::size_t n_bins() const noexcept { return bins_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return bins_[i]; }

  /// One past the highest bin written since construction or reset() —
  /// every bin at or above this index is zero. Deterministic (a pure
  /// function of the recorded values), so fingerprints may hash just the
  /// touched prefix plus this watermark without weakening the identity
  /// gates.
  std::size_t touched_bins() const noexcept { return hi_; }

  void reset() {
    summary_.reset();
    overflow_ = 0;
    std::fill(bins_.begin(), bins_.begin() + static_cast<std::ptrdiff_t>(hi_), 0);
    hi_ = 0;
  }

 private:
  static std::size_t checked_bin_count(double bin_width, double max_value) {
    if (!std::isfinite(bin_width) || bin_width <= 0.0) {
      throw std::invalid_argument("Histogram: bin_width must be finite and > 0, got " +
                                  std::to_string(bin_width));
    }
    if (!std::isfinite(max_value) || max_value < bin_width) {
      throw std::invalid_argument("Histogram: max_value must be finite and >= bin_width (" +
                                  std::to_string(bin_width) + "), got " +
                                  std::to_string(max_value));
    }
    const double bins = max_value / bin_width;
    // The cast below is undefined for a value past size_t's range.
    if (!(bins < 0x1p62)) {
      throw std::invalid_argument("Histogram: max_value / bin_width = " + std::to_string(bins) +
                                  " bins does not fit a size_t");
    }
    return static_cast<std::size_t>(bins) + 1;
  }

  double bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t overflow_ = 0;
  Summary summary_;
  std::size_t hi_ = 0;  ///< touched-bin watermark; see touched_bins()
};

}  // namespace metro::stats
