// Streaming moment statistics as shifted sums.
//
// Used for every scalar the experiments report: vacation/busy period
// durations, per-packet latency means, CPU percentages, ... The hot
// callers record one sample per packet, so add() must not divide:
// Welford's `mean += delta / n` puts a ~20-cycle divide on a chain that
// each sample waits on. Instead the moments are kept about a shift K as
// S1 = sum(x - K) and S2 = sum((x - K)^2), and mean/variance divide only
// when read. Shifted sums lose precision when K sits far from the mean
// (S2 - S1^2/n cancels), so K is moved to the running mean (rounded; see
// recentre()) each time the count reaches a power of two: the first
// re-centre (n = 1) puts K on the first sample, later ones pull a badly
// placed first sample onto the mean after a handful of doublings. That is
// one well-predicted branch per add and ~log2(n) re-centres per stream.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace metro::stats {

class Summary {
 public:
  void add(double x) {
    const double d = x - k_;
    s1_ += d;
    s2_ += d * d;
    ++count_;
    if ((count_ & (count_ - 1)) == 0) [[unlikely]] recentre();
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const Summary& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    Summary b = other;
    b.shift_to(k_);
    count_ += b.count_;
    s1_ += b.s1_;
    s2_ += b.s2_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  /// Window statistics of this summary minus an `earlier` snapshot of the
  /// *same* stream. count and sum are exact. The earlier snapshot is first
  /// moved to this summary's shift (a re-centre may have fallen between
  /// the two), after which S1 and S2 of the window are plain differences;
  /// variance() clamps the recovered second moment at zero against
  /// floating-point cancellation. min/max are NOT window-recoverable from
  /// moments, so the run-so-far extremes are kept — merging every window
  /// still yields the exact run extremes (min of mins).
  Summary since(const Summary& earlier) const {
    if (earlier.count_ == 0) return *this;
    Summary out;
    out.count_ = count_ - earlier.count_;
    out.min_ = min_;
    out.max_ = max_;
    if (out.count_ == 0) return out;
    Summary e = earlier;
    e.shift_to(k_);
    out.sum_ = sum_ - earlier.sum_;
    out.k_ = k_;
    out.s1_ = s1_ - e.s1_;
    out.s2_ = s2_ - e.s2_;
    return out;
  }

  void reset() { *this = Summary{}; }

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? k_ + s1_ / static_cast<double>(count_) : 0.0; }
  double sum() const noexcept { return sum_; }
  double variance() const noexcept {
    if (count_ < 2) return 0.0;
    const double m2 = s2_ - s1_ * (s1_ / static_cast<double>(count_));
    return std::max(0.0, m2) / static_cast<double>(count_ - 1);
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  /// Move K to the running mean, rounded to a multiple of 2^floor(log2 s),
  /// s the running standard deviation. That K is within s/2 of the mean,
  /// close enough to keep S2 - S1^2/n well conditioned, and it has few
  /// significant bits: a stream on a coarser grid than K's (integer
  /// counts such as burst fill, with s >= 1) then accumulates x - K and
  /// its square exactly. With an unrounded K the same few distinct
  /// squares are added over and over, every addition rounds the same
  /// way, and the variance drifts by ~1e-11 over a million samples.
  void recentre() {
    const double n = static_cast<double>(count_);
    const double mean = k_ + s1_ / n;
    const double m2 = s2_ - s1_ * (s1_ / n);
    double k = mean;
    if (m2 > 0.0 && std::isfinite(m2)) {
      const double step = std::ldexp(1.0, std::ilogb(std::sqrt(m2 / n)));
      const double q = mean / step;
      // |q| >= 2^52: mean is already a multiple of step.
      if (std::fabs(q) < 0x1p52) k = std::round(q) * step;
    }
    shift_to(k);
  }

  /// Re-express S1/S2 about a new shift: with d = k - K,
  /// sum(x - k) = S1 - n*d and sum((x - k)^2) = S2 - 2*d*S1 + n*d^2.
  /// Exact algebra for any k, so after a re-centre S1 is not zero: it
  /// keeps the distance between the rounded K and the mean.
  void shift_to(double k) {
    const double n = static_cast<double>(count_);
    const double d = k - k_;
    s2_ += d * (n * d - 2.0 * s1_);
    s1_ -= n * d;
    k_ = k;
  }

  std::uint64_t count_ = 0;
  double k_ = 0.0;   ///< shift K
  double s1_ = 0.0;  ///< sum(x - K)
  double s2_ = 0.0;  ///< sum((x - K)^2)
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace metro::stats
