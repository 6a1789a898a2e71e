// Statistics substrate: Summary, Histogram, Ewma, Table.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <stdexcept>
#include <vector>

#include "core/ewma.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace metro {
namespace {

TEST(SummaryTest, EmptyIsZero) {
  stats::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(SummaryTest, BasicMoments) {
  stats::Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, MergeEqualsCombinedStream) {
  sim::Rng rng(3);
  stats::Summary all, a, b;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmptySides) {
  stats::Summary a, b;
  a.add(1.0);
  a.add(3.0);
  stats::Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SummaryTest, NumericallyStableForLargeOffsets) {
  stats::Summary s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 ? 1.0 : -1.0));
  EXPECT_NEAR(s.mean(), 1e9, 1e-3);
  EXPECT_NEAR(s.variance(), 1.001, 0.01);
}

TEST(HistogramTest, PercentilesOfUniformRamp) {
  stats::Histogram h(1.0, 100.0);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.05), 5.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(0.25), 25.0, 1.0);
}

TEST(HistogramTest, BoxplotFields) {
  stats::Histogram h(0.1, 100.0);
  sim::Rng rng(5);
  for (int i = 0; i < 100000; ++i) h.add(rng.normal(50.0, 5.0));
  const auto b = h.boxplot();
  EXPECT_EQ(b.count, 100000u);
  EXPECT_NEAR(b.median, 50.0, 0.3);
  EXPECT_NEAR(b.mean, 50.0, 0.2);
  EXPECT_NEAR(b.p75 - b.p25, 2.0 * 0.6745 * 5.0, 0.3);  // IQR of a normal
  EXPECT_NEAR(b.stddev, 5.0, 0.2);
  EXPECT_LT(b.whisker_lo, b.p25);
  EXPECT_GT(b.whisker_hi, b.p75);
}

TEST(HistogramTest, OverflowCountedNotBinned) {
  stats::Histogram h(1.0, 10.0);
  h.add(5.0);
  h.add(500.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.summary().max(), 500.0);  // exact extremes kept
}

TEST(HistogramTest, DensityIntegratesToOne) {
  stats::Histogram h(0.5, 50.0);
  sim::Rng rng(9);
  for (int i = 0; i < 50000; ++i) h.add(rng.uniform(0.0, 40.0));
  const auto d = h.density();
  double integral = 0.0;
  for (const double v : d) integral += v * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(HistogramTest, ResetClearsEverything) {
  stats::Histogram h(1.0, 10.0);
  h.add(3.0);
  h.add(100.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, NegativeValuesClampToFirstBin) {
  stats::Histogram h(1.0, 10.0);
  h.add(-5.0);
  EXPECT_EQ(h.bin_count(0), 1u);
}
// --- accuracy against a long-double two-pass reference ----------------------
// Each case draws 10^7 samples from a seeded stream and regenerates the
// stream for the reference instead of storing it. Mean and variance must
// agree to 1e-11 relative.

constexpr std::size_t kAccuracyN = 10'000'000;
constexpr double kAccuracyTol = 1e-11;

struct Reference {
  long double mean = 0.0L;
  long double variance = 0.0L;
};

/// Two-pass moments of samples [lo, hi) of the stream `draw(i, rng)` seeded
/// with `seed`, in long double.
template <typename Draw>
Reference two_pass(std::uint64_t seed, std::size_t lo, std::size_t hi, Draw draw) {
  long double sum = 0.0L;
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < hi; ++i) {
    const double x = draw(i, rng);
    if (i >= lo) sum += x;
  }
  const auto n = static_cast<long double>(hi - lo);
  Reference r;
  r.mean = sum / n;
  long double ss = 0.0L;
  rng = sim::Rng(seed);
  for (std::size_t i = 0; i < hi; ++i) {
    const long double d = draw(i, rng) - r.mean;
    if (i >= lo) ss += d * d;
  }
  r.variance = ss / (n - 1.0L);
  return r;
}

void expect_matches(const stats::Summary& s, const Reference& r) {
  EXPECT_LE(std::fabs((s.mean() - r.mean) / r.mean), kAccuracyTol)
      << "mean " << s.mean() << " vs " << static_cast<double>(r.mean);
  EXPECT_LE(std::fabs((s.variance() - r.variance) / r.variance), kAccuracyTol)
      << "variance " << s.variance() << " vs " << static_cast<double>(r.variance);
}

TEST(SummaryAccuracyTest, LargeMeanUnitVariance) {
  const auto draw = [](std::size_t, sim::Rng& rng) { return rng.normal(1e9, 1.0); };
  stats::Summary s;
  sim::Rng rng(21);
  for (std::size_t i = 0; i < kAccuracyN; ++i) s.add(draw(i, rng));
  expect_matches(s, two_pass(21, 0, kAccuracyN, draw));
}

// The first sample sets the initial shift; 10^3 sigma off the mean, only
// the power-of-two re-centring keeps S2 - S1^2/n from cancelling.
TEST(SummaryAccuracyTest, OutlyingFirstSampleIsRecentred) {
  const auto draw = [](std::size_t i, sim::Rng& rng) {
    return i == 0 ? 1e6 + 1e3 : rng.normal(1e6, 1.0);
  };
  stats::Summary s;
  sim::Rng rng(22);
  for (std::size_t i = 0; i < kAccuracyN; ++i) s.add(draw(i, rng));
  expect_matches(s, two_pass(22, 0, kAccuracyN, draw));
}

// Small integers (packets per burst): the re-centre rounds K to a grid the
// samples share, so every x - K and its square are exact. An unrounded K
// adds the same few inexact squares 10^7 times, all rounding one way.
TEST(SummaryAccuracyTest, IntegerSamplesAccumulateExactly) {
  const auto draw = [](std::size_t, sim::Rng& rng) {
    return rng.uniform() < 0.85 ? 32.0 : std::floor(rng.uniform(12.0, 32.0));
  };
  stats::Summary s;
  sim::Rng rng(25);
  for (std::size_t i = 0; i < kAccuracyN; ++i) s.add(draw(i, rng));
  expect_matches(s, two_pass(25, 0, kAccuracyN, draw));
}

// The snapshot is taken at 3e6 samples, so re-centres at 2^22 and 2^23 fall
// inside the window; the window also has its own mean and spread.
TEST(SummaryAccuracyTest, SinceAcrossRecentre) {
  constexpr std::size_t kSnap = 3'000'000;
  const auto draw = [](std::size_t i, sim::Rng& rng) {
    return i < kSnap ? rng.normal(1e9, 1.0) : rng.normal(1e9 + 10.0, 3.0);
  };
  stats::Summary s, snap;
  sim::Rng rng(23);
  for (std::size_t i = 0; i < kAccuracyN; ++i) {
    if (i == kSnap) snap = s;
    s.add(draw(i, rng));
  }
  const stats::Summary w = s.since(snap);
  EXPECT_EQ(w.count(), kAccuracyN - kSnap);
  expect_matches(w, two_pass(23, kSnap, kAccuracyN, draw));
}

// Four contiguous shards with different means (hence different shifts)
// and spreads, merged in order.
TEST(SummaryAccuracyTest, MergeOfShardsWithDifferentShifts) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPerShard = kAccuracyN / kShards;
  const auto draw = [](std::size_t i, sim::Rng& rng) {
    const auto shard = static_cast<double>(i / kPerShard);
    return rng.normal(1e9 + 100.0 * shard, 1.0 + shard);
  };
  std::vector<stats::Summary> shards(kShards);
  sim::Rng rng(24);
  for (std::size_t i = 0; i < kAccuracyN; ++i) shards[i / kPerShard].add(draw(i, rng));
  stats::Summary merged = shards[0];
  for (std::size_t k = 1; k < kShards; ++k) merged.merge(shards[k]);
  EXPECT_EQ(merged.count(), kAccuracyN);
  expect_matches(merged, two_pass(24, 0, kAccuracyN, draw));
}

// since_into is the geometry policy's shipping path (the time-series
// sampler): a bin-width, bin-count or `out` mismatch throws rather than
// resampling, and matching geometry writes the exact delta.
TEST(HistogramTest, SinceIntoRejectsGeometryMismatch) {
  stats::Histogram now(1.0, 10.0), out(1.0, 10.0);
  now.add(3.0);
  const stats::Histogram earlier = now;
  // Only the bin width differs, then only the bin count.
  stats::Histogram wide(2.0, 20.0), longer(1.0, 20.0);
  ASSERT_EQ(wide.n_bins(), now.n_bins());
  EXPECT_THROW(now.since_into(wide, out), std::invalid_argument);  // as `earlier`
  EXPECT_THROW(now.since_into(longer, out), std::invalid_argument);
  EXPECT_THROW(now.since_into(earlier, wide), std::invalid_argument);  // as `out`
  EXPECT_THROW(now.since_into(earlier, longer), std::invalid_argument);
  now.add(5.0);
  now.since_into(earlier, out);  // identical geometry is fine
  EXPECT_EQ(out.count(), 1u);
  EXPECT_EQ(out.bin_count(3), 0u);
  EXPECT_EQ(out.bin_count(5), 1u);
}

TEST(HistogramTest, ConstructorRejectsBadGeometry) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double width : {0.0, -1.0, kInf, kNan}) {
    EXPECT_THROW(stats::Histogram(width, 10.0), std::invalid_argument) << "bin_width " << width;
  }
  for (const double max : {kInf, kNan, 0.5, 0.0, -10.0}) {
    EXPECT_THROW(stats::Histogram(1.0, max), std::invalid_argument) << "max_value " << max;
  }
  EXPECT_THROW(stats::Histogram(1e-300, 1e300), std::invalid_argument);  // bin count overflows
  try {
    stats::Histogram(0.0, 10.0);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bin_width"), std::string::npos) << e.what();
  }
  EXPECT_EQ(stats::Histogram(1.0, 1.0).n_bins(), 2u);  // max_value == bin_width is fine
}

TEST(EwmaTest, FirstSamplePrimes) {
  core::Ewma e(0.1);
  e.update(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);  // not 0.9*0 + 0.1*5
}

TEST(EwmaTest, ConvergesToConstantInput) {
  core::Ewma e(0.2, 0.0);
  for (int i = 0; i < 200; ++i) e.update(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-9);
}

TEST(EwmaTest, StepResponseTimeConstant) {
  core::Ewma e(0.1);
  e.update(0.0);
  int steps = 0;
  while (e.value() < 0.63 && steps < 1000) {
    e.update(1.0);
    ++steps;
  }
  // ~1/alpha samples to reach 1 - 1/e of a unit step.
  EXPECT_NEAR(steps, 10, 3);
}

TEST(EwmaTest, ResetUnprimes) {
  core::Ewma e(0.5);
  e.update(10.0);
  e.reset();
  e.update(2.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

TEST(TableTest, AlignedOutputContainsCells) {
  stats::Table t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  stats::Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(stats::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(stats::Table::num(3.0, 0), "3");
}

}  // namespace
}  // namespace metro
