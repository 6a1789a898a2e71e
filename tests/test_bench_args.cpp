// Bench CLI parsing policy (bench/common.hpp): strict, fail-at-launch.
//
// A typoed flag on an overnight sweep used to silently run defaults and
// produce wrong-but-plausible numbers; try_parse_args/try_parse_fast are
// the testable cores behind the exiting wrappers, so the policy is pinned
// here without spawning processes. The shared report helpers
// (sample_of, write_report), the identity gate and the sweep driver's
// jobs gate are pinned here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace metro::bench {
namespace {

/// argv builder: parse("--fast", "--jobs=4") -> try_parse_args result.
struct Parsed {
  bool ok = false;
  Args args;
  std::string error;
};

Parsed parse(std::vector<std::string> flags) {
  std::vector<char*> argv;
  std::string argv0 = "bench_test";
  argv.push_back(argv0.data());
  for (auto& f : flags) argv.push_back(f.data());
  Parsed p;
  p.ok = try_parse_args(static_cast<int>(argv.size()), argv.data(), p.args, p.error);
  return p;
}

TEST(BenchArgsTest, NoFlagsKeepsDefaults) {
  const auto p = parse({});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_FALSE(p.args.fast);
  EXPECT_FALSE(p.args.list);
  EXPECT_EQ(p.args.jobs, 1) << "one worker by default: no one-worker rerun to pay for";
  EXPECT_TRUE(p.args.trace.empty());
  EXPECT_TRUE(p.args.only.empty());
  EXPECT_EQ(p.args.deadline_s, 0.0);
}

TEST(BenchArgsTest, AllFlagsParse) {
  const auto p = parse({"--fast", "--jobs=8", "--trace=cap.pcap", "--only=cbr_lossy,imix_corrupt",
                        "--deadline=30", "--list"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.args.fast);
  EXPECT_TRUE(p.args.list);
  EXPECT_EQ(p.args.jobs, 8);
  EXPECT_EQ(p.args.trace, "cap.pcap");
  ASSERT_EQ(p.args.only.size(), 2u);
  EXPECT_EQ(p.args.only[0], "cbr_lossy");
  EXPECT_EQ(p.args.only[1], "imix_corrupt");
  EXPECT_DOUBLE_EQ(p.args.deadline_s, 30.0);
}

TEST(BenchArgsTest, UnknownFlagRejectedWithTheOffendingSpelling) {
  // The motivating typo: --jbos must not silently run the default jobs.
  const auto p = parse({"--jbos=4"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--jbos=4"), std::string::npos) << p.error;
  ASSERT_FALSE(parse({"--fats"}).ok);
  ASSERT_FALSE(parse({"extra_positional"}).ok);
  ASSERT_FALSE(parse({"--fast", "--nonsense"}).ok) << "later flags are checked too";
}

/// The retired store-selection flag, spelt in two pieces so that no
/// source line names it whole.
const std::string kRetiredFlag = std::string("--") + "backend";

TEST(BenchArgsTest, RetiredBackendSpellingsExitTwo) {
  // The sweeps run on one event store; every spelling that once picked
  // one ("heap", "wheel", "all", and the older "ladder" and "both") is an
  // unknown flag that fails at launch — no bench parses it and quietly
  // runs something else. bench_fig9_adaptation shares this parser.
  for (const char* value : {"=heap", "=wheel", "=all", "=ladder", "=both", ""}) {
    std::string argv0 = "bench_test", f = kRetiredFlag + value;
    std::array<char*, 2> argv{argv0.data(), f.data()};
    EXPECT_EXIT(parse_args(2, argv.data()), ::testing::ExitedWithCode(2),
                "unknown flag '" + kRetiredFlag)
        << f;
  }
}

TEST(BenchArgsTest, JobsMustBeAWholeNumberInRange) {
  EXPECT_EQ(parse({"--jobs=1"}).args.jobs, 1);
  EXPECT_EQ(parse({"--jobs=1024"}).args.jobs, 1024);
  EXPECT_FALSE(parse({"--jobs=0"}).ok);
  EXPECT_FALSE(parse({"--jobs=-2"}).ok);
  EXPECT_FALSE(parse({"--jobs=1025"}).ok);
  EXPECT_FALSE(parse({"--jobs=abc"}).ok);
  EXPECT_FALSE(parse({"--jobs=4x"}).ok) << "trailing garbage is malformed, not ignored";
  EXPECT_FALSE(parse({"--jobs="}).ok);
}

TEST(BenchArgsTest, TraceNeedsAPath) {
  EXPECT_FALSE(parse({"--trace="}).ok);
}

TEST(BenchArgsTest, OnlySplitsOnCommasAndSkipsEmpties) {
  const auto p = parse({"--only=a,,b,"});
  ASSERT_TRUE(p.ok) << p.error;
  ASSERT_EQ(p.args.only.size(), 2u);
  EXPECT_EQ(p.args.only[0], "a");
  EXPECT_EQ(p.args.only[1], "b");
  EXPECT_FALSE(parse({"--only="}).ok);
  EXPECT_FALSE(parse({"--only=,,"}).ok);
}

TEST(BenchArgsTest, DeadlineMustBePositiveSeconds) {
  EXPECT_DOUBLE_EQ(parse({"--deadline=0.5"}).args.deadline_s, 0.5);
  EXPECT_FALSE(parse({"--deadline=0"}).ok);
  EXPECT_FALSE(parse({"--deadline=-1"}).ok);
  EXPECT_FALSE(parse({"--deadline=soon"}).ok);
  EXPECT_FALSE(parse({"--deadline=1.5s"}).ok);
  EXPECT_FALSE(parse({"--deadline="}).ok);
}

TEST(BenchArgsTest, CryptoModeValidated) {
  EXPECT_EQ(parse({}).args.crypto, CryptoMode::kCalibrated) << "calibrated is the default";
  EXPECT_EQ(parse({"--crypto=calibrated"}).args.crypto, CryptoMode::kCalibrated);
  EXPECT_EQ(parse({"--crypto=live"}).args.crypto, CryptoMode::kLive);
  const auto p = parse({"--crypto=lvie"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("lvie"), std::string::npos);
  EXPECT_NE(p.error.find("live"), std::string::npos) << "error lists the valid spellings";
  EXPECT_FALSE(parse({"--crypto="}).ok);
}

TEST(BenchArgsTest, SeriesMustBePositiveMicros) {
  EXPECT_DOUBLE_EQ(parse({}).args.series_us, 0.0) << "series sampling is off by default";
  EXPECT_DOUBLE_EQ(parse({"--series=5000"}).args.series_us, 5000.0);
  EXPECT_DOUBLE_EQ(parse({"--series=0.5"}).args.series_us, 0.5);
  EXPECT_FALSE(parse({"--series=0"}).ok);
  EXPECT_FALSE(parse({"--series=-100"}).ok);
  EXPECT_FALSE(parse({"--series=soon"}).ok);
  EXPECT_FALSE(parse({"--series=5000us"}).ok) << "trailing garbage is malformed";
  EXPECT_FALSE(parse({"--series="}).ok);
  const auto p = parse({"--series=abc"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("abc"), std::string::npos) << p.error;
}

TEST(BenchArgsTest, TraceOutNeedsAPath) {
  EXPECT_TRUE(parse({}).args.trace_out.empty()) << "tracing is off by default";
  EXPECT_EQ(parse({"--trace-out=t.json"}).args.trace_out, "t.json");
  EXPECT_FALSE(parse({"--trace-out="}).ok);
  // --trace-out must not be swallowed by the --trace= prefix (a pcap path
  // named "-out=t.json" would be silently wrong).
  EXPECT_TRUE(parse({"--trace-out=t.json"}).args.trace.empty());
  EXPECT_EQ(parse({"--trace=cap.pcap", "--trace-out=t.json"}).args.trace, "cap.pcap");
}

TEST(BenchArgsTest, FlowsMustBeAPositiveCount) {
  EXPECT_EQ(parse({}).args.flows, 0u) << "registry populations are the default";
  EXPECT_EQ(parse({"--flows=1"}).args.flows, 1u);
  EXPECT_EQ(parse({"--flows=4194304"}).args.flows, 4194304u);
  EXPECT_EQ(parse({"--flows=67108864"}).args.flows, 67108864u) << "2^26 is the ceiling";
  EXPECT_FALSE(parse({"--flows=67108865"}).ok) << "beyond 2^26 is rejected";
  EXPECT_FALSE(parse({"--flows=0"}).ok);
  EXPECT_FALSE(parse({"--flows=-5"}).ok);
  EXPECT_FALSE(parse({"--flows=many"}).ok);
  EXPECT_FALSE(parse({"--flows=1e6"}).ok) << "trailing garbage is malformed";
  EXPECT_FALSE(parse({"--flows="}).ok);
  const auto p = parse({"--flows=abc"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("abc"), std::string::npos) << p.error;
}

TEST(BenchArgsTest, UsageTextMentionsEveryFlag) {
  const std::string usage = usage_text();
  for (const char* flag : {"--fast", "--jobs", "--trace", "--list", "--only", "--deadline",
                           "--crypto", "--series", "--trace-out", "--flows"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(usage.find(kRetiredFlag), std::string::npos);
}

TEST(BenchArgsTest, ParseFastAcceptsOnlyFast) {
  std::string argv0 = "bench_fig", f1 = "--fast";
  std::array<char*, 2> ok_argv{argv0.data(), f1.data()};
  bool fast = false;
  std::string error;
  ASSERT_TRUE(try_parse_fast(2, ok_argv.data(), fast, error));
  EXPECT_TRUE(fast);
  ASSERT_TRUE(try_parse_fast(1, ok_argv.data(), fast, error));
  EXPECT_FALSE(fast) << "no flags: full windows";

  // The single-flag benches reject sweep flags too — --jobs on a bench
  // whose headline is wall time would silently mean nothing.
  std::string f2 = "--jobs=4";
  std::array<char*, 2> bad_argv{argv0.data(), f2.data()};
  ASSERT_FALSE(try_parse_fast(2, bad_argv.data(), fast, error));
  EXPECT_NE(error.find("--jobs=4"), std::string::npos) << error;
}

TEST(BenchStatsTest, SampleOfInterpolatesQuantilesLinearly) {
  EXPECT_DOUBLE_EQ(sample_of({}).median, 0.0);
  EXPECT_DOUBLE_EQ(sample_of({}).iqr, 0.0);
  EXPECT_DOUBLE_EQ(sample_of({7.0}).median, 7.0);
  EXPECT_DOUBLE_EQ(sample_of({7.0}).iqr, 0.0);
  // n = 2: p25/p75 sit a quarter of the way in from either end.
  EXPECT_DOUBLE_EQ(sample_of({3.0, 1.0}).median, 2.0);
  EXPECT_DOUBLE_EQ(sample_of({3.0, 1.0}).iqr, 1.0);
  // n = 3: p25/p75 halfway between neighbouring order statistics.
  EXPECT_DOUBLE_EQ(sample_of({5.0, 1.0, 3.0}).median, 3.0);
  EXPECT_DOUBLE_EQ(sample_of({5.0, 1.0, 3.0}).iqr, 2.0);
}

TEST(BenchStatsTest, SampleOfMatchesNearestRankAtCryptoTrialCounts) {
  // bench_crypto runs 5 (--fast) or 9 trials. There the interpolated
  // quantiles land on order statistics, so BENCH_crypto.json reads the
  // same as under the nearest-rank IQR it used before (p = v[floor(q*n)]).
  const auto nearest_rank_iqr = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto rank = [&](double q) {
      return v[std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())))];
    };
    return rank(0.75) - rank(0.25);
  };
  const std::vector<double> five{10.0, 1.0, 2.0, 20.0, 4.0};
  EXPECT_DOUBLE_EQ(sample_of(five).median, 4.0);
  EXPECT_DOUBLE_EQ(sample_of(five).iqr, 8.0);
  EXPECT_DOUBLE_EQ(sample_of(five).iqr, nearest_rank_iqr(five));
  const std::vector<double> nine{55.0, 1.0, 34.0, 2.0, 21.0, 3.0, 13.0, 5.0, 8.0};
  EXPECT_DOUBLE_EQ(sample_of(nine).median, 8.0);
  EXPECT_DOUBLE_EQ(sample_of(nine).iqr, 18.0);
  EXPECT_DOUBLE_EQ(sample_of(nine).iqr, nearest_rank_iqr(nine));
}

TEST(BenchReportTest, WriteReportWritesTheText) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  write_report(path, "{\"bench\": \"test\"}\n");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\"bench\": \"test\"}\n");
}

TEST(BenchReportTest, UnwritableReportPathExitsOne) {
  // A report that cannot be written must fail the bench, not leave a
  // silently absent BENCH_*.json behind an exit 0.
  const std::string path = ::testing::TempDir() + "no_such_dir/BENCH_test.json";
  EXPECT_EXIT(write_report(path, "{}"), ::testing::ExitedWithCode(1), "cannot open report file");
}

/// Two runs under `key` (a store pair, or two trials), with the given
/// fingerprints and one final clock.
std::vector<scenario::ShardResult> two_runs(std::uint64_t first_fp, std::uint64_t second_fp) {
  std::vector<scenario::ShardResult> r(2);
  r[0].fingerprint = first_fp;
  r[1].fingerprint = second_fp;
  r[0].final_clock = r[1].final_clock = 150'000'000;
  return r;
}

std::vector<GateRun> gate_runs(const std::string& key,
                               const std::vector<scenario::ShardResult>& results) {
  std::vector<GateRun> runs;
  for (const auto& r : results) runs.push_back({key, "run", &r});
  return runs;
}

TEST(IdentityGateTest, EqualFingerprintsPass) {
  const auto results = two_runs(42, 42);
  std::ostringstream err;
  EXPECT_EQ(identity_gate(gate_runs("fig5#3", results), err), 0u);
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST(IdentityGateTest, OneMismatchIsCountedOnceWithItsKey) {
  const auto diverged = two_runs(42, 43);
  const auto same = two_runs(7, 7);
  auto runs = gate_runs("fig5#3", diverged);
  // A second, identical key must not add to the count.
  for (const auto& g : gate_runs("fig5#4", same)) runs.push_back(g);
  std::ostringstream err;
  EXPECT_EQ(identity_gate(runs, err), 1u);
  EXPECT_NE(err.str().find("DIVERGENCE at fig5#3"), std::string::npos) << err.str();
  EXPECT_EQ(err.str().find("fig5#4"), std::string::npos) << err.str();
}

TEST(IdentityGateTest, FinalClockIsPartOfTheIdentity) {
  auto results = two_runs(42, 42);
  results[1].final_clock += 1;
  std::ostringstream err;
  EXPECT_EQ(identity_gate(gate_runs("k", results), err), 1u);
}

TEST(IdentityGateTest, FailedShardsAreLeftToTheFailureCount) {
  auto results = two_runs(42, 0);
  results[1].failed = true;
  std::ostringstream err;
  EXPECT_EQ(identity_gate(gate_runs("k", results), err), 0u);
}

// --- the sweep driver's jobs gate -------------------------------------------

std::vector<scenario::Shard> three_shards() {
  return {scenario::Shard{"cbr_uniform", {}}, scenario::Shard{"mmpp_bursty", {}},
          scenario::Shard{"incast_sync", {}}};
}

TEST(JobsGateTest, IdenticalRunsPass) {
  std::vector<scenario::ShardResult> parallel(3);
  for (std::size_t i = 0; i < parallel.size(); ++i) parallel[i].fingerprint = 100 + i;
  std::ostringstream out, err;
  EXPECT_TRUE(jobs_identical(three_shards(), parallel, parallel, 4, out, err));
  EXPECT_NE(out.str().find("--jobs=4 and --jobs=1 reports are byte-identical"),
            std::string::npos)
      << out.str();
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST(JobsGateTest, OneShardsFingerprintMismatchIsReported) {
  std::vector<scenario::ShardResult> parallel(3);
  for (std::size_t i = 0; i < parallel.size(); ++i) parallel[i].fingerprint = 100 + i;
  auto serial = parallel;
  serial[1].fingerprint = 999;
  std::ostringstream out, err;
  EXPECT_FALSE(jobs_identical(three_shards(), parallel, serial, 4, out, err));
  EXPECT_TRUE(out.str().empty()) << out.str();
  EXPECT_NE(err.str().find("SWEEP NONDETERMINISM: report differs between --jobs=4"),
            std::string::npos)
      << err.str();
}

}  // namespace
}  // namespace metro::bench
