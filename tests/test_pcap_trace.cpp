// pcap read/write and trace-based workload generation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/experiment.hpp"
#include "net/packet_builder.hpp"
#include "net/pcap.hpp"
#include "nic/port.hpp"
#include "tgen/trace.hpp"

namespace metro {
namespace {

using net::PcapPacket;
using net::PcapReader;
using net::PcapWriter;

PcapPacket make_record(std::int64_t ts, std::size_t len, std::uint8_t fill) {
  PcapPacket p;
  p.timestamp_ns = ts;
  p.data.assign(len, fill);
  return p;
}

TEST(PcapTest, WriteReadRoundTrip) {
  std::stringstream buf;
  {
    PcapWriter writer(buf);
    writer.write(make_record(1'000'000, 60, 0xaa));
    writer.write(make_record(2'500'000, 128, 0xbb));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  const auto packets = PcapReader::read_all(buf);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].timestamp_ns, 1'000'000);
  EXPECT_EQ(packets[0].data.size(), 60u);
  EXPECT_EQ(packets[0].data[10], 0xaa);
  EXPECT_EQ(packets[1].timestamp_ns, 2'500'000);
  EXPECT_EQ(packets[1].data.size(), 128u);
}

TEST(PcapTest, MicrosecondTimestampGranularity) {
  std::stringstream buf;
  {
    PcapWriter writer(buf);
    writer.write(make_record(1234, 60, 0));  // 1234 ns -> 1 us file -> 1000 ns back
  }
  const auto packets = PcapReader::read_all(buf);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].timestamp_ns, 1000);
}

TEST(PcapTest, BadMagicRejected) {
  std::stringstream buf;
  buf.write("not a pcap file at all....", 24);
  EXPECT_THROW(PcapReader reader(buf), std::runtime_error);
}

TEST(PcapTest, TruncatedRecordRejected) {
  std::stringstream buf;
  {
    PcapWriter writer(buf);
    writer.write(make_record(0, 60, 0));
  }
  std::string content = buf.str();
  content.resize(content.size() - 10);  // chop packet bytes
  std::stringstream cut(content);
  PcapReader reader(cut);
  PcapPacket pkt;
  EXPECT_THROW(reader.next(pkt), std::runtime_error);
}

TEST(PcapTest, SnaplenCapsCaplen) {
  std::stringstream buf;
  {
    PcapWriter writer(buf, 32);
    writer.write(make_record(0, 100, 0x7));
  }
  const auto packets = PcapReader::read_all(buf);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].data.size(), 32u);  // caplen, not original length
}

TEST(TraceTest, SynthesisedTraceHasRequestedMix) {
  const auto trace = tgen::synthesise_unbalanced_trace(1000, 0.30, 7);
  ASSERT_EQ(trace.size(), 1000u);
  const auto entries = tgen::parse_trace(trace);
  ASSERT_EQ(entries.size(), 1000u);
  // Count the dominant flow.
  std::size_t heavy = 0;
  for (const auto& e : entries) {
    if (e.tuple.dst_port == 8888) ++heavy;
  }
  EXPECT_NEAR(static_cast<double>(heavy) / 1000.0, 0.30, 0.05);
}

TEST(TraceTest, TraceSurvivesPcapRoundTrip) {
  const auto trace = tgen::synthesise_unbalanced_trace(100, 0.3, 9);
  std::stringstream buf;
  {
    PcapWriter writer(buf);
    for (const auto& rec : trace) writer.write(rec);
  }
  const auto back = PcapReader::read_all(buf);
  const auto a = tgen::parse_trace(trace);
  const auto b = tgen::parse_trace(back);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tuple, b[i].tuple);
    ASSERT_EQ(a[i].rss_hash, b[i].rss_hash);
  }
}

TEST(TraceTest, GeneratorLoopsTheTraceAtRate) {
  auto entries = tgen::parse_trace(tgen::synthesise_unbalanced_trace(10, 0.3, 3));
  ASSERT_EQ(entries.size(), 10u);
  tgen::TraceGenerator gen(entries, 1e6, 25 * sim::kMicrosecond);
  int count = 0;
  sim::Time prev = -1;
  std::uint32_t first_hash = entries[0].rss_hash;
  while (auto pkt = gen.next()) {
    if (count == 0) {
      EXPECT_EQ(pkt->rss_hash, first_hash);
    }
    if (count == 10) {
      EXPECT_EQ(pkt->rss_hash, first_hash);  // looped
    }
    if (prev >= 0) {
      EXPECT_EQ(pkt->arrival - prev, 1000);
    }
    prev = pkt->arrival;
    ++count;
  }
  EXPECT_EQ(count, 25);
}

TEST(TraceTest, MissingExternalPcapFailsLoudly) {
  apps::ExperimentConfig cfg;
  cfg.workload.model = apps::ArrivalModel::kTrace;
  cfg.workload.trace.path = "/nonexistent/metro_no_such_trace.pcap";
  EXPECT_THROW(apps::Testbed bed(cfg), std::runtime_error);
}

TEST(TraceTest, NonIpFramesSkippedByParser) {
  auto trace = tgen::synthesise_unbalanced_trace(5, 0.0, 1);
  PcapPacket arp;
  arp.data.assign(60, 0);
  arp.data[12] = 0x08;
  arp.data[13] = 0x06;  // ARP ethertype
  trace.push_back(arp);
  EXPECT_EQ(tgen::parse_trace(trace).size(), 5u);
}

TEST(TraceTest, RssHashesSpreadAcrossQueues) {
  // The synthetic trace's real headers must RSS-spread like the paper's:
  // heavy flow on one queue, the rest roughly uniform.
  const auto entries = tgen::parse_trace(tgen::synthesise_unbalanced_trace(1000, 0.30, 11));
  std::array<int, 3> counts{};
  for (const auto& e : entries) counts[e.rss_hash % 3]++;
  // The hot queue takes ~30% + ~23% = ~53%, others ~23% each (Table III).
  std::sort(counts.begin(), counts.end());
  EXPECT_GT(counts[2], 400);
  EXPECT_LT(counts[0], 350);
}

TEST(ImixTest, MixMatchesNominalShares) {
  sim::Rng rng(5);
  tgen::ImixSizes imix;
  std::map<int, int> counts;
  const int n = 120000;
  for (int i = 0; i < n; ++i) counts[imix.next(rng)]++;
  EXPECT_NEAR(counts[64] / static_cast<double>(n), 7.0 / 12.0, 0.01);
  EXPECT_NEAR(counts[570] / static_cast<double>(n), 4.0 / 12.0, 0.01);
  EXPECT_NEAR(counts[1518] / static_cast<double>(n), 1.0 / 12.0, 0.01);
}

}  // namespace
}  // namespace metro
