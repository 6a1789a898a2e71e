// Packet substrate: byte order, headers, checksums, packet buffer, flow
// extraction.
#include <gtest/gtest.h>

#include <cstring>

#include "net/byteorder.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"

namespace metro::net {
namespace {

TEST(ByteOrderTest, Swaps) {
  EXPECT_EQ(bswap16(0x1234), 0x3412);
  EXPECT_EQ(bswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(be16_to_host(host_to_be16(0xabcd)), 0xabcd);
  EXPECT_EQ(be32_to_host(host_to_be32(0xdeadbeefu)), 0xdeadbeefu);
}

TEST(ChecksumTest, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 §3: 0x0001 f203 f4f5 f6f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // One's-complement sum is 0xddf2; checksum is its complement.
  EXPECT_EQ(internet_checksum(data, sizeof(data)), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0xab};
  EXPECT_EQ(internet_checksum(data, 1), static_cast<std::uint16_t>(~0xab00 & 0xffff));
}

TEST(ChecksumTest, Ipv4HeaderRoundTrip) {
  Ipv4Header ip{};
  ip.version_ihl = 0x45;
  ip.total_length = host_to_be16(60);
  ip.ttl = 64;
  ip.protocol = kIpProtoUdp;
  ip.src = host_to_be32(ipv4_addr(192, 168, 0, 1));
  ip.dst = host_to_be32(ipv4_addr(10, 0, 0, 1));
  ipv4_set_checksum(ip);
  EXPECT_TRUE(ipv4_checksum_ok(ip));
  ip.ttl = 63;  // corrupt
  EXPECT_FALSE(ipv4_checksum_ok(ip));
}

TEST(ChecksumTest, IncrementalUpdateMatchesRecompute) {
  Ipv4Header ip{};
  ip.version_ihl = 0x45;
  ip.total_length = host_to_be16(60);
  ip.ttl = 64;
  ip.protocol = kIpProtoUdp;
  ip.src = host_to_be32(ipv4_addr(1, 2, 3, 4));
  ip.dst = host_to_be32(ipv4_addr(5, 6, 7, 8));
  ipv4_set_checksum(ip);

  // Decrement TTL via RFC 1624 on the shared ttl/protocol word.
  const std::uint16_t old_word =
      static_cast<std::uint16_t>((static_cast<std::uint16_t>(ip.ttl) << 8) | ip.protocol);
  ip.ttl = 63;
  const std::uint16_t new_word =
      static_cast<std::uint16_t>((static_cast<std::uint16_t>(ip.ttl) << 8) | ip.protocol);
  ip.checksum = host_to_be16(checksum_update16(be16_to_host(ip.checksum), old_word, new_word));
  EXPECT_TRUE(ipv4_checksum_ok(ip));
}

TEST(ChecksumTest, IncrementalUpdateManyValues) {
  for (std::uint16_t oldv = 0; oldv < 64; ++oldv) {
    std::uint8_t buf[4] = {0x12, 0x34, static_cast<std::uint8_t>(oldv >> 8),
                           static_cast<std::uint8_t>(oldv)};
    const std::uint16_t c_old = internet_checksum(buf, 4);
    const std::uint16_t newv = static_cast<std::uint16_t>(oldv * 7 + 123);
    buf[2] = static_cast<std::uint8_t>(newv >> 8);
    buf[3] = static_cast<std::uint8_t>(newv);
    const std::uint16_t c_new = internet_checksum(buf, 4);
    EXPECT_EQ(checksum_update16(c_old, oldv, newv), c_new);
  }
}

TEST(PacketTest, AssignAndAccess) {
  Packet p;
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  p.assign(payload, sizeof(payload));
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(std::memcmp(p.data(), payload, 5), 0);
  EXPECT_EQ(p.headroom(), Packet::kHeadroom);
}

TEST(PacketTest, PrependAndAdjRoundTrip) {
  Packet p;
  p.fill(0xaa, 100);
  auto* hdr = p.prepend(20);
  std::memset(hdr, 0xbb, 20);
  EXPECT_EQ(p.size(), 120u);
  EXPECT_EQ(p.data()[0], 0xbb);
  p.adj(20);
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(p.data()[0], 0xaa);
}

TEST(PacketTest, AppendAndTrim) {
  Packet p;
  p.fill(0x11, 10);
  auto* tail = p.append(6);
  std::memset(tail, 0x22, 6);
  EXPECT_EQ(p.size(), 16u);
  EXPECT_EQ(p.data()[15], 0x22);
  p.trim(6);
  EXPECT_EQ(p.size(), 10u);
}

TEST(PacketTest, ResetRestoresHeadroom) {
  Packet p;
  p.fill(1, 50);
  p.prepend(10);
  p.reset();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.headroom(), Packet::kHeadroom);
}

TEST(FlowTest, ExtractFiveTupleFromUdp) {
  Packet p;
  p.fill(0, 64);
  auto* eth = p.at<EthernetHeader>(0);
  eth->ether_type = host_to_be16(kEtherTypeIpv4);
  auto* ip = p.at<Ipv4Header>(sizeof(EthernetHeader));
  ip->version_ihl = 0x45;
  // The hardened classifier validates total_length; a zeroed field is a
  // malformed frame, so hand-built packets must fill it in.
  ip->total_length = host_to_be16(50);  // 64 B frame minus the Ethernet header
  ip->protocol = kIpProtoUdp;
  ip->src = host_to_be32(ipv4_addr(1, 1, 1, 1));
  ip->dst = host_to_be32(ipv4_addr(2, 2, 2, 2));
  auto* udp = p.at<UdpHeader>(sizeof(EthernetHeader) + sizeof(Ipv4Header));
  udp->src_port = host_to_be16(1111);
  udp->dst_port = host_to_be16(2222);

  FiveTuple t;
  ASSERT_TRUE(extract_five_tuple(p, t));
  EXPECT_EQ(t.src_ip, ipv4_addr(1, 1, 1, 1));
  EXPECT_EQ(t.dst_ip, ipv4_addr(2, 2, 2, 2));
  EXPECT_EQ(t.src_port, 1111);
  EXPECT_EQ(t.dst_port, 2222);
  EXPECT_EQ(t.protocol, kIpProtoUdp);
}

TEST(FlowTest, NonIpv4Rejected) {
  Packet p;
  p.fill(0, 64);
  p.at<EthernetHeader>(0)->ether_type = host_to_be16(0x0806);  // ARP
  FiveTuple t;
  EXPECT_FALSE(extract_five_tuple(p, t));
}

TEST(FlowTest, NonL4ProtocolHasZeroPorts) {
  Packet p;
  p.fill(0, 64);
  p.at<EthernetHeader>(0)->ether_type = host_to_be16(kEtherTypeIpv4);
  auto* ip = p.at<Ipv4Header>(sizeof(EthernetHeader));
  ip->version_ihl = 0x45;
  ip->total_length = host_to_be16(50);
  ip->protocol = 1;  // ICMP
  FiveTuple t;
  ASSERT_TRUE(extract_five_tuple(p, t));
  EXPECT_EQ(t.src_port, 0);
  EXPECT_EQ(t.dst_port, 0);
}

TEST(FlowTest, HashDistinguishesTuples) {
  FiveTuple a{1, 2, 3, 4, 17};
  FiveTuple b = a;
  EXPECT_EQ(flow_hash(a), flow_hash(b));
  b.src_port = 5;
  EXPECT_NE(flow_hash(a), flow_hash(b));
  b = a;
  b.protocol = 6;
  EXPECT_NE(flow_hash(a), flow_hash(b));
}

}  // namespace
}  // namespace metro::net
