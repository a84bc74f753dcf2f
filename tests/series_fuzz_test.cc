// CsvDirectory tests plus fuzz-style robustness tests: the wire-format
// parsers must never crash, never read out of bounds, and never validate
// corrupted input, for arbitrary byte soup.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/icmp.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "util/prng.h"
#include "util/series.h"

namespace turtle {
namespace {

// --- CsvDirectory ----------------------------------------------------------

struct CsvFixture : ::testing::Test {
  // One directory per test: ctest runs the tests in parallel processes,
  // and a shared directory was removed by one test's TearDown while
  // another was writing into it.
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::string{"turtle_csv_test_"} +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                        .string();

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in{path};
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
};

TEST_F(CsvFixture, SanitizeNames) {
  EXPECT_EQ(util::CsvDirectory::sanitize("RTT CDF (s), scan 1"), "rtt_cdf_s_scan_1");
  EXPECT_EQ(util::CsvDirectory::sanitize("simple"), "simple");
  EXPECT_EQ(util::CsvDirectory::sanitize("__weird--##"), "weird");
  EXPECT_EQ(util::CsvDirectory::sanitize(""), "series");
  EXPECT_EQ(util::CsvDirectory::sanitize("///"), "series");
}

TEST_F(CsvFixture, WritesSeries) {
  util::CsvDirectory csv{dir};
  const std::vector<util::CdfPoint> series{{0.1, 0.5}, {0.2, 1.0}};
  csv.write_series("My Series", series);
  const std::string content = slurp(dir + "/my_series.csv");
  EXPECT_EQ(content, "x,fraction\n0.1,0.5\n0.2,1\n");
}

TEST_F(CsvFixture, WritesTable) {
  util::CsvDirectory csv{dir};
  util::TextTable table({"a", "b"});
  table.add_row({"1", "x,y"});
  csv.write_table("tbl", table);
  const std::string content = slurp(dir + "/tbl.csv");
  EXPECT_EQ(content, "a,b\n1,\"x,y\"\n");
}

TEST_F(CsvFixture, WritesPairs) {
  util::CsvDirectory csv{dir};
  const std::vector<std::pair<double, double>> pairs{{1, 2}, {3, 4}};
  csv.write_pairs("p", "t", "v", pairs);
  EXPECT_EQ(slurp(dir + "/p.csv"), "t,v\n1,2\n3,4\n");
}

TEST_F(CsvFixture, CreatesNestedDirectories) {
  util::CsvDirectory csv{dir + "/a/b/c"};
  csv.write_series("s", {});
  EXPECT_TRUE(std::filesystem::exists(dir + "/a/b/c/s.csv"));
}

// --- parser fuzzing ----------------------------------------------------------

const net::Ipv4Address kSrc = net::Ipv4Address::from_octets(192, 0, 2, 1);
const net::Ipv4Address kDst = net::Ipv4Address::from_octets(10, 0, 0, 1);

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverValidate) {
  util::Prng rng{GetParam()};
  int icmp_ok = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_int(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));

    // Must not crash; random bytes should essentially never checksum.
    if (net::parse_icmp(bytes).has_value()) ++icmp_ok;
    (void)net::parse_udp(bytes, kSrc, kDst);
    (void)net::parse_tcp(bytes, kSrc, kDst);
    (void)net::TimingPayload::decode(bytes);
    (void)net::UnreachablePayload::decode(bytes);
  }
  // Checksum collisions happen ~2^-16 of the time for >= 8-byte inputs;
  // allow a small number rather than zero.
  EXPECT_LT(icmp_ok, 10);
}

TEST_P(ParserFuzz, TruncationsOfValidPacketsNeverCrash) {
  util::Prng rng{GetParam() ^ 0xF00D};

  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = 7;
  echo.seq = 9;
  net::TimingPayload tp;
  tp.probed_destination = kDst;
  tp.send_time = SimTime::seconds(5);
  tp.encode(echo.payload);
  const auto icmp_wire = net::serialize_icmp(echo);

  net::UdpDatagram dgram;
  dgram.src_port = 1;
  dgram.dst_port = 2;
  const auto udp_wire = net::serialize_udp(dgram, kSrc, kDst);

  net::TcpSegment seg;
  seg.flags = net::TcpFlags::kAck;
  const auto tcp_wire = net::serialize_tcp(seg, kSrc, kDst);

  for (std::size_t len = 0; len <= icmp_wire.size(); ++len) {
    const auto r = net::parse_icmp(icmp_wire.view().subspan(0, len));
    EXPECT_EQ(r.has_value(), len == icmp_wire.size());
  }
  for (std::size_t len = 0; len <= udp_wire.size(); ++len) {
    const auto r = net::parse_udp(udp_wire.view().subspan(0, len), kSrc, kDst);
    EXPECT_EQ(r.has_value(), len == udp_wire.size());
  }
  for (std::size_t len = 0; len <= tcp_wire.size(); ++len) {
    const auto r = net::parse_tcp(tcp_wire.view().subspan(0, len), kSrc, kDst);
    EXPECT_EQ(r.has_value(), len == tcp_wire.size());
  }
}

TEST_P(ParserFuzz, MutationsOfValidPacketsRarelyValidate) {
  util::Prng rng{GetParam() ^ 0xBEEF};
  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = 42;
  echo.seq = 1;
  for (int i = 0; i < 8; ++i) echo.payload.push_back(static_cast<std::uint8_t>(i));
  const auto wire = net::serialize_icmp(echo);

  int validated = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    auto bytes = wire;
    // Flip 1-3 random bits.
    const int flips = 1 + static_cast<int>(rng.uniform_int(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.uniform_int(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    if (net::parse_icmp(bytes.view()).has_value()) ++validated;
  }
  // Only mutations that cancel in the one's-complement sum survive; with
  // 1-3 random flips that is rare but not impossible.
  EXPECT_LT(validated, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace turtle
