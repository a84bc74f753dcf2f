#include "probe/survey.h"

#include <gtest/gtest.h>

#include <map>

#include "hosts/gateways.h"
#include "hosts/host.h"
#include "test_world.h"

namespace turtle::probe {
namespace {

using test::MiniWorld;
using test::plain_profile;

/// Hand-built block: place hosts at chosen octets of one /24.
class ManualResolver : public sim::AddressResolver {
 public:
  sim::PacketSink* resolve(const net::Packet& packet) override {
    const auto it = sinks_.find(packet.dst.value());
    return it == sinks_.end() ? nullptr : it->second;
  }
  void put(net::Ipv4Address addr, sim::PacketSink* sink) { sinks_[addr.value()] = sink; }

 private:
  std::map<std::uint32_t, sim::PacketSink*> sinks_;
};

struct SurveyFixture : ::testing::Test {
  MiniWorld w;
  ManualResolver resolver;
  net::Prefix24 block = net::Prefix24::from_network(10u << 16);
  SurveyConfig config;

  SurveyFixture() {
    w.net.set_host_resolver(&resolver);
    config.rounds = 3;
  }

  SurveyProber run(int rounds) {
    config.rounds = rounds;
    SurveyProber prober{w.sim, w.net, config, {block}, util::Prng{5}};
    prober.start();
    w.sim.run();
    return prober;
  }
};

TEST_F(SurveyFixture, FastHostYieldsMatchedRecords) {
  hosts::Host host{w.ctx, block.address(10), plain_profile(SimTime::millis(80)), util::Prng{1}};
  resolver.put(block.address(10), &host);

  const auto prober = run(3);
  EXPECT_EQ(prober.probes_sent(), 3u * 256);
  EXPECT_EQ(prober.log().count_of(RecordType::kMatched), 3u);
  EXPECT_EQ(prober.log().count_of(RecordType::kUnmatched), 0u);
  // Every probe to an empty address times out.
  EXPECT_EQ(prober.log().count_of(RecordType::kTimeout), 3u * 255);

  for (const auto& rec : prober.log().records()) {
    if (rec.type != RecordType::kMatched) continue;
    EXPECT_EQ(rec.address, block.address(10));
    // µs-precision RTT: 80 ms access + 10 ms transit.
    EXPECT_EQ(rec.rtt, SimTime::millis(90));
  }
}

TEST_F(SurveyFixture, EvictionFifoHoldsOnlyUnsettledProbes) {
  hosts::Host host{w.ctx, block.address(10), plain_profile(SimTime::millis(80)), util::Prng{1}};
  resolver.put(block.address(10), &host);

  const auto prober = run(20);
  EXPECT_EQ(prober.probes_sent(), 20u * 256);
  // Probes are one slot (2.58 s) apart and settle within match_timeout
  // (3 s), so at most the probes of the last timeout window remain.
  EXPECT_LE(prober.pending_fifo_size(), 3u);
}

TEST_F(SurveyFixture, SlowHostYieldsTimeoutPlusUnmatched) {
  // 10 s access latency: beats no 3 s timer, ever.
  hosts::Host host{w.ctx, block.address(20), plain_profile(SimTime::seconds(10)), util::Prng{1}};
  resolver.put(block.address(20), &host);

  const auto prober = run(3);
  EXPECT_EQ(prober.log().count_of(RecordType::kMatched), 0u);
  EXPECT_EQ(prober.log().count_of(RecordType::kTimeout), 3u * 256);

  std::uint64_t unmatched_from_host = 0;
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kUnmatched && rec.address == block.address(20)) {
      unmatched_from_host += rec.count;
      // 1 s precision timestamps.
      EXPECT_EQ(rec.probe_time, rec.probe_time.truncate_to_seconds());
    }
  }
  EXPECT_EQ(unmatched_from_host, 3u);
}

TEST_F(SurveyFixture, ResponseAtExactDeadlineCountsAsLate) {
  // Access delay chosen so the response arrives exactly at send + 3 s:
  // 2x5 ms transit + 2990 ms access.
  hosts::Host host{w.ctx, block.address(30), plain_profile(SimTime::millis(2990)),
                   util::Prng{1}};
  resolver.put(block.address(30), &host);

  const auto prober = run(1);
  EXPECT_EQ(prober.log().count_of(RecordType::kMatched), 0u);
  std::uint64_t unmatched = 0;
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kUnmatched) ++unmatched;
  }
  EXPECT_EQ(unmatched, 1u);
}

TEST_F(SurveyFixture, ResponseJustUnderDeadlineMatches) {
  hosts::Host host{w.ctx, block.address(31), plain_profile(SimTime::millis(2989)),
                   util::Prng{1}};
  resolver.put(block.address(31), &host);
  const auto prober = run(1);
  EXPECT_EQ(prober.log().count_of(RecordType::kMatched), 1u);
}

TEST_F(SurveyFixture, OffByOneOctetsProbed330SecondsApart) {
  hosts::Host h1{w.ctx, block.address(40), plain_profile(SimTime::millis(10)), util::Prng{1}};
  hosts::Host h2{w.ctx, block.address(41), plain_profile(SimTime::millis(10)), util::Prng{2}};
  resolver.put(block.address(40), &h1);
  resolver.put(block.address(41), &h2);

  const auto prober = run(1);
  SimTime t40;
  SimTime t41;
  for (const auto& rec : prober.log().records()) {
    if (rec.type != RecordType::kMatched) continue;
    if (rec.address == block.address(40)) t40 = rec.probe_time;
    if (rec.address == block.address(41)) t41 = rec.probe_time;
  }
  const SimTime gap = t41 - t40;
  // Evens-then-odds ordering: consecutive octets are half a round apart.
  EXPECT_EQ(gap, SimTime::minutes(11) / 2);
}

TEST_F(SurveyFixture, BlockCadenceIsRoundIntervalOver256) {
  hosts::Host h1{w.ctx, block.address(40), plain_profile(SimTime::millis(10)), util::Prng{1}};
  hosts::Host h2{w.ctx, block.address(42), plain_profile(SimTime::millis(10)), util::Prng{2}};
  resolver.put(block.address(40), &h1);
  resolver.put(block.address(42), &h2);

  const auto prober = run(1);
  SimTime t40;
  SimTime t42;
  for (const auto& rec : prober.log().records()) {
    if (rec.type != RecordType::kMatched) continue;
    if (rec.address == block.address(40)) t40 = rec.probe_time;
    if (rec.address == block.address(42)) t42 = rec.probe_time;
  }
  EXPECT_EQ(t42 - t40, SimTime::minutes(11) / 256);
}

TEST_F(SurveyFixture, BroadcastResponsesAreUnmatched) {
  // A broadcast address at .255 answered by a host at .50: the response's
  // source (.50) never matches the probe to .255.
  hosts::Host responder{w.ctx, block.address(50), plain_profile(SimTime::millis(20)),
                        util::Prng{1}};
  resolver.put(block.address(50), &responder);
  hosts::BroadcastGateway gw{{&responder}};
  resolver.put(block.address(255), &gw);

  const auto prober = run(1);
  // .50 probed directly: 1 matched. Probe to .255 triggers another .50
  // response: unmatched (the direct probe has already been matched, 330 s
  // earlier in the round).
  EXPECT_EQ(prober.log().count_of(RecordType::kMatched), 1u);
  std::uint64_t unmatched = 0;
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kUnmatched) {
      EXPECT_EQ(rec.address, block.address(50));
      unmatched += rec.count;
    }
  }
  EXPECT_EQ(unmatched, 1u);
}

TEST_F(SurveyFixture, ErrorRecordsForUnreachable) {
  hosts::RouterSink router{w.ctx, block.address(1), SimTime::millis(30), util::Prng{3}};
  resolver.put(block.address(99), &router);

  const auto prober = run(1);
  EXPECT_EQ(prober.log().count_of(RecordType::kError), 1u);
  // The errored probe must not also appear as a timeout.
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kTimeout) {
      EXPECT_NE(rec.address, block.address(99));
    }
  }
}

TEST_F(SurveyFixture, DuplicateFloodCoalescesBySecond) {
  auto profile = plain_profile(SimTime::millis(3200));  // always late
  profile.duplicate_class = 2;
  profile.duplicates.pareto_scale = 2000.0;  // big burst guaranteed
  profile.duplicates.pareto_shape = 8.0;
  profile.duplicates.max_responses = 100'000;
  profile.duplicates.flood_rate = 10'000.0;
  hosts::Host host{w.ctx, block.address(60), profile, util::Prng{7}};
  resolver.put(block.address(60), &host);

  const auto prober = run(1);
  std::uint64_t unmatched_packets = 0;
  std::uint64_t unmatched_records = 0;
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kUnmatched) {
      unmatched_packets += rec.count;
      ++unmatched_records;
    }
  }
  EXPECT_GE(unmatched_packets, 1000u);
  // Coalescing: record count stays near the number of distinct seconds,
  // orders of magnitude below the packet count.
  EXPECT_LT(unmatched_records, 100u);
}

TEST_F(SurveyFixture, EndTimeCoversAllRounds) {
  config.rounds = 5;
  SurveyProber prober{w.sim, w.net, config, {block}, util::Prng{5}};
  EXPECT_EQ(prober.end_time(), SimTime::minutes(55));
}

TEST_F(SurveyFixture, RecordsCarryRoundNumbers) {
  hosts::Host host{w.ctx, block.address(70), plain_profile(SimTime::millis(10)), util::Prng{1}};
  resolver.put(block.address(70), &host);
  const auto prober = run(4);
  std::vector<std::uint32_t> rounds;
  for (const auto& rec : prober.log().records()) {
    if (rec.type == RecordType::kMatched) rounds.push_back(rec.round);
  }
  EXPECT_EQ(rounds, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace turtle::probe
