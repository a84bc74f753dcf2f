#include "probe/survey.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hosts/gateways.h"
#include "hosts/host.h"
#include "hosts/population.h"
#include "obs/metrics.h"
#include "probe/pending_table.h"
#include "util/crc64.h"
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


// Pins a default-configured survey's whole output: every byte of the saved
// record log and every engine, fabric and prober counter. How events are
// queued, packets carried and probes tracked is free to change; what the
// survey records is not. A reordered equal-time tie moves the digest.
TEST(SurveyStream, DefaultWorldRecordStreamIsPinned) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  sim::Network::Config net_config;
  net_config.registry = &registry;
  sim::Network net{sim, net_config, util::Prng{11}};
  hosts::HostContext ctx{sim, net};
  const hosts::AsCatalog catalog = hosts::AsCatalog::standard();
  hosts::PopulationConfig population_config;
  population_config.num_blocks = 40;
  hosts::Population population{ctx, catalog, population_config, util::Prng{12}};
  net.set_host_resolver(&population);
  // The stream covers floods, broadcast answers and buffered cellular
  // replies.
  const hosts::PopulationStats stats = population.stats();
  EXPECT_GT(stats.flood_duplicators, 0u);
  EXPECT_GT(stats.broadcast_responders, 0u);
  EXPECT_GT(stats.cellular, 0u);

  SurveyConfig config;
  config.rounds = 6;
  config.registry = &registry;
  SurveyProber prober{sim, net, config, population.blocks(), util::Prng{13}};
  prober.start();
  sim.run();

  std::ostringstream saved;
  prober.log().save(saved);
  const std::string bytes = saved.str();
  EXPECT_EQ(util::crc64(bytes.data(), bytes.size()), 0x37DADAC100C67981ull);

  std::map<std::string, std::int64_t> metrics;
  for (const auto& [name, counter] : registry.counters()) {
    metrics[name] = static_cast<std::int64_t>(counter.value());
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    metrics[name + ".count"] = static_cast<std::int64_t>(histogram.count());
    metrics[name + ".sum_us"] = histogram.sum_us();
  }
  metrics["sim.queue_high_water"] = registry.gauge("sim.queue_high_water").value();
  const std::map<std::string, std::int64_t> expected = {
      {"net.packets_delivered", 38440},
      {"net.packets_dropped", 42011},
      {"net.packets_sent", 80451},
      {"net.transit_delay.count", 38440},
      {"net.transit_delay.sum_us", 194555738},
      {"sim.event_times", 180327},
      {"sim.events_processed", 180331},
      {"sim.queue_high_water", 102},
      {"survey.errors", 4714},
      {"survey.matched", 13595},
      {"survey.probes_sent", 61440},
      {"survey.responses_received", 14260},
      {"survey.rtt.count", 13595},
      {"survey.rtt.sum_us", 4022914225},
      {"survey.timeouts", 43131},
      {"survey.unmatched_packets", 665},
  };
  EXPECT_EQ(metrics, expected);
}


// The pending table against std::unordered_map. Addresses cluster in a
// few /24s, as a survey's do, including 0.0.0.0/24 and 255.255.255.0/24
// at the ends of the address space. Each phase holds the live count near its
// own target: the small ones keep a 16- or 32-slot table near half full,
// where probe runs cross the array's end and backward-shift erase must
// wrap, and the large ones grow it past 1024 slots and shrink it back.
// Every find is checked, and for_each must visit exactly the live probes.
TEST(PendingTable, MatchesUnorderedMap) {
  struct Probe {
    SimTime send_time;
    std::uint32_t round;
  };
  util::Prng rng{0x7AB1E};
  PendingTable table;
  std::unordered_map<std::uint32_t, Probe> model;
  std::vector<std::uint32_t> live;  // the model's keys, to pick erasures from
  const std::uint32_t networks[] = {10u << 16, (10u << 16) + 1, (10u << 16) + 2,
                                    (192u << 16) | (168u << 8) | 7, 0, 0xFFFFFFu};
  const auto pick = [&] {
    const std::uint32_t network = networks[rng.uniform_int(std::size(networks))];
    return (network << 8) | static_cast<std::uint32_t>(rng.uniform_int(256));
  };
  const auto check_for_each = [&] {
    std::unordered_map<std::uint32_t, Probe> visited;
    table.for_each([&](const PendingTable::Entry& entry) {
      EXPECT_TRUE(visited.emplace(entry.address, Probe{entry.send_time, entry.round}).second);
    });
    ASSERT_EQ(visited.size(), model.size());
    for (const auto& [address, probe] : model) {
      const auto it = visited.find(address);
      ASSERT_NE(it, visited.end());
      EXPECT_EQ(it->second.send_time, probe.send_time);
      EXPECT_EQ(it->second.round, probe.round);
    }
  };

  std::size_t largest_capacity = 0;
  const std::size_t targets[] = {7, 5, 7, 14, 1000, 7, 600, 3, 7, 40};
  for (std::size_t phase = 0; phase < std::size(targets); ++phase) {
    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t op = rng.uniform_int(100);
      if (op < 30) {
        // Find: a random address, live or not.
        const std::uint32_t address = pick();
        const PendingTable::Entry* entry = table.find(address);
        const auto it = model.find(address);
        ASSERT_EQ(entry != nullptr, it != model.end()) << "address " << address;
        if (entry != nullptr) {
          EXPECT_EQ(entry->address, address);
          EXPECT_EQ(entry->send_time, it->second.send_time);
          EXPECT_EQ(entry->round, it->second.round);
        }
      } else if (live.empty() || (table.size() < targets[phase] && op < 90)) {
        // Put: a new probe, or a new send of a live one.
        const std::uint32_t address = pick();
        const Probe probe{SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(1u << 30))),
                          static_cast<std::uint32_t>(rng.uniform_int(50))};
        table.put(address, probe.send_time, probe.round);
        if (model.insert_or_assign(address, probe).second) live.push_back(address);
      } else {
        // Erase a live probe.
        const std::size_t k = rng.uniform_int(live.size());
        const std::uint32_t address = live[k];
        live[k] = live.back();
        live.pop_back();
        const PendingTable::Entry* entry = table.find(address);
        ASSERT_NE(entry, nullptr) << "address " << address;
        table.erase(entry);
        model.erase(address);
      }
      ASSERT_EQ(table.size(), model.size());
      if (!table.empty()) {
        EXPECT_GE(table.capacity(), 2 * table.size());
        EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
      }
      largest_capacity = std::max(largest_capacity, table.capacity());
      if (step % 1000 == 0) check_for_each();
    }
    check_for_each();
    if (phase == 5) {
      table.clear();
      model.clear();
      live.clear();
      EXPECT_EQ(table.capacity(), 0u);
      EXPECT_EQ(table.find(pick()), nullptr);
    }
  }
  EXPECT_GE(largest_capacity, 2048u);
  // Draining leaves a table sized to what is left.
  for (const std::uint32_t address : live) table.erase(table.find(address));
  EXPECT_TRUE(table.empty());
  EXPECT_LE(table.capacity(), 16u);
}

}  // namespace
}  // namespace turtle::probe
