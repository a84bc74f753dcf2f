// turtle::serve::PolicyEngine — ledger closure (decisions == timeouts +
// correct_waits), false-timeout and excess-wait accounting, bounded
// per-/24 working set with counted eviction, ground-truth extraction from
// survey logs (delayed-response re-attribution included), determinism,
// and the one-thread contract.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_policy.h"
#include "obs/metrics.h"
#include "serve/oracle_snapshot.h"
#include "serve/policy_engine.h"
#include "util/check.h"
#include "util/prng.h"

namespace turtle {
namespace {

using serve::OracleSnapshot;
using serve::PolicyEngine;
using serve::PolicyEngineConfig;
using serve::PolicyObservation;

constexpr net::Prefix24 kBlockA =
    net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 0, 0));
constexpr net::Prefix24 kBlockB =
    net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 1, 0));
constexpr net::Prefix24 kBlockC =
    net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 2, 0));

/// Same synthetic survey log as serve_test: `addrs` hosts per block,
/// `samples` matched responses each, RTTs cycling 10..100 ms.
probe::RecordLog make_log(const std::vector<net::Prefix24>& blocks, int addrs,
                          int samples) {
  probe::RecordLog log;
  for (int round = 0; round < samples; ++round) {
    int slot = 0;
    for (const net::Prefix24& block : blocks) {
      for (int a = 1; a <= addrs; ++a, ++slot) {
        probe::SurveyRecord record;
        record.type = probe::RecordType::kMatched;
        record.address = block.address(static_cast<std::uint8_t>(a));
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        record.rtt = SimTime::from_seconds(0.01 * (1 + (round + a) % 10));
        record.round = static_cast<std::uint32_t>(round);
        log.append(record);
      }
    }
  }
  return log;
}

std::shared_ptr<const OracleSnapshot> test_snapshot() {
  serve::SnapshotConfig config;
  config.min_samples_per_address = 5;
  return std::make_shared<const OracleSnapshot>(
      OracleSnapshot::build(make_log({kBlockA}, 3, 12), config));
}

std::uint64_t counter(const obs::Registry& registry, const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.value();
}

// ---------------------------------------------------------------------------
// observations_from_log: ground truth extraction
// ---------------------------------------------------------------------------

probe::SurveyRecord record_of(probe::RecordType type, net::Ipv4Address addr,
                              SimTime probe_time, SimTime rtt = {},
                              std::uint32_t count = 1) {
  probe::SurveyRecord record;
  record.type = type;
  record.address = addr;
  record.probe_time = probe_time;
  record.rtt = rtt;
  record.count = count;
  return record;
}

TEST(ObservationsFromLog, MatchedDelayedAndLostProbes) {
  const auto addr = kBlockA.address(1);
  probe::RecordLog log;
  log.append(record_of(probe::RecordType::kMatched, addr, SimTime::seconds(0),
                       SimTime::millis(42)));
  // Probe at 100 s expired, but an unmatched arrival from the same address
  // lands at 105 s — a delayed response, re-attributed.
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(100)));
  log.append(record_of(probe::RecordType::kUnmatched, addr, SimTime::seconds(105)));
  // Probe at 800 s: the only arrival is long past, so this is a loss.
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(800)));
  // Errors never become observations.
  log.append(record_of(probe::RecordType::kError, addr, SimTime::seconds(900)));

  const auto observations = serve::observations_from_log(log);
  ASSERT_EQ(observations.size(), 3u);

  EXPECT_TRUE(observations[0].responded);
  EXPECT_FALSE(observations[0].retransmitted);
  EXPECT_EQ(observations[0].rtt, SimTime::millis(42));

  EXPECT_TRUE(observations[1].responded);
  EXPECT_TRUE(observations[1].retransmitted);
  EXPECT_EQ(observations[1].rtt, SimTime::seconds(5));

  EXPECT_FALSE(observations[2].responded);
  EXPECT_EQ(observations[2].addr, addr);
}

TEST(ObservationsFromLog, CoalescedCountConsumedOncePerTimeout) {
  const auto addr = kBlockA.address(7);
  probe::RecordLog log;
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(100)));
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(101)));
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(102)));
  // One unmatched record coalescing two arrivals: re-attributes exactly
  // two of the three timeouts; the third stays a loss.
  log.append(record_of(probe::RecordType::kUnmatched, addr, SimTime::seconds(110),
                       {}, /*count=*/2));

  const auto observations = serve::observations_from_log(log);
  ASSERT_EQ(observations.size(), 3u);
  EXPECT_TRUE(observations[0].responded);
  EXPECT_EQ(observations[0].rtt, SimTime::seconds(10));
  EXPECT_TRUE(observations[1].responded);
  EXPECT_EQ(observations[1].rtt, SimTime::seconds(9));
  EXPECT_FALSE(observations[2].responded);
}

TEST(ObservationsFromLog, ArrivalBeyondWindowOrWrongAddressIsALoss) {
  const auto addr = kBlockA.address(2);
  probe::RecordLog log;
  log.append(record_of(probe::RecordType::kTimeout, addr, SimTime::seconds(100)));
  // 700 s later: outside the default 660 s re-attribution window.
  log.append(record_of(probe::RecordType::kUnmatched, addr, SimTime::seconds(800)));
  // In-window but from a different host: never matches.
  log.append(record_of(probe::RecordType::kUnmatched, kBlockA.address(3),
                       SimTime::seconds(105)));

  const auto observations = serve::observations_from_log(log);
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_FALSE(observations[0].responded);

  // A wider window turns the same arrival into a delayed response.
  const auto wide = serve::observations_from_log(log, SimTime::seconds(1000));
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_TRUE(wide[0].responded);
  EXPECT_EQ(wide[0].rtt, SimTime::seconds(700));
}

// ---------------------------------------------------------------------------
// PolicyEngine: ledger, eviction, determinism, thread contract
// ---------------------------------------------------------------------------

TEST(PolicyEngine, LedgerClosesForEveryPolicyAndAggregate) {
  obs::Registry registry;
  PolicyEngineConfig config;
  config.registry = &registry;
  config.metric_prefix = "policy.test";
  PolicyEngine engine{config, test_snapshot()};
  engine.register_policy(std::make_unique<core::JacobsonKarnPolicy>());
  engine.register_policy(std::make_unique<core::EwmaVariancePolicy>());
  engine.register_policy(std::make_unique<core::CusumQuantilePolicy>());

  util::Prng rng{11};
  constexpr int kObservations = 500;
  for (int i = 0; i < kObservations; ++i) {
    PolicyObservation observation;
    observation.addr = kBlockA.address(static_cast<std::uint8_t>(1 + i % 3));
    if (rng.bernoulli(0.8)) {
      observation.responded = true;
      observation.rtt = SimTime::millis(10 + i % 50);
    } else if (rng.bernoulli(0.5)) {
      // Responds, but beyond every policy's give-up bound (even the 60 s
      // ceiling): a guaranteed false timeout everywhere.
      observation.responded = true;
      observation.retransmitted = true;
      observation.rtt = SimTime::seconds(70);
    }
    engine.observe(observation);
  }

  for (const char* name :
       {"static_table2", "jacobson_karn", "ewma", "cusum_p99"}) {
    const std::string base = std::string{"policy.test."} + name + ".";
    EXPECT_EQ(counter(registry, base + "decisions"),
              static_cast<std::uint64_t>(kObservations))
        << name;
    EXPECT_EQ(counter(registry, base + "decisions"),
              counter(registry, base + "timeouts") +
                  counter(registry, base + "correct_waits"))
        << name;
    EXPECT_LE(counter(registry, base + "false_timeouts"),
              counter(registry, base + "timeouts"))
        << name;
    // wait_us accumulates on every decision; excess only on correct waits.
    EXPECT_GT(counter(registry, base + "wait_us"), 0u) << name;
  }
  // Aggregate ledger: one decision per policy per observation.
  EXPECT_EQ(counter(registry, "policy.test.decisions"),
            static_cast<std::uint64_t>(4 * kObservations));
  EXPECT_EQ(counter(registry, "policy.test.decisions"),
            counter(registry, "policy.test.timeouts") +
                counter(registry, "policy.test.correct_waits"));
  // The 70 s responders arrived after everyone gave up.
  EXPECT_GT(counter(registry, "policy.test.cusum_p99.false_timeouts"), 0u);
  EXPECT_GT(counter(registry, "policy.test.static_table2.false_timeouts"), 0u);
}

TEST(PolicyEngine, BoundedWorkingSetEvictsLruCounted) {
  obs::Registry registry;
  PolicyEngineConfig config;
  config.registry = &registry;
  config.max_tracked_blocks = 2;
  PolicyEngine engine{config, test_snapshot()};
  engine.register_policy(std::make_unique<core::JacobsonKarnPolicy>());

  const auto observe_block = [&engine](const net::Prefix24& block) {
    PolicyObservation observation;
    observation.addr = block.address(1);
    observation.responded = true;
    observation.rtt = SimTime::millis(20);
    engine.observe(observation);
  };
  observe_block(kBlockA);
  observe_block(kBlockB);
  EXPECT_EQ(counter(registry, "policy.jacobson_karn.evictions"), 0u);
  // Third block overflows the two-entry working set: A (the LRU tail) is
  // evicted; re-observing A then evicts B.
  observe_block(kBlockC);
  EXPECT_EQ(counter(registry, "policy.jacobson_karn.evictions"), 1u);
  observe_block(kBlockA);
  EXPECT_EQ(counter(registry, "policy.jacobson_karn.evictions"), 2u);
  // Resident set is now {C, A}: re-observing C is a hit (no eviction),
  // while the long-gone B forces one more.
  observe_block(kBlockC);
  EXPECT_EQ(counter(registry, "policy.jacobson_karn.evictions"), 2u);
  observe_block(kBlockB);
  EXPECT_EQ(counter(registry, "policy.jacobson_karn.evictions"), 3u);
}

TEST(PolicyEngine, NullSnapshotStillKeepsTheLedger) {
  obs::Registry registry;
  PolicyEngineConfig config;
  config.registry = &registry;
  PolicyEngine engine{config, nullptr};
  engine.register_policy(std::make_unique<core::EwmaVariancePolicy>());

  // Static baseline with no snapshot: zero give-up, so every responded
  // observation is a timeout — and a false one.
  PolicyObservation observation;
  observation.addr = kBlockA.address(1);
  observation.responded = true;
  observation.rtt = SimTime::millis(30);
  engine.observe(observation);
  engine.observe(observation);

  EXPECT_EQ(counter(registry, "policy.static_table2.decisions"), 2u);
  EXPECT_EQ(counter(registry, "policy.static_table2.timeouts"), 2u);
  EXPECT_EQ(counter(registry, "policy.static_table2.false_timeouts"), 2u);
  // The adaptive policy decided cold (3 s) first, then warm: both waits
  // cover 30 ms, so its ledger closes on the correct side.
  EXPECT_EQ(counter(registry, "policy.ewma.decisions"), 2u);
  EXPECT_EQ(counter(registry, "policy.ewma.correct_waits"), 2u);
}

TEST(PolicyEngine, DeterministicAcrossInstances) {
  // Two engines fed the identical observation stream must leave
  // byte-identical registries — the property the sharded tournament's
  // --jobs cmp gate rests on.
  const auto snapshot = test_snapshot();
  std::vector<PolicyObservation> stream;
  util::Prng rng{99};
  for (int i = 0; i < 300; ++i) {
    PolicyObservation observation;
    observation.addr = (i % 2 == 0 ? kBlockA : kBlockB)
                           .address(static_cast<std::uint8_t>(1 + i % 5));
    observation.responded = !rng.bernoulli(0.2);
    observation.retransmitted = observation.responded && rng.bernoulli(0.1);
    observation.rtt = SimTime::millis(10 + static_cast<std::int64_t>(rng.uniform_int(400)));
    stream.push_back(observation);
  }

  const auto run = [&](obs::Registry& registry) {
    PolicyEngineConfig config;
    config.registry = &registry;
    config.max_tracked_blocks = 1;  // force eviction churn into the mix
    PolicyEngine engine{config, snapshot};
    engine.register_policy(std::make_unique<core::JacobsonKarnPolicy>());
    engine.register_policy(std::make_unique<core::CusumQuantilePolicy>());
    for (const PolicyObservation& observation : stream) engine.observe(observation);
  };
  obs::Registry first;
  obs::Registry second;
  run(first);
  run(second);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_GT(counter(first, "policy.jacobson_karn.evictions"), 0u);
}

#if TURTLE_DCHECK_ENABLED
TEST(PolicyEngineDeathTest, ObserveOffItsThreadTripsDcheck) {
  const auto observe_off_thread = [] {
    obs::Registry registry;
    PolicyEngineConfig config;
    config.registry = &registry;
    PolicyEngine engine{config, test_snapshot()};
    std::thread other{[&engine] { engine.observe(PolicyObservation{}); }};
    other.join();
  };
  EXPECT_DEATH(observe_off_thread(), "PolicyEngine used off its thread");
}
#endif

}  // namespace
}  // namespace turtle
