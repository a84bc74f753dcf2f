#include "core/outage_detector.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hosts/host.h"
#include "probe/survey.h"
#include "test_world.h"

namespace turtle::core {
namespace {

using test::MiniWorld;
using test::plain_profile;

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

struct DetectorFixture : ::testing::Test {
  MiniWorld w;
  ManualResolver resolver;
  net::Ipv4Address target = net::Ipv4Address::from_octets(10, 0, 0, 3);
  OutageDetectorConfig config;

  DetectorFixture() {
    w.net.set_host_resolver(&resolver);
    config.rounds = 3;
    config.max_probes = 3;
  }
};

TEST_F(DetectorFixture, FastHostNeverFlagsOutage) {
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(50)), util::Prng{1}};
  resolver.put(target, &host);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  const auto stats = detector.stats();
  EXPECT_EQ(stats.checks, 3u);
  EXPECT_EQ(stats.outages_declared, 0u);
  EXPECT_EQ(stats.probes_sent, 3u);  // one probe per check suffices
  ASSERT_NE(detector.estimator(target), nullptr);
  EXPECT_EQ(detector.estimator(target)->samples(), 3u);
}

TEST_F(DetectorFixture, DeadTargetDeclaredOutEveryRound) {
  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  const auto stats = detector.stats();
  EXPECT_EQ(stats.checks, 3u);
  EXPECT_EQ(stats.outages_declared, 3u);
  EXPECT_EQ(stats.probes_sent, 9u);  // full retry budget each round
}

TEST_F(DetectorFixture, FixedPolicyFalselyFlagsSlowHost) {
  // 10 s latency: a 3 s fixed timeout sees nothing and declares outages.
  hosts::Host host{w.ctx, target, plain_profile(SimTime::seconds(10)), util::Prng{1}};
  resolver.put(target, &host);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  EXPECT_EQ(detector.stats().outages_declared, 3u);
  EXPECT_EQ(detector.stats().late_saves, 0u);
}

TEST_F(DetectorFixture, ListenLongerSavesSlowHost) {
  hosts::Host host{w.ctx, target, plain_profile(SimTime::seconds(10)), util::Prng{1}};
  resolver.put(target, &host);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(60)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  const auto stats = detector.stats();
  EXPECT_EQ(stats.outages_declared, 0u);
  EXPECT_EQ(stats.late_saves, 3u);
  // The first probe's response arrives at 10 s, after retries were sent.
  const auto& outcome = detector.outcomes().front();
  EXPECT_TRUE(outcome.responded);
  EXPECT_TRUE(outcome.responded_late);
  EXPECT_EQ(outcome.probes_sent, 3u);
}

TEST_F(DetectorFixture, OutcomeRttRecorded) {
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(100)), util::Prng{1}};
  resolver.put(target, &host);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(60)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  for (const auto& outcome : detector.outcomes()) {
    EXPECT_TRUE(outcome.responded);
    EXPECT_FALSE(outcome.responded_late);
    EXPECT_EQ(outcome.first_rtt, SimTime::millis(110));
  }
}

TEST_F(DetectorFixture, ChecksAreStaggeredAcrossTargets) {
  const auto t2 = net::Ipv4Address::from_octets(10, 0, 0, 4);
  hosts::Host h1{w.ctx, target, plain_profile(SimTime::millis(50)), util::Prng{1}};
  hosts::Host h2{w.ctx, t2, plain_profile(SimTime::millis(50)), util::Prng{2}};
  resolver.put(target, &h1);
  resolver.put(t2, &h2);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(60)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target, t2});
  w.sim.run();

  EXPECT_EQ(detector.stats().checks, 6u);
  // Outcomes for the two targets resolve at different instants.
  SimTime first_a;
  SimTime first_b;
  for (const auto& o : detector.outcomes()) {
    if (o.round == 0 && o.target == target) first_a = o.resolution_time;
    if (o.round == 0 && o.target == t2) first_b = o.resolution_time;
  }
  EXPECT_NE(first_a, first_b);
}

TEST_F(DetectorFixture, StateCostGrowsWithGiveUp) {
  // Dead target: with a fixed 3 s policy, state is held 3 s per probe;
  // with listen-longer it is held 60 s after the last probe.
  StaticPolicy fixed{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector d1{w.sim, w.net, config, fixed};
  d1.start({target});
  w.sim.run();

  MiniWorld w2;
  w2.net.set_host_resolver(&resolver);
  StaticPolicy listen{SimTime::seconds(3), SimTime::seconds(60)};
  OutageDetector d2{w2.sim, w2.net, config, listen};
  d2.start({target});
  w2.sim.run();

  EXPECT_GT(d2.stats().state_probe_seconds, d1.stats().state_probe_seconds * 3);
}

// --- injected block outages ------------------------------------------------

struct OutageFaultFixture : DetectorFixture {
  obs::Registry reg;

  fault::FaultPlan plan_json(const std::string& faults) {
    return fault::FaultPlan::parse_json(
        R"({"schema": "turtle-fault-plan-v1", "faults": [)" + faults + "]}");
  }
};

TEST_F(OutageFaultFixture, OutageAtTimeZero) {
  // The outage begins before the very first probe: round 0 must be a
  // clean declared outage (no state from "before" to lean on), and the
  // detector must recover on its own once the window ends.
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(50)), util::Prng{1}};
  resolver.put(target, &host);

  const auto plan = plan_json(R"({"kind": "block_outage", "start_s": 0, "duration_s": 30})");
  fault::FaultInjector inj{w.sim, plan, util::Prng{9}, &reg};
  w.net.set_fault_hook(&inj);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  ASSERT_EQ(detector.outcomes().size(), 3u);
  EXPECT_TRUE(detector.outcomes()[0].declared_outage);   // inside [0, 30)
  EXPECT_FALSE(detector.outcomes()[1].declared_outage);  // 11 min: recovered
  EXPECT_FALSE(detector.outcomes()[2].declared_outage);
  EXPECT_GT(reg.counter("fault.injected.outage_drops").value(), 0u);
}

TEST_F(OutageFaultFixture, BackToBackOutagesShorterThanARound) {
  // Two short outages within one 11-minute check interval: the one the
  // check lands in is declared; the one between checks is invisible —
  // periodic probing samples outages, it does not integrate them.
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(50)), util::Prng{1}};
  resolver.put(target, &host);

  // Checks run at t = 0, 660, 1320 s. Windows: [650, 680) catches the
  // second check (send + full 3-probe retry + response all inside);
  // [700, 730) falls strictly between checks.
  const auto plan = plan_json(
      R"({"kind": "block_outage", "start_s": 650, "duration_s": 30},
         {"kind": "block_outage", "start_s": 700, "duration_s": 30})");
  fault::FaultInjector inj{w.sim, plan, util::Prng{9}, &reg};
  w.net.set_fault_hook(&inj);

  StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  ASSERT_EQ(detector.outcomes().size(), 3u);
  EXPECT_FALSE(detector.outcomes()[0].declared_outage);
  EXPECT_TRUE(detector.outcomes()[1].declared_outage);   // caught by check 1
  EXPECT_FALSE(detector.outcomes()[2].declared_outage);  // second window unseen
  EXPECT_EQ(detector.stats().outages_declared, 1u);
}

TEST_F(OutageFaultFixture, OutageSpanningCheckpointResume) {
  // A network outage brackets a prober crash+resume: the survey must come
  // back from its checkpoint *into* the still-dark window (all timeouts),
  // then match again once the outage lifts. Exercises the resume path's
  // interaction with an environment fault, not just a clean network.
  net::Prefix24 block = net::Prefix24::from_network(10u << 16);
  hosts::Host host{w.ctx, block.address(10), plain_profile(SimTime::millis(80)),
                   util::Prng{1}};
  resolver.put(block.address(10), &host);

  // Round interval 660 s; crash at 700 s (round 1), restart 60 s later at
  // 760 s; outage [690, 900) spans the whole crash and the resume.
  const auto plan = plan_json(R"({"kind": "block_outage", "start_s": 690, "duration_s": 210})");
  fault::FaultInjector inj{w.sim, plan, util::Prng{9}, &reg};
  w.net.set_fault_hook(&inj);

  probe::SurveyConfig survey_config;
  survey_config.rounds = 4;
  survey_config.checkpoints = true;
  survey_config.registry = &reg;
  probe::SurveyProber prober{w.sim, w.net, survey_config, {block}, util::Prng{5}};
  prober.start();
  w.sim.schedule_at(SimTime::seconds(700), [&] { prober.crash(SimTime::seconds(60)); });
  w.sim.run();

  EXPECT_EQ(reg.counter("fault.survey.crashes").value(), 1u);
  // The prober survived both faults and finished all four rounds: the
  // host matched in round 0 (clean) and in round 3 (after the outage);
  // every probe it sent is accounted for in the log.
  std::uint64_t matched_before = 0;
  std::uint64_t matched_after = 0;
  for (const auto& rec : prober.log().records()) {
    if (rec.type != probe::RecordType::kMatched) continue;
    if (rec.probe_time < SimTime::seconds(690)) ++matched_before;
    if (rec.probe_time >= SimTime::seconds(900)) ++matched_after;
  }
  EXPECT_GT(matched_before, 0u);
  EXPECT_GT(matched_after, 0u);
  EXPECT_GT(reg.counter("fault.injected.outage_drops").value(), 0u);
}

TEST_F(DetectorFixture, AdaptivePolicyLearnsPerDestination) {
  // A host with 4 s latency: the adaptive policy starts at 3 s (cold) and
  // after a few samples retransmits later than 4 s, so later checks need
  // only one probe.
  hosts::Host host{w.ctx, target, plain_profile(SimTime::seconds(4)), util::Prng{1}};
  resolver.put(target, &host);

  config.rounds = 8;
  QuantileAdaptivePolicy policy;
  OutageDetector detector{w.sim, w.net, config, policy};
  detector.start({target});
  w.sim.run();

  const auto& outcomes = detector.outcomes();
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_GT(outcomes.front().probes_sent, 1u);  // cold start retried
  EXPECT_EQ(outcomes.back().probes_sent, 1u);   // learned to wait
  EXPECT_EQ(detector.stats().outages_declared, 0u);
}

}  // namespace
}  // namespace turtle::core
