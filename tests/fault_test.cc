// turtle::fault tests: plan parsing, flag validation, the injector's
// packet verdicts and their reconciliation counters, record-stream
// corruption, checkpoint/crash/resume determinism, and the survey's
// bounded pending state.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hosts/host.h"
#include "obs/metrics.h"
#include "probe/checkpoint.h"
#include "probe/survey.h"
#include "test_world.h"
#include "util/flags.h"

namespace turtle::fault {
namespace {

using test::MiniWorld;
using test::plain_profile;

// --- plan parsing ----------------------------------------------------------

TEST(FaultPlan, ParsesEveryKind) {
  const auto plan = FaultPlan::parse_json(R"({
    "schema": "turtle-fault-plan-v1",
    "faults": [
      {"kind": "block_outage", "start_s": 10, "duration_s": 5, "prefix": "10.1.2.0"},
      {"kind": "loss_burst", "start_s": 0, "duration_s": 1, "rate": 0.25},
      {"kind": "delay_spike", "start_s": 1, "duration_s": 2, "delay_s": 7.5},
      {"kind": "dup_storm", "start_s": 2, "duration_s": 3, "rate": 0.5, "copies": 4},
      {"kind": "broadcast_flip", "start_s": 3, "duration_s": 4, "copies": 2},
      {"kind": "prober_crash", "start_s": 100, "restart_delay_s": 30},
      {"kind": "record_corruption", "rate": 0.01}
    ]
  })");
  ASSERT_EQ(plan.faults().size(), 7u);
  EXPECT_EQ(plan.faults()[0].kind, FaultKind::kBlockOutage);
  EXPECT_TRUE(plan.faults()[0].has_prefix);
  EXPECT_EQ(plan.faults()[0].end(), SimTime::seconds(15));
  EXPECT_DOUBLE_EQ(plan.faults()[1].rate, 0.25);
  EXPECT_EQ(plan.faults()[2].delay, SimTime::millis(7500));
  EXPECT_EQ(plan.faults()[3].copies, 4u);
  EXPECT_EQ(plan.faults()[5].restart_delay, SimTime::seconds(30));
  EXPECT_TRUE(plan.has_kind(FaultKind::kProberCrash));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, UnknownKindListsValidNames) {
  try {
    (void)FaultPlan::parse_json(
        R"({"schema": "turtle-fault-plan-v1",
            "faults": [{"kind": "meteor_strike"}]})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("meteor_strike"), std::string::npos) << what;
    EXPECT_NE(what.find("block_outage"), std::string::npos) << what;
    EXPECT_NE(what.find("record_corruption"), std::string::npos) << what;
  }
}

TEST(FaultPlan, RejectsBadValues) {
  const auto plan_with = [](const std::string& spec) {
    return FaultPlan::parse_json(R"({"schema": "turtle-fault-plan-v1", "faults": [)" +
                                 spec + "]}");
  };
  // rate outside (0, 1]
  EXPECT_THROW((void)plan_with(R"({"kind": "loss_burst", "duration_s": 1, "rate": 0})"),
               std::invalid_argument);
  EXPECT_THROW((void)plan_with(R"({"kind": "loss_burst", "duration_s": 1, "rate": 1.5})"),
               std::invalid_argument);
  // negative start, zero duration for a window'd kind
  EXPECT_THROW((void)plan_with(R"({"kind": "block_outage", "start_s": -1, "duration_s": 1})"),
               std::invalid_argument);
  EXPECT_THROW((void)plan_with(R"({"kind": "block_outage"})"), std::invalid_argument);
  // delay spike must actually delay
  EXPECT_THROW((void)plan_with(R"({"kind": "delay_spike", "duration_s": 1})"),
               std::invalid_argument);
  // corruption is stream-wide, not prefix-scoped
  EXPECT_THROW(
      (void)plan_with(R"({"kind": "record_corruption", "rate": 0.5, "prefix": "10.0.0.0"})"),
      std::invalid_argument);
  // malformed prefix
  EXPECT_THROW(
      (void)plan_with(R"({"kind": "block_outage", "duration_s": 1, "prefix": "not-an-ip"})"),
      std::invalid_argument);
  // wrong schema tag
  EXPECT_THROW((void)FaultPlan::parse_json(R"({"schema": "nope", "faults": []})"),
               std::invalid_argument);
  // not JSON at all
  EXPECT_THROW((void)FaultPlan::parse_json("{"), std::invalid_argument);
}

TEST(FaultPlan, FlagValidation) {
  const auto parse_flags = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return util::Flags::parse(static_cast<int>(argv.size()), argv.data());
  };
  // The two real flags pass.
  check_fault_flags(parse_flags({"--fault-plan=/tmp/p.json", "--fault-seed=7"}));
  // A misspelled --fault-* flag is rejected, mentioning the valid kinds so
  // "--fault-loss-burst" users learn faults go in the plan file.
  try {
    check_fault_flags(parse_flags({"--fault-kind=loss_burst"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault-kind"), std::string::npos) << what;
    EXPECT_NE(what.find("loss_burst"), std::string::npos) << what;
  }
}

// --- injector packet verdicts ---------------------------------------------

net::Packet echo_request_packet(net::Ipv4Address src, net::Ipv4Address dst) {
  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = 1;
  echo.seq = 2;
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.protocol = net::Protocol::kIcmp;
  p.payload = net::serialize_icmp(echo);
  return p;
}

struct InjectorFixture : ::testing::Test {
  sim::Simulator sim;
  obs::Registry reg;
  net::Ipv4Address vantage = net::Ipv4Address::from_octets(192, 0, 2, 1);
  net::Ipv4Address host = net::Ipv4Address::from_octets(10, 1, 2, 3);

  FaultInjector make(const std::string& faults_json) {
    const auto plan = FaultPlan::parse_json(
        R"({"schema": "turtle-fault-plan-v1", "faults": [)" + faults_json + "]}");
    return FaultInjector{sim, plan, util::Prng{99}, &reg};
  }

  /// Calls on_send at simulated time `t` (the injector's windows follow
  /// the simulator clock, monotonically).
  sim::FaultHook::Action verdict_at(FaultInjector& inj, SimTime t, const net::Packet& p,
                                    std::uint32_t copies = 1) {
    sim::FaultHook::Action action;
    sim.schedule_at(t, [&] { action = inj.on_send(p, copies); });
    sim.run();
    return action;
  }
};

TEST_F(InjectorFixture, BlockOutageDropsOnlyInsideWindowAndPrefix) {
  auto inj = make(R"({"kind": "block_outage", "start_s": 10, "duration_s": 5,
                      "prefix": "10.1.2.0"})");
  const auto in_block = echo_request_packet(vantage, host);
  const auto other = echo_request_packet(vantage, net::Ipv4Address::from_octets(10, 9, 9, 9));

  EXPECT_FALSE(verdict_at(inj, SimTime::seconds(9), in_block).drop);   // before
  EXPECT_TRUE(verdict_at(inj, SimTime::seconds(10), in_block).drop);   // [start
  EXPECT_FALSE(verdict_at(inj, SimTime::seconds(11), other).drop);     // wrong /24
  EXPECT_TRUE(verdict_at(inj, SimTime::seconds(14), in_block).drop);
  EXPECT_FALSE(verdict_at(inj, SimTime::seconds(15), in_block).drop);  // end)
  EXPECT_EQ(reg.counter("fault.injected.outage_drops").value(), 2u);
}

TEST_F(InjectorFixture, OutageMatchesResponsesBySourceToo) {
  // A response *from* the dark block is dropped as well: the outage cuts
  // the block off in both directions.
  auto inj = make(R"({"kind": "block_outage", "start_s": 0, "duration_s": 5,
                      "prefix": "10.1.2.0"})");
  const auto response = echo_request_packet(host, vantage);
  EXPECT_TRUE(verdict_at(inj, SimTime::seconds(1), response).drop);
}

TEST_F(InjectorFixture, DelaySpikeAddsExactDelay) {
  auto inj = make(R"({"kind": "delay_spike", "start_s": 0, "duration_s": 10,
                      "delay_s": 2.5})");
  const auto p = echo_request_packet(vantage, host);
  const auto action = verdict_at(inj, SimTime::seconds(1), p);
  EXPECT_FALSE(action.drop);
  EXPECT_EQ(action.extra_delay, SimTime::millis(2500));
  EXPECT_EQ(verdict_at(inj, SimTime::seconds(11), p).extra_delay, SimTime{});
  EXPECT_EQ(reg.counter("fault.injected.delayed_packets").value(), 1u);
}

TEST_F(InjectorFixture, DupStormMultipliesCopies) {
  auto inj = make(R"({"kind": "dup_storm", "start_s": 0, "duration_s": 10,
                      "copies": 3})");
  const auto p = echo_request_packet(vantage, host);
  // rate defaults to 1.0: every send in the window gains copies*3 extras.
  EXPECT_EQ(verdict_at(inj, SimTime::seconds(1), p, 2).extra_copies, 6u);
  EXPECT_EQ(verdict_at(inj, SimTime::seconds(20), p, 2).extra_copies, 0u);
  EXPECT_EQ(reg.counter("fault.injected.dup_copies").value(), 6u);
}

TEST_F(InjectorFixture, BroadcastFlipHitsOnlyEchoRequests) {
  auto inj = make(R"({"kind": "broadcast_flip", "start_s": 0, "duration_s": 10,
                      "copies": 2})");
  const auto probe = echo_request_packet(vantage, host);
  EXPECT_EQ(verdict_at(inj, SimTime::seconds(1), probe).extra_copies, 2u);

  net::Packet udp;
  udp.src = vantage;
  udp.dst = host;
  udp.protocol = net::Protocol::kUdp;
  EXPECT_EQ(verdict_at(inj, SimTime::seconds(2), udp).extra_copies, 0u);
  EXPECT_EQ(reg.counter("fault.injected.broadcast_copies").value(), 2u);
}

TEST_F(InjectorFixture, LossBurstAtFullRateDropsEverything) {
  auto inj = make(R"({"kind": "loss_burst", "start_s": 0, "duration_s": 10,
                      "rate": 1.0})");
  const auto p = echo_request_packet(vantage, host);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(verdict_at(inj, SimTime::seconds(i + 1), p).drop);
  }
  EXPECT_EQ(reg.counter("fault.injected.loss_drops").value(), 5u);
}

TEST_F(InjectorFixture, DropWinsOverAmplification) {
  // When an outage and a dup storm overlap, the packet is dropped and the
  // storm's copies are NOT counted: injected counters must equal what the
  // network actually applies (the reconciliation contract).
  auto inj = make(R"({"kind": "block_outage", "start_s": 0, "duration_s": 10},
                     {"kind": "dup_storm", "start_s": 0, "duration_s": 10, "copies": 5})");
  const auto p = echo_request_packet(vantage, host);
  const auto action = verdict_at(inj, SimTime::seconds(1), p);
  EXPECT_TRUE(action.drop);
  EXPECT_EQ(action.extra_copies, 0u);
  EXPECT_EQ(reg.counter("fault.injected.outage_drops").value(), 1u);
  EXPECT_EQ(reg.counter("fault.injected.dup_copies").value(), 0u);
}

// --- network integration ---------------------------------------------------

TEST(FaultNetwork, OutageWindowSilencesDelivery) {
  MiniWorld w;
  obs::Registry reg;
  const auto target = net::Ipv4Address::from_octets(10, 0, 0, 7);
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(50)), util::Prng{1}};

  class OneHostResolver : public sim::AddressResolver {
   public:
    explicit OneHostResolver(sim::PacketSink* sink) : sink_{sink} {}
    sim::PacketSink* resolve(const net::Packet&) override { return sink_; }

   private:
    sim::PacketSink* sink_;
  } resolver{&host};
  w.net.set_host_resolver(&resolver);

  const auto plan = FaultPlan::parse_json(
      R"({"schema": "turtle-fault-plan-v1",
          "faults": [{"kind": "block_outage", "start_s": 10, "duration_s": 10}]})");
  FaultInjector inj{w.sim, plan, util::Prng{3}, &reg};
  w.net.set_fault_hook(&inj);

  w.ping_at(SimTime::seconds(5), target, 0);   // before the outage: answered
  w.ping_at(SimTime::seconds(15), target, 1);  // inside: dropped on send
  w.ping_at(SimTime::seconds(25), target, 2);  // after: answered
  w.sim.run();

  ASSERT_EQ(w.vantage.packets.size(), 2u);
  EXPECT_EQ(reg.counter("fault.injected.outage_drops").value(), 1u);
}

// --- record corruption -----------------------------------------------------

probe::RecordLog make_log(int n) {
  probe::RecordLog log;
  for (int i = 0; i < n; ++i) {
    probe::SurveyRecord r;
    r.type = static_cast<probe::RecordType>(i % 4);
    r.address = net::Ipv4Address{static_cast<std::uint32_t>(i * 2654435761u)};
    r.probe_time = SimTime::micros(i * 1000);
    r.rtt = SimTime::micros(i * 37);
    r.round = static_cast<std::uint32_t>(i / 256);
    r.count = 1;
    log.append(r);
  }
  return log;
}

TEST(FaultCorruption, DetectablePredictsLoaderSkipsExactly) {
  sim::Simulator sim;
  obs::Registry reg;
  const auto plan = FaultPlan::parse_json(
      R"({"schema": "turtle-fault-plan-v1",
          "faults": [{"kind": "record_corruption", "rate": 0.3}]})");
  FaultInjector inj{sim, plan, util::Prng{42}, &reg};
  ASSERT_TRUE(inj.corruption_enabled());

  const auto log = make_log(2000);
  std::ostringstream out;
  log.save(out);
  std::string bytes = out.str();

  FaultInjector::CorruptionStats stats;
  inj.corrupt_record_stream(bytes, &stats);
  EXPECT_GT(stats.records_hit, 400u);  // ~600 expected at rate 0.3
  EXPECT_EQ(stats.records_hit, stats.detectable + stats.silent);

  std::istringstream in{bytes};
  probe::RecordLog::LoadStats load_stats;
  const auto loaded = probe::RecordLog::load(in, &load_stats);
  // The classifier uses the loader's own predicate, so this is exact.
  EXPECT_EQ(load_stats.records_skipped, stats.detectable);
  EXPECT_EQ(load_stats.records_truncated, 0u);
  EXPECT_EQ(loaded.size() + load_stats.records_skipped, log.size());
  // Registry counters mirror the stats (the validate_obs contract).
  EXPECT_EQ(reg.counter("fault.records.hit").value(), stats.records_hit);
  EXPECT_EQ(reg.counter("fault.records.detectable").value(), stats.detectable);
  EXPECT_EQ(reg.counter("fault.records.silent").value(), stats.silent);
}

TEST(FaultCorruption, SameSeedSameDamage) {
  sim::Simulator sim;
  const auto plan = FaultPlan::parse_json(
      R"({"schema": "turtle-fault-plan-v1",
          "faults": [{"kind": "record_corruption", "rate": 0.1}]})");
  const auto log = make_log(500);
  std::string a, b;
  {
    std::ostringstream out;
    log.save(out);
    a = out.str();
    b = a;
  }
  FaultInjector i1{sim, plan, util::Prng{7}, nullptr};
  FaultInjector i2{sim, plan, util::Prng{7}, nullptr};
  i1.corrupt_record_stream(a);
  i2.corrupt_record_stream(b);
  EXPECT_EQ(a, b);
}

// --- checkpoint / crash / resume -------------------------------------------

TEST(Checkpoint, RoundTripAndCorruptionIsFatal) {
  probe::SurveyCheckpoint cp;
  cp.round = 3;
  cp.taken_at = SimTime::seconds(1980);
  cp.rng = util::Prng{123}.state();
  cp.log = make_log(10);
  cp.pending.push_back({0x0A000001u, SimTime::seconds(1979), 2u});
  cp.pending.push_back({0x0A000002u, SimTime::seconds(1979), 3u});

  const std::string bytes = cp.to_bytes();
  const auto back = probe::SurveyCheckpoint::from_bytes(bytes);
  EXPECT_EQ(back.round, cp.round);
  EXPECT_EQ(back.taken_at, cp.taken_at);
  EXPECT_EQ(back.log.size(), cp.log.size());
  ASSERT_EQ(back.pending.size(), 2u);
  EXPECT_EQ(back.pending[1].address, 0x0A000002u);
  EXPECT_EQ(back.pending[1].send_time, SimTime::seconds(1979));

  // Checkpoint corruption is fatal by design (unlike record streams): a
  // resume must never proceed from a half-trusted state.
  std::string damaged = bytes;
  damaged[1] = 'X';
  EXPECT_THROW((void)probe::SurveyCheckpoint::from_bytes(damaged), std::runtime_error);
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)probe::SurveyCheckpoint::from_bytes(truncated), std::runtime_error);
}

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

struct CrashFixture : ::testing::Test {
  MiniWorld w;
  ManualResolver resolver;
  net::Prefix24 block = net::Prefix24::from_network(10u << 16);
  obs::Registry reg;
  probe::SurveyConfig config;

  CrashFixture() {
    w.net.set_host_resolver(&resolver);
    config.rounds = 4;
    config.checkpoints = true;
    config.registry = &reg;
  }

  std::string run_and_serialize(SimTime crash_at, SimTime restart_delay) {
    probe::SurveyProber prober{w.sim, w.net, config, {block}, util::Prng{5}};
    prober.start();
    if (crash_at > SimTime{}) {
      w.sim.schedule_at(crash_at, [&] { prober.crash(restart_delay); });
    }
    w.sim.run();
    std::ostringstream out;
    prober.log().save(out);
    return out.str();
  }
};

TEST_F(CrashFixture, CrashRollsBackToCheckpointAndResumes) {
  hosts::Host host{w.ctx, block.address(10), plain_profile(SimTime::millis(80)),
                   util::Prng{1}};
  resolver.put(block.address(10), &host);

  // Crash mid round 1 (round interval 11 min): everything after the
  // round-1 boundary checkpoint is lost, then re-probed after restart.
  (void)run_and_serialize(SimTime::seconds(800), SimTime::seconds(60));

  EXPECT_EQ(reg.counter("fault.survey.crashes").value(), 1u);
  EXPECT_GT(reg.counter("fault.survey.records_lost").value(), 0u);
  // The prober restarted and kept probing: round 1's slots that fell into
  // the 60 s dead window are accounted for, later rounds completed.
  EXPECT_GT(reg.counter("fault.survey.slots_missed").value(), 0u);
  EXPECT_EQ(reg.counter("fault.survey.checkpoints").value(), 5u);  // 0..4
}

TEST_F(CrashFixture, CrashedRunIsDeterministic) {
  hosts::Host h1{w.ctx, block.address(10), plain_profile(SimTime::millis(80)),
                 util::Prng{1}};
  resolver.put(block.address(10), &h1);
  const std::string first = run_and_serialize(SimTime::seconds(800), SimTime::seconds(60));

  // A fresh world, same seeds, same crash: byte-identical record log.
  MiniWorld w2;
  ManualResolver r2;
  hosts::Host h2{w2.ctx, block.address(10), plain_profile(SimTime::millis(80)),
                 util::Prng{1}};
  r2.put(block.address(10), &h2);
  w2.net.set_host_resolver(&r2);
  probe::SurveyConfig config2 = config;
  obs::Registry reg2;
  config2.registry = &reg2;
  probe::SurveyProber prober{w2.sim, w2.net, config2, {block}, util::Prng{5}};
  prober.start();
  w2.sim.schedule_at(SimTime::seconds(800),
                     [&] { prober.crash(SimTime::seconds(60)); });
  w2.sim.run();
  std::ostringstream out;
  prober.log().save(out);
  EXPECT_EQ(first, out.str());
}

TEST_F(CrashFixture, CheckpointFromTheLiveLogMatchesToBytes) {
  hosts::Host host{w.ctx, block.address(10), plain_profile(SimTime::millis(80)),
                   util::Prng{1}};
  resolver.put(block.address(10), &host);
  probe::SurveyProber prober{w.sim, w.net, config, {block}, util::Prng{5}};
  prober.start();
  // The last checkpoints are written from a log restored by the resume.
  w.sim.schedule_at(SimTime::seconds(800), [&] { prober.crash(SimTime::seconds(60)); });
  w.sim.run();

  // The prober writes its checkpoints straight from its live log; a
  // checkpoint holding a copy of that log serializes to the same bytes.
  const std::string& bytes = prober.checkpoint_bytes();
  const auto cp = probe::SurveyCheckpoint::from_bytes(bytes);
  EXPECT_EQ(cp.round, 4u);
  EXPECT_GT(cp.log.size(), 3u * 256);
  EXPECT_EQ(cp.to_bytes(), bytes);
}

TEST_F(CrashFixture, ResponsesDuringDowntimeAreCountedNotDelivered) {
  // Hosts slower than the crash window: responses to the probes sent just
  // before the crash arrive while the prober is down and must be counted,
  // not delivered (and certainly not crash the process). Populating every
  // octet makes this independent of the survey's slot permutation.
  std::vector<std::unique_ptr<hosts::Host>> hosts;
  for (int octet = 0; octet < 256; ++octet) {
    const auto addr = block.address(static_cast<std::uint8_t>(octet));
    hosts.push_back(std::make_unique<hosts::Host>(
        w.ctx, addr, plain_profile(SimTime::seconds(12)), util::Prng{1}));
    resolver.put(addr, hosts.back().get());
  }

  // Probes flow every ~2.58 s; those sent in (15 s, 27 s) respond ~12 s
  // later, inside the [27 s, 57 s) dead window.
  (void)run_and_serialize(SimTime::seconds(27), SimTime::seconds(30));
  EXPECT_GE(reg.counter("fault.survey.recv_while_down").value(), 1u);
}

// --- bounded pending state -------------------------------------------------

TEST_F(CrashFixture, PendingStateIsBounded) {
  // No hosts at all and the longest legal match timeout (one full round):
  // without eviction, outstanding state would grow toward 256 entries.
  config.checkpoints = false;
  config.rounds = 2;
  config.match_timeout = config.round_interval;
  config.max_pending = 64;

  probe::SurveyProber prober{w.sim, w.net, config, {block}, util::Prng{5}};
  prober.start();
  w.sim.run();

  const auto evicted = reg.counter("fault.survey.pending_evicted").value();
  EXPECT_GT(evicted, 0u);
  // Every probe still produced exactly one record: evicted probes are
  // recorded as timeouts, the stream stays complete.
  EXPECT_EQ(prober.log().size(), 2u * 256);
}

}  // namespace
}  // namespace turtle::fault
