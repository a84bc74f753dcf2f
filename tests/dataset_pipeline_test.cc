#include <gtest/gtest.h>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"

namespace turtle::analysis {
namespace {

const net::Ipv4Address kAddr = net::Ipv4Address::from_octets(10, 0, 0, 5);
const net::Ipv4Address kOther = net::Ipv4Address::from_octets(10, 0, 0, 6);

probe::SurveyRecord matched(net::Ipv4Address addr, double t_s, double rtt_s,
                            std::uint32_t round) {
  probe::SurveyRecord r;
  r.type = probe::RecordType::kMatched;
  r.address = addr;
  r.probe_time = SimTime::from_seconds(t_s);
  r.rtt = SimTime::from_seconds(rtt_s);
  r.round = round;
  return r;
}

probe::SurveyRecord timeout(net::Ipv4Address addr, double t_s, std::uint32_t round) {
  probe::SurveyRecord r;
  r.type = probe::RecordType::kTimeout;
  r.address = addr;
  r.probe_time = SimTime::from_seconds(t_s).truncate_to_seconds();
  r.round = round;
  return r;
}

probe::SurveyRecord unmatched(net::Ipv4Address addr, double t_s, std::uint32_t count = 1) {
  probe::SurveyRecord r;
  r.type = probe::RecordType::kUnmatched;
  r.address = addr;
  r.probe_time = SimTime::from_seconds(t_s).truncate_to_seconds();
  r.count = count;
  return r;
}

TEST(SurveyDataset, GroupsByAddress) {
  probe::RecordLog log;
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(matched(kOther, 2, 0.2, 0));
  log.append(matched(kAddr, 660, 0.1, 1));

  const auto ds = SurveyDataset::from_log(log);
  EXPECT_EQ(ds.address_count(), 2u);
  ASSERT_NE(ds.find(kAddr), nullptr);
  EXPECT_EQ(ds.find(kAddr)->requests.size(), 2u);
  EXPECT_EQ(ds.find(kOther)->requests.size(), 1u);
  EXPECT_EQ(ds.find(net::Ipv4Address::from_octets(1, 1, 1, 1)), nullptr);
}

TEST(SurveyDataset, SortsRequestsBySendTime) {
  probe::RecordLog log;
  // A timeout record for a probe at t=10 is *emitted* at t=13, after the
  // matched record for a later probe at t=11 that responded instantly.
  log.append(matched(kAddr, 11, 0.05, 1));
  log.append(timeout(kAddr, 10, 0));

  const auto ds = SurveyDataset::from_log(log);
  const auto& requests = ds.find(kAddr)->requests;
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].round, 0u);
  EXPECT_EQ(requests[1].round, 1u);
}

TEST(SurveyDataset, SizesEachTimelineExactly) {
  probe::RecordLog log;
  for (std::uint32_t round = 0; round < 50; ++round) {
    const double t = round * 660.0;
    log.append(matched(kAddr, t, 0.1, round));
    log.append(timeout(kOther, t + 2, round));
    if (round % 20 == 0) {
      log.append(unmatched(kAddr, t + 30));
      log.append(unmatched(kOther, t + 40));
    }
  }

  const auto ds = SurveyDataset::from_log(log);
  EXPECT_EQ(ds.timelines().capacity(), ds.timelines().size());
  for (const AddressTimeline& tl : ds.timelines()) {
    EXPECT_EQ(tl.requests.size(), 50u);
    EXPECT_EQ(tl.requests.capacity(), tl.requests.size());
    EXPECT_EQ(tl.unmatched.size(), 3u);
    EXPECT_EQ(tl.unmatched.capacity(), tl.unmatched.size());
  }
}

TEST(Pipeline, SurveyDetectedOnly) {
  probe::RecordLog log;
  for (int round = 0; round < 5; ++round) {
    log.append(matched(kAddr, round * 660.0, 0.1 + round * 0.01,
                       static_cast<std::uint32_t>(round)));
  }
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  const auto& report = result.addresses[0];
  EXPECT_EQ(report.survey_detected, 5u);
  EXPECT_EQ(report.delayed, 0u);
  ASSERT_EQ(report.rtts_s.size(), 5u);
  EXPECT_NEAR(report.rtts_s[0], 0.1, 1e-9);
  EXPECT_EQ(result.counters.survey_detected_packets, 5u);
  EXPECT_EQ(result.counters.combined_packets, 5u);
}

TEST(Pipeline, DelayedResponseRecovered) {
  probe::RecordLog log;
  // Probe at t=660 times out; response arrives at t=667 (7 s latency).
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(timeout(kAddr, 660, 1));
  log.append(unmatched(kAddr, 667));

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  const auto& report = result.addresses[0];
  EXPECT_EQ(report.survey_detected, 1u);
  EXPECT_EQ(report.delayed, 1u);
  ASSERT_EQ(report.rtts_s.size(), 2u);
  EXPECT_NEAR(report.rtts_s[1], 7.0, 1e-9);
}

TEST(Pipeline, UnmatchedAfterMatchedRequestIsNotDelayed) {
  probe::RecordLog log;
  // The request was already matched; a later response from the same source
  // (e.g. broadcast-triggered) must not create a latency sample.
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(unmatched(kAddr, 330));

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].delayed, 0u);
  EXPECT_EQ(result.addresses[0].rtts_s.size(), 1u);
}

TEST(Pipeline, OnlyFirstUnmatchedConsumesTimeout) {
  probe::RecordLog log;
  log.append(timeout(kAddr, 0, 0));
  log.append(unmatched(kAddr, 5));
  log.append(unmatched(kAddr, 8));  // duplicate: same request already consumed

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].delayed, 1u);
  EXPECT_NEAR(result.addresses[0].rtts_s[0], 5.0, 1e-9);
  EXPECT_EQ(result.addresses[0].max_responses_single_request, 2u);
}

TEST(Pipeline, ResponseBeforeAnyRequestIgnored) {
  probe::RecordLog log;
  log.append(unmatched(kAddr, 1));
  log.append(matched(kAddr, 10, 0.1, 0));

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].rtts_s.size(), 1u);
}

TEST(Pipeline, DuplicateFilterDiscardsOverThreshold) {
  probe::RecordLog log;
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(unmatched(kAddr, 1, 5));  // 1 matched + 5 extra = 6 > 4

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_TRUE(result.addresses.empty());
  ASSERT_EQ(result.duplicate_flagged.size(), 1u);
  EXPECT_EQ(result.duplicate_flagged[0], kAddr);
  EXPECT_EQ(result.counters.duplicate_addresses, 1u);
  EXPECT_EQ(result.counters.duplicate_packets, 6u);
}

TEST(Pipeline, ExactlyFourResponsesSurvives) {
  probe::RecordLog log;
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(unmatched(kAddr, 1, 3));  // total 4 == threshold: keep

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].max_responses_single_request, 4u);
}

TEST(Pipeline, DuplicateFilterCanBeDisabled) {
  probe::RecordLog log;
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(unmatched(kAddr, 1, 50));

  auto ds = SurveyDataset::from_log(log);
  PipelineConfig cfg;
  cfg.filter_duplicates = false;
  const auto result = run_pipeline(ds, cfg);
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].max_responses_single_request, 51u);
}

/// Builds a broadcast-responder timeline: every round, the host's own
/// probe is answered AND a broadcast response arrives 330 s later.
probe::RecordLog broadcast_log(int rounds) {
  probe::RecordLog log;
  for (int round = 0; round < rounds; ++round) {
    const double t = round * 660.0;
    log.append(matched(kAddr, t, 0.05, static_cast<std::uint32_t>(round)));
    log.append(unmatched(kAddr, t + 330));
  }
  return log;
}

TEST(Pipeline, BroadcastResponderFlaggedAfterEnoughRounds) {
  // alpha = 0.01 from zero crosses 0.2 after ~23 consecutive rounds.
  auto log = broadcast_log(40);
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_TRUE(result.addresses.empty());
  ASSERT_EQ(result.broadcast_flagged.size(), 1u);
  EXPECT_EQ(result.broadcast_flagged[0], kAddr);
}

TEST(Pipeline, BroadcastResponderNotFlaggedWithFewRounds) {
  auto log = broadcast_log(10);
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_TRUE(result.broadcast_flagged.empty());
  ASSERT_EQ(result.addresses.size(), 1u);
  // The broadcast responses still do not pollute latency (requests were
  // all matched).
  EXPECT_EQ(result.addresses[0].delayed, 0u);
}

TEST(Pipeline, GenuineDelaysNotFlaggedAsBroadcast) {
  // Varying high latencies (congestion) must not trip the similar-latency
  // filter even over many rounds.
  probe::RecordLog log;
  double latency = 15;
  for (int round = 0; round < 60; ++round) {
    const double t = round * 660.0;
    log.append(timeout(kAddr, t, static_cast<std::uint32_t>(round)));
    log.append(unmatched(kAddr, t + latency));
    latency = 15 + ((round * 37) % 100);  // latency jumps around
  }
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_TRUE(result.broadcast_flagged.empty());
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0].delayed, 60u);
}

TEST(Pipeline, BroadcastFilterToleratesMissedRounds) {
  // The EWMA max survives occasional missing rounds once it has crossed
  // the threshold.
  probe::RecordLog log;
  for (int round = 0; round < 60; ++round) {
    if (round % 10 == 9) continue;  // drop every tenth round
    const double t = round * 660.0;
    log.append(matched(kAddr, t, 0.05, static_cast<std::uint32_t>(round)));
    log.append(unmatched(kAddr, t + 330));
  }
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_EQ(result.broadcast_flagged.size(), 1u);
}

TEST(Pipeline, UnreachableThresholdNeverFlags) {
  // With alpha = 0.01 the EWMA maximum over n rounds is 1 - 0.99^n; a
  // threshold above that is unreachable and must flag nothing — the
  // parameter cliff the ablation bench demonstrates.
  auto log = broadcast_log(40);  // max EWMA ~ 0.33
  auto ds = SurveyDataset::from_log(log);
  PipelineConfig config;
  config.broadcast_flag_threshold = 0.5;
  const auto result = run_pipeline(ds, config);
  EXPECT_TRUE(result.broadcast_flagged.empty());
}

TEST(Pipeline, FasterEwmaFlagsSooner) {
  auto log = broadcast_log(8);  // far too few rounds for alpha = 0.01
  {
    auto ds = SurveyDataset::from_log(log);
    const auto slow = run_pipeline(ds, {});
    EXPECT_TRUE(slow.broadcast_flagged.empty());
  }
  {
    auto ds = SurveyDataset::from_log(log);
    PipelineConfig config;
    config.broadcast_alpha = 0.2;
    const auto fast = run_pipeline(ds, config);
    EXPECT_EQ(fast.broadcast_flagged.size(), 1u);
  }
}

TEST(Pipeline, ErrorRequestsExcludedFromLatency) {
  probe::RecordLog log;
  probe::SurveyRecord err;
  err.type = probe::RecordType::kError;
  err.address = kAddr;
  err.probe_time = SimTime::seconds(0);
  log.append(err);
  log.append(unmatched(kAddr, 5));

  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  // The unmatched response attributes to the errored request but does not
  // become a delayed-response latency sample.
  for (const auto& report : result.addresses) {
    EXPECT_TRUE(report.rtts_s.empty());
  }
}

TEST(Pipeline, CountersAreConsistent) {
  probe::RecordLog log;
  log.append(matched(kAddr, 0, 0.1, 0));
  log.append(timeout(kOther, 0, 0));
  log.append(unmatched(kOther, 7));
  auto ds = SurveyDataset::from_log(log);
  const auto result = run_pipeline(ds, {});
  EXPECT_EQ(result.counters.survey_detected_addresses, 1u);
  EXPECT_EQ(result.counters.naive_addresses, 2u);
  EXPECT_EQ(result.counters.combined_addresses, 2u);
  EXPECT_EQ(result.counters.combined_packets, 2u);
  EXPECT_EQ(result.counters.naive_packets, 2u);
}

}  // namespace
}  // namespace turtle::analysis
