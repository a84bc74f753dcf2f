#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "util/prng.h"

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

probe::SurveyRecord error(net::Ipv4Address addr, double t_s, std::uint32_t round) {
  probe::SurveyRecord r;
  r.type = probe::RecordType::kError;
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

/// The flat layout's exact sizing: each timeline's run in every array
/// starts where the previous timeline's ends, so the runs tile each array
/// with no gap.
void expect_runs_tile_arrays(const SurveyDataset& ds) {
  const std::vector<AddressTimeline>& tls = ds.timelines();
  for (std::size_t i = 1; i < tls.size(); ++i) {
    const AddressTimeline& prev = tls[i - 1];
    EXPECT_EQ(tls[i].requests.data(), prev.requests.data() + prev.requests.size());
    EXPECT_EQ(tls[i].rtts_s.data(), prev.rtts_s.data() + prev.rtts_s.size());
    EXPECT_EQ(tls[i].unmatched.data(), prev.unmatched.data() + prev.unmatched.size());
  }
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
    EXPECT_EQ(tl.unmatched.size(), 3u);
  }
  EXPECT_EQ(ds.find(kAddr)->rtts_s.size(), 50u);
  EXPECT_TRUE(ds.find(kOther)->rtts_s.empty());
  expect_runs_tile_arrays(ds);
}

TEST(SurveyDataset, MovesEachRttWithItsRequest) {
  probe::RecordLog log;
  // Two matched probes logged out of send-time order (as a silently
  // corrupted timestamp or a crash/resume splice can leave them): sorting
  // the requests must carry each RTT along.
  log.append(matched(kAddr, 11, 0.05, 1));
  log.append(matched(kAddr, 10, 0.2, 0));

  const auto ds = SurveyDataset::from_log(log);
  const AddressTimeline& tl = *ds.find(kAddr);
  ASSERT_EQ(tl.requests.size(), 2u);
  EXPECT_EQ(tl.requests[0].round, 0u);
  EXPECT_EQ(tl.requests[1].round, 1u);
  ASSERT_EQ(tl.rtts_s.size(), 2u);
  EXPECT_DOUBLE_EQ(tl.rtts_s[0], 0.2);
  EXPECT_DOUBLE_EQ(tl.rtts_s[1], 0.05);

  const auto result = run_pipeline(ds, {});
  ASSERT_EQ(result.addresses.size(), 1u);
  ASSERT_EQ(result.addresses[0].rtts_s.size(), 2u);
  EXPECT_DOUBLE_EQ(result.addresses[0].rtts_s[0], 0.2);
  EXPECT_DOUBLE_EQ(result.addresses[0].rtts_s[1], 0.05);
}

TEST(SurveyDataset, LeavesOutAddressesThatNeverAnswered) {
  const net::Ipv4Address silent = net::Ipv4Address::from_octets(10, 0, 0, 7);
  const net::Ipv4Address unmatched_only = net::Ipv4Address::from_octets(10, 0, 0, 8);
  const net::Ipv4Address one_match = net::Ipv4Address::from_octets(10, 0, 0, 9);
  probe::RecordLog log;
  for (std::uint32_t round = 0; round < 6; ++round) {
    const double t = round * 660.0;
    log.append(matched(kAddr, t, 0.1, round));
    log.append(round % 2 == 0 ? timeout(silent, t + 1, round) : error(silent, t + 1, round));
    log.append(unmatched(unmatched_only, t + 2));
    log.append(round == 3 ? matched(one_match, t + 3, 0.2, round)
                          : timeout(one_match, t + 3, round));
  }

  const auto ds = SurveyDataset::from_log(log);
  EXPECT_EQ(ds.find(silent), nullptr);
  ASSERT_EQ(ds.address_count(), 3u);
  EXPECT_EQ(ds.timelines().capacity(), ds.timelines().size());
  EXPECT_EQ(ds.timelines()[0].address, kAddr);
  EXPECT_EQ(ds.timelines()[1].address, unmatched_only);
  EXPECT_EQ(ds.timelines()[2].address, one_match);
  for (std::size_t i = 0; i < ds.timelines().size(); ++i) {
    EXPECT_EQ(ds.find(ds.timelines()[i].address), &ds.timelines()[i]);
  }
  EXPECT_TRUE(ds.find(unmatched_only)->requests.empty());
  EXPECT_EQ(ds.find(unmatched_only)->unmatched.size(), 6u);
  EXPECT_EQ(ds.find(one_match)->requests.size(), 6u);
  EXPECT_EQ(ds.find(one_match)->rtts_s.size(), 1u);
  // The silent address sits between the others in first-appearance order,
  // yet the runs tile each array with no room left for it.
  expect_runs_tile_arrays(ds);
}

TEST(SurveyDatasetDeathTest, SourceChangingBetweenPassesDies) {
  // The count pass sees only a timeout from kOther, so it gets no timeline;
  // the place pass is handed a matched record for it instead.
  auto source = [passes = 0](const auto& visit) mutable {
    visit(matched(kAddr, 0, 0.1, 0));
    visit(passes++ == 0 ? timeout(kOther, 1, 0) : matched(kOther, 1, 0.1, 0));
  };
  EXPECT_DEATH((void)SurveyDataset::from_records(source),
               "record source changed between grouping's passes");

  // An address the count pass never saw has no index entry to place into.
  auto grows = [passes = 0](const auto& visit) mutable {
    visit(matched(kAddr, 0, 0.1, 0));
    if (passes++ > 0) visit(timeout(kOther, 1, 0));
  };
  EXPECT_DEATH((void)SurveyDataset::from_records(grows),
               "record source changed between grouping's passes");
}

/// The grouping SurveyDataset's flat arrays replaced, kept as a model:
/// per-address vectors in order of first appearance, each stable-sorted by
/// time, with a matched request's RTT stored in the request itself, and
/// no timeline for an address with neither a matched request nor an
/// unmatched response.
struct ModelRequest {
  Request request;
  double rtt_s = 0;
};
struct ModelTimeline {
  net::Ipv4Address address;
  std::vector<ModelRequest> requests;
  std::vector<UnmatchedResponse> unmatched;
};

std::vector<ModelTimeline> model_grouping(const probe::RecordLog& log) {
  std::vector<ModelTimeline> timelines;
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (const probe::SurveyRecord& rec : log.records()) {
    const auto [it, inserted] = index.try_emplace(rec.address.value(), timelines.size());
    if (inserted) timelines.push_back(ModelTimeline{rec.address, {}, {}});
    ModelTimeline& tl = timelines[it->second];
    const double t = rec.probe_time.as_seconds();
    switch (rec.type) {
      case probe::RecordType::kMatched:
        tl.requests.push_back({{t, rec.round, RequestState::kMatched}, rec.rtt.as_seconds()});
        break;
      case probe::RecordType::kTimeout:
        tl.requests.push_back({{t, rec.round, RequestState::kTimedOut}, 0});
        break;
      case probe::RecordType::kError:
        tl.requests.push_back({{t, rec.round, RequestState::kError}, 0});
        break;
      case probe::RecordType::kUnmatched:
        tl.unmatched.push_back({t, rec.count});
        break;
    }
  }
  for (ModelTimeline& tl : timelines) {
    std::stable_sort(tl.requests.begin(), tl.requests.end(),
                     [](const ModelRequest& a, const ModelRequest& b) {
                       return a.request.time_s < b.request.time_s;
                     });
    std::stable_sort(tl.unmatched.begin(), tl.unmatched.end(),
                     [](const UnmatchedResponse& a, const UnmatchedResponse& b) {
                       return a.time_s < b.time_s;
                     });
  }
  std::erase_if(timelines, [](const ModelTimeline& tl) {
    return tl.unmatched.empty() &&
           std::none_of(tl.requests.begin(), tl.requests.end(), [](const ModelRequest& r) {
             return r.request.state == RequestState::kMatched;
           });
  });
  return timelines;
}

/// A random log over a few addresses of one /24. Times fall on a few dozen
/// seconds, so equal timestamps are common; `in_order` makes them
/// non-decreasing in log order, so that every timeline is already sorted.
probe::RecordLog random_log(util::Prng& rng, bool in_order) {
  probe::RecordLog log;
  const auto addresses = 1 + rng.uniform_int(6);
  const auto records = rng.uniform_int(160);
  std::int64_t clock_us = 0;
  for (std::uint64_t i = 0; i < records; ++i) {
    probe::SurveyRecord r;
    r.type = static_cast<probe::RecordType>(rng.uniform_int(4));
    r.address = net::Ipv4Address::from_octets(10, 0, 0, static_cast<std::uint8_t>(
                                                            1 + rng.uniform_int(addresses)));
    std::int64_t t_us = 0;
    if (in_order) {
      clock_us += static_cast<std::int64_t>(rng.uniform_int(3)) * 400'000;
      t_us = clock_us;
    } else {
      t_us = static_cast<std::int64_t>(rng.uniform_int(40)) * 1'000'000 +
             (rng.bernoulli(0.5) ? 0 : static_cast<std::int64_t>(rng.uniform_int(1'000'000)));
    }
    r.probe_time = SimTime::micros(t_us);
    if (r.type != probe::RecordType::kMatched) r.probe_time = r.probe_time.truncate_to_seconds();
    if (in_order && log.size() > 0) {
      r.probe_time = std::max(r.probe_time, log.at(log.size() - 1).probe_time);
    }
    if (r.type == probe::RecordType::kMatched) {
      r.rtt = SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(3'000'000)));
    }
    r.round = static_cast<std::uint32_t>(rng.uniform_int(60));
    r.count = 1 + static_cast<std::uint32_t>(rng.uniform_int(3));
    log.append(r);
  }
  return log;
}

TEST(SurveyDataset, MatchesPerAddressVectorModel) {
  util::Prng rng{2015};
  std::size_t silent = 0;  // addresses the model dropped, over all trials
  for (int trial = 0; trial < 400; ++trial) {
    const probe::RecordLog log = random_log(rng, trial % 4 == 0);
    const auto ds = SurveyDataset::from_log(log);
    const std::vector<ModelTimeline> model = model_grouping(log);
    std::unordered_set<std::uint32_t> addresses;
    for (const probe::SurveyRecord& rec : log.records()) addresses.insert(rec.address.value());
    silent += addresses.size() - model.size();
    for (const std::uint32_t addr : addresses) {
      const bool kept = std::any_of(model.begin(), model.end(), [addr](const ModelTimeline& tl) {
        return tl.address.value() == addr;
      });
      if (!kept) {
        EXPECT_EQ(ds.find(net::Ipv4Address{addr}), nullptr) << "trial " << trial;
      }
    }
    ASSERT_EQ(ds.address_count(), model.size()) << "trial " << trial;
    for (std::size_t i = 0; i < model.size(); ++i) {
      const AddressTimeline& tl = ds.timelines()[i];
      const ModelTimeline& want = model[i];
      ASSERT_EQ(tl.address, want.address) << "trial " << trial;
      EXPECT_EQ(ds.find(want.address), &tl);
      ASSERT_EQ(tl.requests.size(), want.requests.size()) << "trial " << trial;
      std::vector<double> want_rtts;
      for (std::size_t k = 0; k < want.requests.size(); ++k) {
        const Request& got = tl.requests[k];
        const Request& expected = want.requests[k].request;
        EXPECT_EQ(got.time_s, expected.time_s) << "trial " << trial << " request " << k;
        EXPECT_EQ(got.round, expected.round) << "trial " << trial << " request " << k;
        EXPECT_EQ(got.state, expected.state) << "trial " << trial << " request " << k;
        if (expected.state == RequestState::kMatched) want_rtts.push_back(want.requests[k].rtt_s);
      }
      EXPECT_EQ(std::vector<double>(tl.rtts_s.begin(), tl.rtts_s.end()), want_rtts)
          << "trial " << trial;
      ASSERT_EQ(tl.unmatched.size(), want.unmatched.size()) << "trial " << trial;
      for (std::size_t k = 0; k < want.unmatched.size(); ++k) {
        EXPECT_EQ(tl.unmatched[k].time_s, want.unmatched[k].time_s) << "trial " << trial;
        EXPECT_EQ(tl.unmatched[k].count, want.unmatched[k].count) << "trial " << trial;
      }
    }
    expect_runs_tile_arrays(ds);
  }
  EXPECT_GT(silent, 0u) << "no trial had a silent address; the model's drop is untested";
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
