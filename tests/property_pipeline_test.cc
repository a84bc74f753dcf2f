// Property tests: the analysis pipeline's invariants must hold for
// arbitrary (randomly generated) record logs, not just the crafted cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "util/prng.h"

namespace turtle::analysis {
namespace {

/// Generates a random but structurally valid record log: for each of
/// `addresses` addresses, `rounds` rounds of either a matched or a
/// timed-out probe, plus random unmatched responses.
probe::RecordLog random_log(std::uint64_t seed, int addresses, int rounds) {
  util::Prng rng{seed};
  probe::RecordLog log;
  struct Pending {
    probe::SurveyRecord rec;
    double emit_time;
  };
  std::vector<Pending> pending;

  for (int round = 0; round < rounds; ++round) {
    for (int a = 0; a < addresses; ++a) {
      const double t = round * 660.0 + a * 2.578 + rng.uniform();
      const auto addr = net::Ipv4Address{0x0A000000u + static_cast<std::uint32_t>(a)};
      probe::SurveyRecord rec;
      rec.address = addr;
      rec.round = static_cast<std::uint32_t>(round);
      if (rng.bernoulli(0.6)) {
        rec.type = probe::RecordType::kMatched;
        rec.probe_time = SimTime::from_seconds(t);
        rec.rtt = SimTime::from_seconds(rng.uniform() * 2.9);
        pending.push_back({rec, t + rec.rtt.as_seconds()});
      } else {
        rec.type = probe::RecordType::kTimeout;
        rec.probe_time = SimTime::from_seconds(t).truncate_to_seconds();
        pending.push_back({rec, t + 3.0});
        // Maybe a delayed response, maybe several (duplicates).
        if (rng.bernoulli(0.5)) {
          probe::SurveyRecord um;
          um.type = probe::RecordType::kUnmatched;
          um.address = addr;
          const double delay = 3.5 + rng.uniform() * 300.0;
          um.probe_time = SimTime::from_seconds(t + delay).truncate_to_seconds();
          um.count = 1 + static_cast<std::uint32_t>(rng.uniform_int(3));
          pending.push_back({um, t + delay});
        }
      }
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& x, const Pending& y) { return x.emit_time < y.emit_time; });
  for (auto& p : pending) log.append(p.rec);
  return log;
}

/// `log` with the records of addresses that never answer (timeouts and
/// ICMP errors only) interleaved: after most records of `log`, one record
/// of one of 50 silent addresses, stamped with that record's second.
probe::RecordLog with_silent_addresses(const probe::RecordLog& log, std::uint64_t seed) {
  util::Prng rng{seed};
  probe::RecordLog out;
  for (const probe::SurveyRecord& rec : log.records()) {
    out.append(rec);
    if (!rng.bernoulli(0.7)) continue;
    probe::SurveyRecord silent;
    silent.type = rng.bernoulli(0.8) ? probe::RecordType::kTimeout : probe::RecordType::kError;
    silent.address =
        net::Ipv4Address{0x0A010000u + static_cast<std::uint32_t>(rng.uniform_int(50))};
    silent.probe_time = rec.probe_time.truncate_to_seconds();
    silent.round = rec.round;
    out.append(silent);
  }
  return out;
}

/// Every Table 1 counter, dropped packets included.
std::vector<std::uint64_t> counter_values(const PipelineCounters& c) {
  return {c.survey_detected_packets, c.survey_detected_addresses, c.naive_packets,
          c.naive_addresses,         c.broadcast_packets,         c.broadcast_addresses,
          c.duplicate_packets,       c.duplicate_addresses,       c.combined_packets,
          c.combined_addresses,      c.dropped_packets};
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, InvariantsHold) {
  auto log = random_log(GetParam(), 40, 30);
  auto ds = SurveyDataset::from_log(log);
  PipelineConfig config;
  const auto result = run_pipeline(ds, config);
  const auto& c = result.counters;

  // Counter algebra.
  EXPECT_LE(c.survey_detected_packets, c.naive_packets);
  EXPECT_LE(c.survey_detected_addresses, c.naive_addresses);
  EXPECT_EQ(c.naive_addresses, c.combined_addresses + c.broadcast_addresses +
                                   c.duplicate_addresses +
                                   (c.naive_addresses - c.combined_addresses -
                                    c.broadcast_addresses - c.duplicate_addresses));
  EXPECT_LE(c.broadcast_addresses + c.duplicate_addresses, c.naive_addresses);

  std::uint64_t kept_survey = 0;
  std::uint64_t kept_delayed = 0;
  for (const auto& report : result.addresses) {
    // Per-address sanity.
    EXPECT_EQ(report.rtts_s.size(), report.survey_detected + report.delayed);
    EXPECT_LE(report.delayed, report.timeouts);
    EXPECT_LE(report.survey_detected + report.timeouts, report.requests);
    EXPECT_LE(report.max_responses_single_request, config.max_responses_per_request);
    for (const double rtt : report.rtts_s) {
      EXPECT_GE(rtt, 0.0);
      EXPECT_LT(rtt, 660.0 * 31);  // bounded by the experiment duration
    }
    kept_survey += report.survey_detected;
    kept_delayed += report.delayed;
  }
  EXPECT_EQ(c.combined_packets, kept_survey + kept_delayed);

  // No address appears in two disposition sets.
  std::set<std::uint32_t> kept;
  for (const auto& r : result.addresses) kept.insert(r.address.value());
  for (const auto a : result.broadcast_flagged) EXPECT_EQ(kept.count(a.value()), 0u);
  for (const auto a : result.duplicate_flagged) EXPECT_EQ(kept.count(a.value()), 0u);
}

TEST_P(PipelineProperty, FiltersOnlyEverShrink) {
  auto log = random_log(GetParam() ^ 0x1234, 30, 25);

  auto ds_raw = SurveyDataset::from_log(log);
  PipelineConfig raw_config;
  raw_config.filter_broadcast = false;
  raw_config.filter_duplicates = false;
  const auto raw = run_pipeline(ds_raw, raw_config);

  auto ds_filtered = SurveyDataset::from_log(log);
  const auto filtered = run_pipeline(ds_filtered, {});

  EXPECT_LE(filtered.addresses.size(), raw.addresses.size());
  EXPECT_LE(filtered.counters.combined_packets, raw.counters.combined_packets);
  // Naive counters do not depend on the filters.
  EXPECT_EQ(filtered.counters.naive_packets, raw.counters.naive_packets);
  EXPECT_EQ(filtered.counters.survey_detected_packets, raw.counters.survey_detected_packets);
}

TEST_P(PipelineProperty, DeterministicAcrossRuns) {
  auto log = random_log(GetParam() ^ 0x9999, 20, 20);
  auto ds1 = SurveyDataset::from_log(log);
  auto ds2 = SurveyDataset::from_log(log);
  const auto r1 = run_pipeline(ds1, {});
  const auto r2 = run_pipeline(ds2, {});
  ASSERT_EQ(r1.addresses.size(), r2.addresses.size());
  for (std::size_t i = 0; i < r1.addresses.size(); ++i) {
    EXPECT_EQ(r1.addresses[i].address, r2.addresses[i].address);
    EXPECT_EQ(r1.addresses[i].rtts_s, r2.addresses[i].rtts_s);
  }

  // The pipeline leaves its dataset as it found it: a second run on ds1
  // agrees with the first on every counter, address and sample.
  const auto again = run_pipeline(ds1, {});
  EXPECT_EQ(counter_values(again.counters), counter_values(r1.counters));
  ASSERT_EQ(again.addresses.size(), r1.addresses.size());
  for (std::size_t i = 0; i < r1.addresses.size(); ++i) {
    EXPECT_EQ(again.addresses[i].address, r1.addresses[i].address);
    EXPECT_EQ(again.addresses[i].rtts_s, r1.addresses[i].rtts_s);
  }
  EXPECT_EQ(again.broadcast_flagged, r1.broadcast_flagged);
  EXPECT_EQ(again.duplicate_flagged, r1.duplicate_flagged);
}

TEST_P(PipelineProperty, AddressesThatNeverAnsweredChangeNothing) {
  const auto log = random_log(GetParam() ^ 0x5150, 30, 20);
  const auto noisy = with_silent_addresses(log, GetParam());
  ASSERT_GT(noisy.size(), log.size());
  const auto ds = SurveyDataset::from_log(log);
  const auto noisy_ds = SurveyDataset::from_log(noisy);
  EXPECT_EQ(noisy_ds.address_count(), ds.address_count());

  PipelineConfig unfiltered;
  unfiltered.filter_broadcast = false;
  unfiltered.filter_duplicates = false;
  for (const PipelineConfig& config : {PipelineConfig{}, unfiltered}) {
    const auto want = run_pipeline(ds, config);
    const auto got = run_pipeline(noisy_ds, config);
    EXPECT_EQ(counter_values(got.counters), counter_values(want.counters));
    EXPECT_EQ(got.broadcast_flagged, want.broadcast_flagged);
    EXPECT_EQ(got.duplicate_flagged, want.duplicate_flagged);
    ASSERT_EQ(got.addresses.size(), want.addresses.size());
    for (std::size_t i = 0; i < want.addresses.size(); ++i) {
      const AddressReport& a = got.addresses[i];
      const AddressReport& b = want.addresses[i];
      EXPECT_EQ(a.address, b.address);
      EXPECT_EQ(a.rtts_s, b.rtts_s);
      EXPECT_EQ(a.survey_detected, b.survey_detected);
      EXPECT_EQ(a.delayed, b.delayed);
      EXPECT_EQ(a.requests, b.requests);
      EXPECT_EQ(a.timeouts, b.timeouts);
      EXPECT_EQ(a.max_responses_single_request, b.max_responses_single_request);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace turtle::analysis
