// Property sweeps over the survey prober and Zmap scanner: structural
// invariants of the record stream across seeds and world shapes.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "hosts/asdb.h"
#include "hosts/population.h"
#include "probe/survey.h"
#include "probe/zmap.h"
#include "test_world.h"

namespace turtle::probe {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int blocks;
  int rounds;
};

class SurveyProperty : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SurveyProperty, RecordStreamInvariants) {
  const auto param = GetParam();
  test::MiniWorld w;
  const hosts::AsCatalog catalog = hosts::AsCatalog::standard();
  hosts::PopulationConfig population_config;
  population_config.num_blocks = param.blocks;
  hosts::Population population{w.ctx, catalog, population_config, util::Prng{param.seed}};
  w.net.set_host_resolver(&population);

  SurveyConfig config;
  config.rounds = param.rounds;
  SurveyProber prober{w.sim, w.net, config, population.blocks(), util::Prng{param.seed ^ 1}};
  prober.start();
  w.sim.run();

  // Exactly 256 probes per block per round.
  EXPECT_EQ(prober.probes_sent(),
            static_cast<std::uint64_t>(param.blocks) * 256 * param.rounds);

  // Every probe resolves to exactly one of matched/timeout/error.
  const auto& log = prober.log();
  EXPECT_EQ(log.count_of(RecordType::kMatched) + log.count_of(RecordType::kTimeout) +
                log.count_of(RecordType::kError),
            prober.probes_sent());

  // Per-address: at most `rounds` requests; request times strictly
  // increasing in round order; matched RTTs in (0, timeout].
  std::map<std::uint32_t, std::vector<SurveyRecord>> per_addr;
  for (const auto& rec : log.records()) {
    if (rec.type == RecordType::kUnmatched) {
      EXPECT_GE(rec.count, 1u);
      EXPECT_EQ(rec.probe_time, rec.probe_time.truncate_to_seconds());
      continue;
    }
    per_addr[rec.address.value()].push_back(rec);
  }
  for (const auto& [addr, recs] : per_addr) {
    EXPECT_LE(recs.size(), static_cast<std::size_t>(param.rounds));
    std::set<std::uint32_t> rounds_seen;
    for (const SurveyRecord& rec : recs) {
      EXPECT_TRUE(rounds_seen.insert(rec.round).second)
          << "duplicate round for " << rec.address.to_string();
      if (rec.type == RecordType::kMatched) {
        EXPECT_GT(rec.rtt, SimTime{});
        EXPECT_LE(rec.rtt, config.match_timeout);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SurveyProperty,
                         ::testing::Values(SweepCase{1, 20, 4}, SweepCase{2, 40, 6},
                                           SweepCase{3, 10, 12}, SweepCase{4, 60, 3}));

class ZmapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZmapProperty, ScanInvariants) {
  test::MiniWorld w;
  const hosts::AsCatalog catalog = hosts::AsCatalog::standard();
  hosts::PopulationConfig population_config;
  population_config.num_blocks = 40;
  hosts::Population population{w.ctx, catalog, population_config, util::Prng{GetParam()}};
  w.net.set_host_resolver(&population);

  ZmapConfig config;
  config.scan_duration = SimTime::minutes(20);
  config.permutation_seed = GetParam();
  ZmapScanner scanner{w.sim, w.net, config};
  scanner.start(population.blocks());
  w.sim.run();

  EXPECT_EQ(scanner.probes_sent(), 40u * 256);

  // Every response's RTT is positive; every responder that is not a
  // broadcast case matches its probed destination; responders are real
  // population hosts.
  std::set<std::uint32_t> responders;
  for (const auto& r : scanner.responses()) {
    EXPECT_GT(r.rtt, SimTime{});
    responders.insert(r.responder.value());
    EXPECT_NE(population.host_at(r.responder), nullptr)
        << r.responder.to_string() << " responded but is not a live host";
    if (!r.address_mismatch()) {
      EXPECT_EQ(r.responder, r.probed_dst);
    } else {
      EXPECT_TRUE(population.is_broadcast_address(r.probed_dst));
    }
  }
  // Unique responders never exceed the live population.
  EXPECT_LE(responders.size(), population.stats().hosts);
  // And the response rate is in a sane band (responsive fraction ~0.2,
  // respond_prob >= 0.94).
  EXPECT_GT(static_cast<double>(responders.size()) / population.stats().hosts, 0.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZmapProperty, ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace turtle::probe
