// Tests for sim::ShardRunner, centered on the determinism contract:
// the same workload run with --jobs 1 and --jobs 8 must produce
// byte-identical merged record logs and bit-identical merged statistics,
// because shard PRNG streams and the merge order depend only on the shard
// index, never on thread scheduling.
#include "sim/shard_runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hosts/asdb.h"
#include "hosts/population.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe/records.h"
#include "probe/survey.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/prng.h"
#include "util/stats.h"

namespace turtle::sim {
namespace {

TEST(ShardRunner, ResultsComeBackInShardOrder) {
  ShardRunner runner{ShardOptions{.jobs = 4, .seed = 9}};
  const auto results = runner.run(
      16, [](ShardContext& ctx) { return ctx.shard_index; });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(ShardRunner, ZeroShardsReturnsEmpty) {
  ShardRunner runner{ShardOptions{.jobs = 2, .seed = 1}};
  const auto results = runner.run(0, [](ShardContext&) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ShardRunner, JobsZeroResolvesToHardwareConcurrency) {
  ShardRunner runner{ShardOptions{.jobs = 0, .seed = 1}};
  EXPECT_GE(runner.jobs(), 1);
}

TEST(ShardRunner, ShardStreamsMatchSerialForksAtAnyConcurrency) {
  const std::uint64_t seed = 0xABCDEF;
  const auto draw = [](ShardContext& ctx) { return ctx.rng.next_u64(); };

  ShardRunner serial{ShardOptions{.jobs = 1, .seed = seed}};
  ShardRunner threaded{ShardOptions{.jobs = 3, .seed = seed}};
  const auto a = serial.run(8, draw);
  const auto b = threaded.run(8, draw);
  EXPECT_EQ(a, b);

  // And both equal the documented derivation: Prng{seed}.fork(i).
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto forked = util::Prng{seed}.fork(i);
    EXPECT_EQ(a[i], forked.next_u64()) << "shard " << i;
  }
}

TEST(ShardRunner, ContextReportsShardCount) {
  ShardRunner runner{ShardOptions{.jobs = 2, .seed = 1}};
  const auto results = runner.run(5, [](ShardContext& ctx) {
    return ctx.num_shards;
  });
  for (const auto n : results) EXPECT_EQ(n, 5u);
}

TEST(ShardRunner, RethrowsLowestIndexedShardException) {
  ShardRunner runner{ShardOptions{.jobs = 2, .seed = 1}};
  try {
    runner.run(6, [](ShardContext& ctx) -> int {
      if (ctx.shard_index == 2) throw std::runtime_error{"shard two"};
      if (ctx.shard_index == 4) throw std::runtime_error{"shard four"};
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard two");
  }
}

// The full determinism contract on a real workload: every shard runs an
// independent survey world seeded from its forked stream; the merged
// record log must be byte-identical and the merged RunningStats
// bit-identical whether shards ran on one thread or eight.
struct SurveyShardResult {
  std::string log_bytes;
  util::RunningStats rtt_stats;
};

SurveyShardResult run_survey_shard(ShardContext& ctx) {
  Simulator sim;
  Network net{sim, {}, util::Prng{ctx.rng.next_u64()}};
  hosts::HostContext host_ctx{sim, net};
  hosts::PopulationConfig config;
  config.num_blocks = 3;
  const auto catalog = hosts::AsCatalog::standard();
  hosts::Population population{host_ctx, catalog, config,
                               util::Prng{ctx.rng.next_u64()}};
  net.set_host_resolver(&population);

  probe::SurveyConfig survey_config;
  survey_config.rounds = 3;
  probe::SurveyProber prober{sim, net, survey_config, population.blocks(),
                             util::Prng{ctx.rng.next_u64()}};
  prober.start();
  sim.run();

  SurveyShardResult result;
  std::ostringstream os;
  prober.log().save(os);
  result.log_bytes = os.str();
  for (const auto& record : prober.log().records()) {
    result.rtt_stats.push(record.rtt.as_seconds());
  }
  return result;
}

TEST(ShardRunner, SurveyWorkloadIsByteIdenticalAcrossJobCounts) {
  const std::uint64_t seed = 42;
  const std::size_t shards = 6;

  ShardRunner serial{ShardOptions{.jobs = 1, .seed = seed}};
  ShardRunner threaded{ShardOptions{.jobs = 8, .seed = seed}};
  const auto a = serial.run(shards, run_survey_shard);
  const auto b = threaded.run(shards, run_survey_shard);
  ASSERT_EQ(a.size(), b.size());

  util::RunningStats merged_a;
  util::RunningStats merged_b;
  for (std::size_t i = 0; i < shards; ++i) {
    EXPECT_FALSE(a[i].log_bytes.empty()) << "shard " << i << " recorded nothing";
    // Byte-identical serialized record logs, shard by shard.
    EXPECT_EQ(a[i].log_bytes, b[i].log_bytes) << "shard " << i;
    merged_a.merge(a[i].rtt_stats);
    merged_b.merge(b[i].rtt_stats);
  }

  // Bit-identical merged statistics: merge order is shard order on both
  // sides, so even floating-point results match exactly.
  EXPECT_EQ(merged_a.count(), merged_b.count());
  EXPECT_EQ(merged_a.mean(), merged_b.mean());
  EXPECT_EQ(merged_a.variance(), merged_b.variance());
  EXPECT_EQ(merged_a.min(), merged_b.min());
  EXPECT_EQ(merged_a.max(), merged_b.max());
  EXPECT_GT(merged_a.count(), 0u);
}

// A shard workload that routes its survey metrics and trace through the
// per-shard sinks the runner hands out via ShardContext.
int run_instrumented_shard(ShardContext& ctx) {
  Simulator sim{ctx.registry, ctx.trace};
  Network::Config net_config;
  net_config.registry = ctx.registry;
  Network net{sim, net_config, util::Prng{ctx.rng.next_u64()}};
  hosts::HostContext host_ctx{sim, net};
  hosts::PopulationConfig config;
  config.num_blocks = 3;
  const auto catalog = hosts::AsCatalog::standard();
  hosts::Population population{host_ctx, catalog, config,
                               util::Prng{ctx.rng.next_u64()}};
  net.set_host_resolver(&population);

  probe::SurveyConfig survey_config;
  survey_config.rounds = 3;
  survey_config.registry = ctx.registry;
  survey_config.trace = ctx.trace;
  probe::SurveyProber prober{sim, net, survey_config, population.blocks(),
                             util::Prng{ctx.rng.next_u64()}};
  prober.start();
  sim.run();
  return 0;
}

TEST(ShardRunner, MergedMetricsAreByteIdenticalAcrossJobCounts) {
  const std::uint64_t seed = 42;
  const std::size_t shards = 6;

  obs::Registry metrics_serial;
  obs::Registry metrics_threaded;
  obs::TraceSink trace_serial;
  obs::TraceSink trace_threaded;
  ShardRunner serial{ShardOptions{
      .jobs = 1, .seed = seed, .metrics = &metrics_serial, .trace = &trace_serial}};
  ShardRunner threaded{ShardOptions{
      .jobs = 8, .seed = seed, .metrics = &metrics_threaded, .trace = &trace_threaded}};
  serial.run(shards, run_instrumented_shard);
  threaded.run(shards, run_instrumented_shard);

  // The deterministic dump (wall.* excluded) must be byte-identical: the
  // runner merges per-shard registries in shard order, and every merge is
  // commutative integer arithmetic.
  EXPECT_GT(metrics_serial.counters().size(), 0u);
  EXPECT_GT(metrics_serial.counter("survey.probes_sent").value(), 0u);
  EXPECT_EQ(metrics_serial.to_json(/*include_wall_clock=*/false),
            metrics_threaded.to_json(/*include_wall_clock=*/false));

  // Wall-clock pool stats exist (threaded run) but never enter the dump.
  EXPECT_GT(metrics_threaded.counter("wall.pool.tasks_run").value(), 0u);
  EXPECT_EQ(metrics_serial.to_json(false).find("wall."), std::string::npos);

  // Traces merge in shard order too: identical event streams, with tid
  // tracking the shard index on both sides. (Both streams are empty when
  // the tree is built with -DTURTLE_TRACING=OFF.)
  ASSERT_EQ(trace_serial.size(), trace_threaded.size());
  if (TURTLE_TRACE_ENABLED) {
    EXPECT_GT(trace_serial.size(), 0u);
  }
  for (std::size_t i = 0; i < trace_serial.size(); ++i) {
    EXPECT_EQ(trace_serial.events()[i].tid, trace_threaded.events()[i].tid);
    EXPECT_EQ(trace_serial.events()[i].ts_us, trace_threaded.events()[i].ts_us);
    EXPECT_STREQ(trace_serial.events()[i].name, trace_threaded.events()[i].name);
  }
}

}  // namespace
}  // namespace turtle::sim
