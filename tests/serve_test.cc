// turtle::serve — snapshot tiering and recommendation parity, server
// accounting/shedding/caching/hot-swap/crash-recovery, load-generator
// determinism across shard counts, and the server's one-thread contract.
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/percentiles.h"
#include "core/recommendations.h"
#include "hosts/asdb.h"
#include "hosts/geodb.h"
#include "serve/load_generator.h"
#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"
#include "sim/shard_runner.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"

namespace turtle {
namespace {

using serve::LookupResult;
using serve::LookupScope;
using serve::OracleServer;
using serve::OracleSnapshot;

constexpr net::Prefix24 kBlockA = net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 0, 0));
constexpr net::Prefix24 kBlockB = net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 1, 0));
constexpr net::Prefix24 kBlockDark =
    net::Prefix24::containing(net::Ipv4Address::from_octets(203, 0, 113, 0));

/// A synthetic survey log: `addrs` hosts per block, `samples` matched
/// responses each, RTTs cycling 10..100 ms (scaled by `rtt_scale`).
/// Records are appended in probe-time order, as the prober would.
probe::RecordLog make_log(const std::vector<net::Prefix24>& blocks, int addrs, int samples,
                          double rtt_scale = 1.0) {
  probe::RecordLog log;
  for (int round = 0; round < samples; ++round) {
    int slot = 0;
    for (const net::Prefix24& block : blocks) {
      for (int a = 1; a <= addrs; ++a, ++slot) {
        probe::SurveyRecord record;
        record.type = probe::RecordType::kMatched;
        record.address = block.address(static_cast<std::uint8_t>(a));
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        record.rtt = SimTime::from_seconds(rtt_scale * 0.01 * (1 + (round + a) % 10));
        record.round = static_cast<std::uint32_t>(round);
        log.append(record);
      }
    }
  }
  return log;
}

serve::SnapshotConfig small_config() {
  serve::SnapshotConfig config;
  config.min_samples_per_address = 5;
  return config;
}

TEST(OracleSnapshot, BlockScopeWhenSamplesSuffice) {
  const auto log = make_log({kBlockA}, 3, 12);  // 36 block samples >= 25
  const auto snapshot = OracleSnapshot::build(log, small_config());
  EXPECT_EQ(snapshot.block_count(), 1u);
  EXPECT_EQ(snapshot.total_samples(), 36u);

  const LookupResult result = snapshot.lookup(kBlockA.address(9), 95, 95);
  EXPECT_EQ(result.scope, LookupScope::kBlock);
  EXPECT_EQ(result.samples, 36u);
  EXPECT_EQ(result.version, 1u);
  EXPECT_GT(result.confidence, 0.5);
  EXPECT_GT(result.timeout, SimTime{});
  // The block's 95th-percentile RTT is within the generated 10..100 ms
  // range.
  EXPECT_LE(result.timeout, SimTime::millis(100));
  EXPECT_GE(result.timeout, SimTime::millis(10));
}

TEST(OracleSnapshot, GlobalFallbackMatchesRecommendTimeoutEverywhere) {
  const auto log = make_log({kBlockA, kBlockB}, 4, 12);
  auto config = small_config();
  config.min_block_samples = 1'000'000;  // force every lookup to global
  config.min_as_samples = 1'000'000;
  const auto snapshot = OracleSnapshot::build(log, config);
  ASSERT_TRUE(snapshot.has_data());

  // Acceptance criterion: for every Table 2 cell, a global-scope lookup
  // equals core::recommend_timeout on the snapshot's own matrix.
  for (const double r : util::kPaperPercentiles) {
    for (const double c : util::kPaperPercentiles) {
      const LookupResult result = snapshot.lookup(kBlockA.address(1), r, c);
      EXPECT_EQ(result.scope, LookupScope::kGlobal);
      EXPECT_EQ(result.timeout, core::recommend_timeout(snapshot.matrix(), r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
  // Off-grid coverages clamp to the nearest percentile, like the offline
  // recommender.
  EXPECT_EQ(snapshot.lookup(kBlockA.address(1), 97, 97).timeout,
            core::recommend_timeout(snapshot.matrix(), 97, 97));

  // And the matrix itself is the offline Table 2 recipe: recompute it
  // independently from the same log.
  auto dataset = analysis::SurveyDataset::from_log(log);
  analysis::PipelineConfig pipeline_config;
  const auto analyzed = analysis::run_pipeline(dataset, pipeline_config);
  const auto per_address = analysis::PerAddressPercentiles::compute(
      analyzed.addresses, config.percentiles, config.min_samples_per_address);
  const auto expected = analysis::TimeoutMatrix::compute(per_address, config.percentiles);
  ASSERT_EQ(snapshot.matrix().cells.size(), expected.cells.size());
  for (std::size_t r = 0; r < expected.cells.size(); ++r) {
    for (std::size_t c = 0; c < expected.cells[r].size(); ++c) {
      EXPECT_DOUBLE_EQ(snapshot.matrix().cell(r, c), expected.cell(r, c));
    }
  }
}

TEST(OracleSnapshot, AsTierBridgesSparseBlocks) {
  // Block A has plenty of samples; block B (same AS) too few for block
  // scope but the AS pool qualifies.
  probe::RecordLog log = make_log({kBlockA}, 4, 10);  // 40 samples
  const probe::RecordLog sparse_log = make_log({kBlockB}, 1, 8);
  for (const auto& record : sparse_log.records()) log.append(record);

  hosts::AsTraits traits;
  traits.asn = 65001;
  traits.owner = "Test AS";
  const hosts::AsCatalog catalog{{traits}};
  hosts::GeoDatabase geo{&catalog};
  geo.add_block(kBlockA, 0);
  geo.add_block(kBlockB, 0);

  auto config = small_config();
  config.min_block_samples = 25;
  config.min_as_samples = 40;
  const auto snapshot = OracleSnapshot::build(log, config, &geo);
  EXPECT_EQ(snapshot.as_count(), 1u);

  EXPECT_EQ(snapshot.lookup(kBlockA.address(1), 95, 95).scope, LookupScope::kBlock);
  const LookupResult sparse = snapshot.lookup(kBlockB.address(1), 95, 95);
  EXPECT_EQ(sparse.scope, LookupScope::kAs);
  EXPECT_EQ(sparse.samples, 48u);  // the whole AS pool
  // A dark block in no known AS falls through to global.
  EXPECT_EQ(snapshot.lookup(kBlockDark.address(1), 95, 95).scope, LookupScope::kGlobal);
}

TEST(OracleSnapshot, EmptyLogServesZeroConfidenceGlobal) {
  const auto snapshot = OracleSnapshot::build(probe::RecordLog{}, small_config());
  EXPECT_FALSE(snapshot.has_data());
  const LookupResult result = snapshot.lookup(kBlockA.address(1), 95, 95);
  EXPECT_EQ(result.scope, LookupScope::kGlobal);
  EXPECT_EQ(result.timeout, SimTime{});
  EXPECT_EQ(result.confidence, 0.0);
}

std::shared_ptr<const OracleSnapshot> test_snapshot(std::uint64_t version = 1) {
  auto config = small_config();
  config.version = version;
  return std::make_shared<const OracleSnapshot>(
      OracleSnapshot::build(make_log({kBlockA, kBlockB}, 3, 10), config));
}

std::uint64_t counter(obs::Registry& registry, const char* name) {
  return registry.counter(name).value();
}

TEST(OracleServer, AccountingClosesOnCleanRun) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig config;
  config.registry = &registry;
  OracleServer server{sim, config, test_snapshot()};

  int responses = 0;
  for (int i = 0; i < 50; ++i) {
    serve::Request request{kBlockA.address(static_cast<std::uint8_t>(1 + i % 3)), 95, 95};
    server.submit(request, [&responses](const LookupResult& result, SimTime latency) {
      ++responses;
      EXPECT_EQ(result.scope, LookupScope::kBlock);
      EXPECT_GT(latency, SimTime{});
    });
  }
  sim.run();
  server.finalize();

  EXPECT_EQ(responses, 50);
  EXPECT_EQ(counter(registry, "serve.offered"), 50u);
  EXPECT_EQ(counter(registry, "serve.served"), 50u);
  EXPECT_EQ(counter(registry, "serve.shed"), 0u);
  EXPECT_EQ(counter(registry, "serve.queued"), 0u);
  // Cache + scope accounting ties to lookups, and the latency histogram
  // to served.
  EXPECT_EQ(counter(registry, "serve.lookups"), 50u);
  EXPECT_EQ(counter(registry, "serve.cache_hits") + counter(registry, "serve.cache_misses"),
            50u);
  EXPECT_EQ(counter(registry, "serve.scope_block"), 50u);
  EXPECT_EQ(registry.histogram("serve.latency").count(), 50u);
  EXPECT_GT(counter(registry, "serve.batches"), 0u);
}

TEST(OracleServer, OverflowShedsAreCountedNeverSilent) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig config;
  config.registry = &registry;
  config.queue_capacity = 4;
  config.batch_size = 1;
  OracleServer server{sim, config, test_snapshot()};

  for (int i = 0; i < 20; ++i) {
    server.submit(serve::Request{kBlockA.address(1), 95, 95}, nullptr);
  }
  sim.run();
  server.finalize();

  // One dispatched immediately, four queued, fifteen shed at the gate.
  EXPECT_EQ(counter(registry, "serve.offered"), 20u);
  EXPECT_EQ(counter(registry, "serve.served"), 5u);
  EXPECT_EQ(counter(registry, "serve.shed"), 15u);
  EXPECT_EQ(counter(registry, "serve.shed_overload"), 15u);
  EXPECT_EQ(counter(registry, "serve.served") + counter(registry, "serve.shed") +
                counter(registry, "serve.queued"),
            counter(registry, "serve.offered"));
  EXPECT_EQ(registry.gauge("serve.queue_high_water").value(), 4);
}

TEST(OracleServer, LruCacheCountsHitsAndEvicts) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig config;
  config.registry = &registry;
  config.cache_capacity = 1;  // one block resident at a time
  config.batch_size = 1;
  OracleServer server{sim, config, test_snapshot()};

  // Alternating blocks with a one-entry cache: every dispatch misses.
  for (int i = 0; i < 8; ++i) {
    const net::Prefix24 block = (i % 2 == 0) ? kBlockA : kBlockB;
    server.submit(serve::Request{block.address(1), 95, 95}, nullptr);
  }
  sim.run();
  EXPECT_EQ(counter(registry, "serve.cache_misses"), 8u);
  EXPECT_EQ(counter(registry, "serve.cache_hits"), 0u);

  // Same block back-to-back: first miss, rest hit.
  for (int i = 0; i < 4; ++i) {
    server.submit(serve::Request{kBlockA.address(2), 95, 95}, nullptr);
  }
  sim.run();
  EXPECT_EQ(counter(registry, "serve.cache_misses"), 9u);
  EXPECT_EQ(counter(registry, "serve.cache_hits"), 3u);
}

TEST(OracleServer, HotSwapServesOldSnapshotToInFlight) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig config;
  config.registry = &registry;
  OracleServer server{sim, config, test_snapshot(1)};

  std::vector<std::uint64_t> versions;
  const auto record_version = [&versions](const LookupResult& result, SimTime) {
    versions.push_back(result.version);
  };

  // First request dispatches immediately against v1; the swap lands while
  // it is in flight and must not change its answer.
  server.submit(serve::Request{kBlockA.address(1), 95, 95}, record_version);
  server.swap_snapshot(test_snapshot(2));
  sim.schedule_after(SimTime::seconds(1), [&server, &record_version] {
    server.submit(serve::Request{kBlockA.address(1), 95, 95}, OracleServer::Callback{record_version});
  });
  sim.run();

  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0], 1u);
  EXPECT_EQ(versions[1], 2u);
  EXPECT_EQ(counter(registry, "serve.snapshot_swaps"), 1u);
  EXPECT_EQ(registry.gauge("serve.snapshot_version").value(), 2);
}

TEST(OracleServer, CrashShedsRebuildsAndRecovers) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig config;
  config.registry = &registry;
  config.batch_size = 2;
  OracleServer server{sim, config, test_snapshot(1)};

  // The rebuild path: serialize a log (the "checkpoint"), reload, rebuild.
  std::ostringstream frozen;
  make_log({kBlockA, kBlockB}, 3, 10).save(frozen);
  const std::string log_bytes = frozen.str();
  server.set_rebuild([&log_bytes] {
    std::istringstream in{log_bytes};
    auto config = small_config();
    config.version = 3;
    return std::make_shared<const OracleSnapshot>(
        OracleSnapshot::build(probe::RecordLog::load(in), config));
  });

  std::vector<std::uint64_t> versions;
  const auto record_version = [&versions](const LookupResult& result, SimTime) {
    versions.push_back(result.version);
  };

  // Six requests at t0: two dispatch, four queue. The crash lands before
  // the first batch completes, shedding all six.
  for (int i = 0; i < 6; ++i) {
    server.submit(serve::Request{kBlockA.address(1), 95, 95}, OracleServer::Callback{record_version});
  }
  sim.schedule_after(SimTime::micros(100), [&server] { server.crash(SimTime::seconds(2)); });
  // While down: shed at the gate.
  sim.schedule_after(SimTime::seconds(1), [&server, &record_version] {
    server.submit(serve::Request{kBlockA.address(1), 95, 95}, OracleServer::Callback{record_version});
  });
  // After restart: served from the rebuilt snapshot.
  sim.schedule_after(SimTime::seconds(3), [&server, &record_version] {
    server.submit(serve::Request{kBlockA.address(1), 95, 95}, OracleServer::Callback{record_version});
  });
  sim.run();
  server.finalize();

  ASSERT_EQ(versions.size(), 1u);  // only the post-recovery request answered
  EXPECT_EQ(versions[0], 3u);
  EXPECT_EQ(counter(registry, "serve.offered"), 8u);
  EXPECT_EQ(counter(registry, "serve.served"), 1u);
  EXPECT_EQ(counter(registry, "serve.shed"), 7u);
  EXPECT_EQ(counter(registry, "serve.shed_down"), 7u);
  EXPECT_EQ(counter(registry, "serve.queued"), 0u);
  EXPECT_EQ(counter(registry, "fault.serve.crashes"), 1u);
  EXPECT_EQ(counter(registry, "serve.snapshot_rebuilds"), 1u);
  EXPECT_FALSE(server.down());
}

TEST(LoadGenerator, OpenLoopCompletesAndRecordsLatencies) {
  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig server_config;
  server_config.registry = &registry;
  OracleServer server{sim, server_config, test_snapshot()};

  serve::LoadGenConfig gen_config;
  gen_config.rate_per_s = 500;
  gen_config.duration = SimTime::seconds(5);
  gen_config.blocks = {kBlockA, kBlockB};
  gen_config.registry = &registry;
  serve::LoadGenerator generator{sim, server, gen_config, util::Prng{42}};
  generator.start();
  sim.run();
  server.finalize();

  EXPECT_GT(generator.requests_sent(), 2000u);
  EXPECT_EQ(generator.responses_seen(), generator.requests_sent());
  EXPECT_EQ(generator.latencies_us().size(), generator.responses_seen());
  EXPECT_EQ(counter(registry, "serve.offered"), generator.requests_sent());
}

/// One serving shard built purely from a synthetic log (no survey world):
/// snapshot -> server -> load generator, returning nothing; the metrics
/// registry is the output.
std::string run_sharded_metrics(int jobs) {
  obs::Registry merged;
  sim::ShardOptions options;
  options.jobs = jobs;
  options.seed = 99;
  options.metrics = &merged;
  sim::ShardRunner runner{options};
  runner.run(4, [](sim::ShardContext& ctx) {
    sim::Simulator sim{ctx.registry};
    serve::ServerConfig config;
    config.registry = ctx.registry;
    config.queue_capacity = 16;  // small enough that bursts shed
    OracleServer server{sim, config,
                        std::make_shared<const OracleSnapshot>(OracleSnapshot::build(
                            make_log({kBlockA, kBlockB}, 3, 10,
                                     1.0 + static_cast<double>(ctx.shard_index)),
                            small_config()))};
    serve::LoadGenConfig gen_config;
    gen_config.rate_per_s = 2000;
    gen_config.duration = SimTime::seconds(2);
    gen_config.blocks = {kBlockA, kBlockB};
    gen_config.registry = ctx.registry;
    serve::LoadGenerator generator{sim, server, gen_config, ctx.rng.fork(1)};
    generator.start();
    sim.run();
    server.finalize();
    return 0;
  });
  return merged.to_json();
}

TEST(LoadGenerator, ShardedMetricsAreByteIdenticalAcrossJobs) {
  const std::string serial = run_sharded_metrics(1);
  EXPECT_EQ(serial, run_sharded_metrics(4));
  // Sanity: the merged dump actually contains serving traffic.
  EXPECT_NE(serial.find("serve.offered"), std::string::npos);
}

TEST(Transport, InSimBackendIsByteIdenticalAcrossJobs) {
  const std::string serial = run_sharded_metrics(1);
  EXPECT_EQ(serial, run_sharded_metrics(8));
  EXPECT_NE(serial.find("serve.offered"), std::string::npos);
}

#if TURTLE_DCHECK_ENABLED
TEST(OracleServerDeathTest, SubmitOffItsThreadTripsDcheck) {
  const auto submit_off_thread = [] {
    sim::Simulator sim;
    OracleServer server{sim, serve::ServerConfig{}, test_snapshot()};
    std::thread other{[&server] {
      server.submit(serve::Request{kBlockA.address(1), 95, 95}, nullptr);
    }};
    other.join();
  };
  EXPECT_DEATH(submit_off_thread(), "OracleServer used off its thread");
}
#endif

}  // namespace
}  // namespace turtle
