// snapshot-v1 on-disk format: write/map round trip, the tiers of the
// in-memory and the streaming build against P2Quantiles folded in the
// test, corruption rejection (counted, graceful),
// lookups bitwise equal to restored estimators and to a two-search
// reference lookup in every tier fallback,
// streaming builder byte-identity with the in-memory serializer across
// --jobs (on a log grouping must re-sort too, and on one with addresses
// that never answered), the build ledger, spill cleanup after a failed
// build, and snapshot-file crash recovery.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataset.h"
#include "core/p2_quantile.h"
#include "core/recommendations.h"
#include "crafted_snapshot.h"
#include "hosts/asdb.h"
#include "hosts/geodb.h"
#include "probe/records.h"
#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"
#include "serve/snapshot_builder.h"
#include "serve/snapshot_format.h"
#include "sim/simulator.h"
#include "synthetic_snapshot.h"
#include "util/crc64.h"

namespace turtle {
namespace {

using serve::lookup_scope_name;
using serve::LookupResult;
using serve::LookupScope;
using serve::OracleServer;
using serve::OracleSnapshot;

constexpr net::Prefix24 kBlockA =
    net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 0, 0));
constexpr net::Prefix24 kBlockB =
    net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 1, 0));
constexpr net::Prefix24 kBlockC =
    net::Prefix24::containing(net::Ipv4Address::from_octets(172, 16, 5, 0));
constexpr net::Prefix24 kBlockDark =
    net::Prefix24::containing(net::Ipv4Address::from_octets(203, 0, 113, 0));

/// Same synthetic survey shape as serve_test: `addrs` hosts per block,
/// `samples` matched responses each, RTTs cycling 10..100 ms.
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

/// Two-AS geo database covering blocks A+B (AS 65001) and C (AS 65002).
struct TestGeo {
  static hosts::AsCatalog make_catalog() {
    hosts::AsTraits a;
    a.asn = 65001;
    a.owner = "AS One";
    hosts::AsTraits b;
    b.asn = 65002;
    b.owner = "AS Two";
    return hosts::AsCatalog{{a, b}};
  }
  TestGeo() : catalog{make_catalog()} {
    geo = std::make_unique<hosts::GeoDatabase>(&catalog);
    geo->add_block(kBlockA, 0);
    geo->add_block(kBlockB, 0);
    geo->add_block(kBlockC, 1);
  }
  hosts::AsCatalog catalog;
  std::unique_ptr<hosts::GeoDatabase> geo;
};

std::string temp_path(const char* name) {
  return testing::TempDir() + "snapshot_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(os.is_open()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc64, MatchesPublishedVectorAndStreamsChunkIndependent) {
  // CRC-64/XZ check vector.
  EXPECT_EQ(util::crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
  util::Crc64 streaming;
  streaming.update("1234", 4);
  streaming.update("", 0);
  streaming.update("56789", 5);
  EXPECT_EQ(streaming.value(), 0x995DC9BBDF1939FAULL);
  // Detects a single flipped bit.
  EXPECT_NE(util::crc64("123456788", 9), 0x995DC9BBDF1939FAULL);
}

TEST(RecordStreaming, WriterReaderRoundTripMatchesLoad) {
  // 600 records: the writer buffers 256 at a time, so this writes two
  // full blocks and finish() writes part of a third.
  const probe::RecordLog log = make_log({kBlockA, kBlockB}, 30, 10);
  ASSERT_EQ(log.size(), 600u);
  std::stringstream stream;
  probe::RecordWriter writer{stream};
  for (const probe::SurveyRecord& record : log.records()) writer.append(record);
  writer.finish();
  EXPECT_EQ(writer.written(), log.size());

  // The streamed bytes are exactly what save() would have produced.
  std::ostringstream saved;
  log.save(saved);
  EXPECT_EQ(stream.str(), saved.str());

  // And the streaming reader agrees with the batch loader.
  probe::RecordLog::LoadStats stats;
  stream.seekg(0);
  const probe::RecordLog reloaded = probe::RecordLog::load(stream, &stats);
  ASSERT_EQ(reloaded.size(), log.size());
  EXPECT_EQ(stats.records_loaded, log.size());
  EXPECT_EQ(stats.records_dropped(), 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(reloaded.at(i).address, log.at(i).address);
    EXPECT_EQ(reloaded.at(i).rtt, log.at(i).rtt);
  }
}

// The view points into the snapshot's own image: a copy would share it.
static_assert(!std::is_copy_constructible_v<OracleSnapshot>);
static_assert(!std::is_copy_assignable_v<OracleSnapshot>);
static_assert(std::is_nothrow_move_constructible_v<OracleSnapshot>);
static_assert(std::is_nothrow_move_assignable_v<OracleSnapshot>);

TEST(SnapshotFile, InMemoryAndMappedAnswerIdentically) {
  // The write -> reload round trip: a snapshot loaded from the file a
  // built one wrote answers every lookup exactly like it.
  TestGeo geo;
  probe::RecordLog log = make_log({kBlockA, kBlockC}, 4, 10);
  const probe::RecordLog sparse = make_log({kBlockB}, 1, 8);
  for (const auto& record : sparse.records()) log.append(record);

  auto config = small_config();
  config.min_as_samples = 40;
  config.version = 7;
  const OracleSnapshot built = OracleSnapshot::build(log, config, geo.geo.get());
  const std::string path = temp_path("parity.snap");
  built.write(path);

  std::string error;
  const std::shared_ptr<const OracleSnapshot> loaded = OracleSnapshot::map(path, &error);
  ASSERT_NE(loaded, nullptr) << error;

  EXPECT_EQ(loaded->version(), built.version());
  EXPECT_EQ(loaded->block_count(), built.block_count());
  EXPECT_EQ(loaded->as_count(), built.as_count());
  EXPECT_EQ(loaded->total_samples(), built.total_samples());
  EXPECT_EQ(loaded->has_data(), built.has_data());

  // Satellite: identical LookupResult across an address sweep touching
  // every tier (block, AS bridge, dark-global) at every matrix cell.
  const std::vector<net::Ipv4Address> sweep = {
      kBlockA.address(1), kBlockA.address(4),    kBlockB.address(1),
      kBlockC.address(2), kBlockDark.address(9),
  };
  const std::vector<double> coverages = {1, 50, 80, 90, 95, 97, 98, 99};
  for (const net::Ipv4Address addr : sweep) {
    EXPECT_EQ(loaded->block_samples(addr), built.block_samples(addr));
    for (const double r : coverages) {
      for (const double c : coverages) {
        const LookupResult want = built.lookup(addr, r, c);
        const LookupResult got = loaded->lookup(addr, r, c);
        EXPECT_EQ(got.timeout, want.timeout)
            << addr.to_string() << " (" << r << ", " << c << ")";
        EXPECT_EQ(got.scope, want.scope);
        EXPECT_EQ(got.samples, want.samples);
        EXPECT_EQ(got.confidence, want.confidence);  // bitwise, not approximate
        EXPECT_EQ(got.version, want.version);
      }
    }
  }
  // Every matrix cell survives the round trip exactly.
  ASSERT_EQ(loaded->matrix().cells.size(), built.matrix().cells.size());
  for (std::size_t r = 0; r < built.matrix().cells.size(); ++r) {
    ASSERT_EQ(loaded->matrix().cells[r].size(), built.matrix().cells[r].size());
    for (std::size_t c = 0; c < built.matrix().cells[r].size(); ++c) {
      EXPECT_EQ(loaded->matrix().cell(r, c), built.matrix().cell(r, c));
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFile, TiersMatchP2QuantilesFoldedFromTheLog) {
  // An independent reference for the block and AS tiers: the same RTTs
  // folded into core::P2Quantile here, in log order. One address per
  // block keeps the snapshot's fold order equal to log order; the AS
  // tier folds its blocks in ascending network order (A before B).
  TestGeo geo;
  const probe::RecordLog log = make_log({kBlockA, kBlockB, kBlockC}, 1, 40);
  auto config = small_config();
  config.min_as_samples = 40;  // AS 65002 pools block C's 40 alone
  const OracleSnapshot built = OracleSnapshot::build(log, config, geo.geo.get());

  // The streaming build, each block's 40 records a shard of its own: AS
  // 65001's aggregate is replayed across two shards.
  const std::string log_path = temp_path("tiers.records");
  {
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    log.save(os);
  }
  serve::BuilderConfig builder;
  builder.snapshot = config;
  builder.geo = geo.geo.get();
  builder.shard_budget_bytes = 1280;  // 40 records of 32 bytes
  const std::string streamed_path = temp_path("tiers_streamed.snap");
  const serve::BuildLedger ledger = serve::build_snapshot_file(log_path, streamed_path, builder);
  ASSERT_EQ(ledger.shards, 3u);
  std::string error;
  const std::shared_ptr<const OracleSnapshot> streamed = OracleSnapshot::map(streamed_path, &error);
  ASSERT_NE(streamed, nullptr) << error;
  std::remove(log_path.c_str());
  std::remove(streamed_path.c_str());

  struct Reference {
    std::vector<core::P2Quantile> quantiles;
    std::uint64_t samples = 0;
  };
  const auto folded = [&](std::initializer_list<net::Prefix24> blocks) {
    Reference reference;
    for (const double p : config.percentiles) reference.quantiles.emplace_back(p / 100.0);
    for (const net::Prefix24 block : blocks) {
      for (const probe::SurveyRecord& record : log.records()) {
        if (net::Prefix24::containing(record.address) != block) continue;
        for (core::P2Quantile& quantile : reference.quantiles) quantile.add(record.rtt.as_seconds());
        ++reference.samples;
      }
    }
    return reference;
  };
  struct Row {
    net::Prefix24 block;
    Reference at_block;
    Reference at_as;
  };
  const std::vector<Row> rows = {
      {kBlockA, folded({kBlockA}), folded({kBlockA, kBlockB})},  // AS 65001
      {kBlockB, folded({kBlockB}), folded({kBlockA, kBlockB})},
      {kBlockC, folded({kBlockC}), folded({kBlockC})},  // AS 65002
  };
  for (const auto& [build, snapshot] :
       {std::pair{"in-memory", &built}, std::pair{"streamed", streamed.get()}}) {
    for (const Row& row : rows) {
      for (std::size_t i = 0; i < config.percentiles.size(); ++i) {
        const double p = config.percentiles[i];
        for (const auto& [scope, reference] : {std::pair{LookupScope::kBlock, &row.at_block},
                                               std::pair{LookupScope::kAs, &row.at_as}}) {
          const LookupResult got = snapshot->lookup(row.block.address(1), 95, p, scope);
          EXPECT_EQ(got.scope, scope) << build << " " << row.block.to_string() << " p" << p;
          EXPECT_EQ(got.samples, reference->samples) << build;
          EXPECT_EQ(got.timeout, SimTime::from_seconds(reference->quantiles[i].value()))
              << build << " " << row.block.to_string() << " " << lookup_scope_name(scope)
              << " p" << p;
        }
      }
    }
  }
}

/// A snapshot's image, reopened as a View over an 8-byte aligned copy.
struct ImageView {
  explicit ImageView(const OracleSnapshot& snapshot) {
    std::ostringstream os;
    snapshot.write(os);
    const std::string bytes = os.str();
    words.resize((bytes.size() + 7) / 8);
    std::memcpy(words.data(), bytes.data(), bytes.size());
    std::string error;
    const bool ok = serve::snapshot_format::View::open(
        reinterpret_cast<const unsigned char*>(words.data()), bytes.size(), view, &error);
    EXPECT_TRUE(ok) << error;
  }
  std::vector<std::uint64_t> words;
  serve::snapshot_format::View view;
};

/// lookup() as it was before it searched the block keys once: one search
/// for the block tier, a second for the AS tier, and each tier's value
/// from a restored estimator.
LookupResult two_search_lookup(const OracleSnapshot& snapshot,
                               const serve::snapshot_format::View& view, net::Ipv4Address addr,
                               double addr_coverage, double ping_coverage, LookupScope scope) {
  const serve::snapshot_format::Header& header = view.header();
  const std::span<const double> percentiles = view.percentiles();
  std::size_t p = 0;
  for (std::size_t i = 1; i < percentiles.size(); ++i) {
    if (std::abs(percentiles[i] - ping_coverage) < std::abs(percentiles[p] - ping_coverage)) p = i;
  }
  const auto find = [](std::span<const std::uint32_t> keys, std::uint32_t key,
                       std::size_t& index) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return false;
    index = static_cast<std::size_t>(it - keys.begin());
    return true;
  };
  const auto factor = [](std::uint64_t n) {
    return static_cast<double>(n) / (static_cast<double>(n) + 16.0);
  };
  const std::uint32_t network = net::Prefix24::containing(addr).network();
  std::size_t block = 0;
  if (scope == LookupScope::kBlock && find(view.block_keys(), network, block) &&
      view.block_samples(block) >= header.min_block_samples) {
    const std::uint64_t n = view.block_samples(block);
    return {SimTime::from_seconds(view.block_quantile(block, p).value()), LookupScope::kBlock, n,
            1.0 * factor(n), header.snapshot_version};
  }
  std::size_t as = 0;
  if (scope != LookupScope::kGlobal && find(view.block_keys(), network, block) &&
      view.block_asn()[block] != serve::snapshot_format::kNoAsn &&
      find(view.as_keys(), view.block_asn()[block], as) &&
      view.as_samples(as) >= header.min_as_samples) {
    const std::uint64_t n = view.as_samples(as);
    return {SimTime::from_seconds(view.as_quantile(as, p).value()), LookupScope::kAs, n,
            0.9 * factor(n), header.snapshot_version};
  }
  LookupResult global{SimTime{}, LookupScope::kGlobal, header.total_samples, 0.0,
                      header.snapshot_version};
  if (snapshot.has_data()) {
    global.timeout = core::recommend_timeout(snapshot.matrix(), addr_coverage, ping_coverage);
    global.confidence = 0.75 * factor(header.total_samples);
  }
  return global;
}

TEST(SnapshotFile, LookupValuesEqualRestoredEstimators) {
  // The synthetic survey at 12 rounds (every tier and fallback, see
  // synthetic_snapshot.h) and at one round with both minimums at 1, where
  // blocks hold 1-6 samples and block 18's AS holds one: aggregates of
  // 1-4 samples answer through the exact small-sample path.
  serve::SnapshotConfig small_pools;
  small_pools.min_block_samples = 1;
  small_pools.min_as_samples = 1;
  std::vector<OracleSnapshot> snapshots;
  snapshots.push_back(test::synthetic_snapshot());
  snapshots.push_back(test::synthetic_snapshot(1, small_pools));

  std::vector<net::Ipv4Address> addrs = {net::Ipv4Address::from_octets(10, 0, 200, 1),
                                         net::Ipv4Address::from_octets(203, 0, 113, 9)};
  for (int b = 0; b < test::kSyntheticBlocks; ++b) {
    addrs.push_back(test::synthetic_block(b).address(1));
  }
  const double coverages[] = {1, 50, 80, 90, 95, 98, 99, 0, 97.5, 100};

  for (const OracleSnapshot& snapshot : snapshots) {
    const ImageView image{snapshot};
    const serve::snapshot_format::View& view = image.view;
    const serve::snapshot_format::Header& header = view.header();
    const std::span<const double> percentiles = view.percentiles();
    std::vector<std::uint64_t> pool_sizes;

    // Every aggregate and percentile: the value read without a restore is
    // bitwise the restored estimator's, and so is what lookup answers.
    for (std::size_t i = 0; i < header.block_count; ++i) {
      pool_sizes.push_back(view.block_samples(i));
      const net::Ipv4Address addr = net::Prefix24::from_network(view.block_keys()[i]).address(1);
      for (std::size_t p = 0; p < percentiles.size(); ++p) {
        const double restored = view.block_quantile(i, p).value();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(view.block_value(i, p)),
                  std::bit_cast<std::uint64_t>(restored))
            << "block " << i << " p" << percentiles[p];
        if (view.block_samples(i) < header.min_block_samples) continue;
        const LookupResult got = snapshot.lookup(addr, 95, percentiles[p]);
        EXPECT_EQ(got.scope, LookupScope::kBlock);
        EXPECT_EQ(got.timeout, SimTime::from_seconds(restored)) << "block " << i;
      }
    }
    for (std::size_t i = 0; i < header.as_count; ++i) {
      pool_sizes.push_back(view.as_samples(i));
      const auto asn = std::find(view.block_asn().begin(), view.block_asn().end(),
                                 view.as_keys()[i]);
      ASSERT_NE(asn, view.block_asn().end());
      const net::Ipv4Address addr =
          net::Prefix24::from_network(view.block_keys()[asn - view.block_asn().begin()])
              .address(1);
      for (std::size_t p = 0; p < percentiles.size(); ++p) {
        const double restored = view.as_quantile(i, p).value();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(view.as_value(i, p)),
                  std::bit_cast<std::uint64_t>(restored))
            << "AS " << view.as_keys()[i] << " p" << percentiles[p];
        if (view.as_samples(i) < header.min_as_samples) continue;
        const LookupResult got = snapshot.lookup(addr, 95, percentiles[p], LookupScope::kAs);
        EXPECT_EQ(got.scope, LookupScope::kAs);
        EXPECT_EQ(got.timeout, SimTime::from_seconds(restored)) << "AS " << view.as_keys()[i];
      }
    }
    if (header.min_block_samples == 1) {
      for (const std::uint64_t n : {1u, 2u, 3u, 4u}) {
        EXPECT_NE(std::find(pool_sizes.begin(), pool_sizes.end(), n), pool_sizes.end())
            << "no aggregate of " << n << " samples";
      }
    }

    // Every tier fallback answers what the two-search reference answers.
    for (const net::Ipv4Address addr : addrs) {
      for (const LookupScope scope :
           {LookupScope::kBlock, LookupScope::kAs, LookupScope::kGlobal}) {
        for (const double coverage : coverages) {
          const LookupResult want = two_search_lookup(snapshot, view, addr, 95, coverage, scope);
          const LookupResult got = snapshot.lookup(addr, 95, coverage, scope);
          const std::string where = addr.to_string() + " " + lookup_scope_name(scope) + " p" +
                                    std::to_string(coverage);
          EXPECT_EQ(got.scope, want.scope) << where;
          EXPECT_EQ(got.timeout, want.timeout) << where;
          EXPECT_EQ(got.samples, want.samples) << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.confidence),
                    std::bit_cast<std::uint64_t>(want.confidence))
              << where;
          EXPECT_EQ(got.version, want.version) << where;
        }
      }
    }
  }

  // The fallbacks above all happen in the 12-round snapshot.
  const OracleSnapshot& full = snapshots.front();
  const auto scope_of = [&full](std::uint8_t c, LookupScope scope = LookupScope::kBlock) {
    return full.lookup(net::Ipv4Address::from_octets(10, 0, c, 1), 95, 95, scope).scope;
  };
  EXPECT_EQ(scope_of(3), LookupScope::kBlock);
  EXPECT_EQ(scope_of(0), LookupScope::kAs);       // block under its minimum
  EXPECT_EQ(scope_of(7), LookupScope::kGlobal);   // ... with no ASN
  EXPECT_EQ(scope_of(18), LookupScope::kGlobal);  // ... in an AS under its minimum
  EXPECT_EQ(scope_of(200), LookupScope::kGlobal);  // absent /24
  EXPECT_EQ(scope_of(3, LookupScope::kAs), LookupScope::kAs);
  EXPECT_EQ(scope_of(3, LookupScope::kGlobal), LookupScope::kGlobal);
  EXPECT_TRUE(full.has_data());
}

TEST(SnapshotFile, EmptySurveyRoundTrips) {
  const OracleSnapshot built = OracleSnapshot::build(probe::RecordLog{}, small_config());
  const std::string path = temp_path("empty.snap");
  built.write(path);
  std::string error;
  const auto loaded = OracleSnapshot::map(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_FALSE(loaded->has_data());
  EXPECT_EQ(loaded->block_count(), 0u);
  const LookupResult result = loaded->lookup(kBlockA.address(1), 95, 95);
  EXPECT_EQ(result.scope, LookupScope::kGlobal);
  EXPECT_EQ(result.timeout, SimTime{});
  EXPECT_EQ(result.confidence, 0.0);
  std::remove(path.c_str());
}

TEST(SnapshotFile, CorruptionIsRejectedGracefullyAndCounted) {
  const OracleSnapshot built =
      OracleSnapshot::build(make_log({kBlockA, kBlockB}, 3, 10), small_config());
  const std::string path = temp_path("corrupt.snap");
  built.write(path);
  const std::string good = read_file(path);
  ASSERT_GE(good.size(), serve::snapshot_format::kHeaderBytes);

  obs::Registry registry;
  std::uint64_t expected_rejections = 0;
  const auto expect_path_rejected = [&](const std::string& target, const char* what) {
    std::string error;
    EXPECT_EQ(OracleSnapshot::map(target, &error, &registry), nullptr) << what;
    EXPECT_FALSE(error.empty()) << what;
    ++expected_rejections;
    EXPECT_EQ(registry.counter("fault.snapshot.load_rejected").value(), expected_rejections)
        << what;
  };
  const auto expect_rejected = [&](const std::string& bytes, const char* what) {
    write_file(path, bytes);
    expect_path_rejected(path, what);
  };

  expect_rejected(good.substr(0, good.size() - 1), "truncated by one byte");
  expect_rejected(good.substr(0, serve::snapshot_format::kHeaderBytes), "body stripped");
  expect_rejected(good + std::string(8, '\0'), "trailing garbage");
  {
    std::string flipped = good;
    flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x10);
    expect_rejected(flipped, "bit flip in body");
  }
  {
    std::string flipped = good;
    flipped[48] = static_cast<char>(flipped[48] ^ 0x01);  // total_samples field
    expect_rejected(flipped, "bit flip in header");
  }
  expect_rejected(std::string{"not a snapshot"}, "wrong magic entirely");
  expect_rejected(std::string{}, "empty file");
  expect_rejected(test::crafted_wrapping_snapshot(), "counts whose layout wraps 64 bits");
  // A sparse 1 TiB file is refused from its header, before any buffer is
  // sized from the file.
  write_file(path, std::string{});
  std::filesystem::resize_file(path, std::uint64_t{1} << 40);
  expect_path_rejected(path, "a sparse 1 TiB file");
  const std::string directory = temp_path("corrupt.dir");
  std::filesystem::create_directory(directory);
  expect_path_rejected(directory, "a directory");
  std::filesystem::remove(directory);

  // A missing file is the same counted, graceful error.
  std::remove(path.c_str());
  std::string error;
  EXPECT_EQ(OracleSnapshot::map(path, &error, &registry), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(registry.counter("fault.snapshot.load_rejected").value(), expected_rejections + 1);

  // The pristine bytes still load (the harness above really was the
  // corruption, not the loader).
  write_file(path, good);
  EXPECT_NE(OracleSnapshot::map(path, &error, &registry), nullptr) << error;
  std::remove(path.c_str());
}

/// Six blocks, so that a tiny shard budget forces a genuinely sharded
/// build.
std::vector<net::Prefix24> six_blocks() {
  return {
      kBlockA,
      kBlockB,
      kBlockC,
      net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 2, 0)),
      net::Prefix24::containing(net::Ipv4Address::from_octets(172, 16, 6, 0)),
      net::Prefix24::containing(net::Ipv4Address::from_octets(192, 0, 2, 0)),
  };
}

TEST(SnapshotBuilder, StreamingBuildIsByteIdenticalToInMemoryAcrossJobs) {
  TestGeo geo;
  const std::vector<net::Prefix24> blocks = six_blocks();
  const probe::RecordLog log = make_log(blocks, 4, 12);
  const std::string log_path = temp_path("builder.records");
  {
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    log.save(os);
  }

  auto config = small_config();
  config.version = 9;
  const std::string in_memory_path = temp_path("in_memory.snap");
  OracleSnapshot::build(log, config, geo.geo.get()).write(in_memory_path);

  serve::BuilderConfig builder;
  builder.snapshot = config;
  builder.geo = geo.geo.get();
  builder.shard_budget_bytes = 2048;  // ~64 records per shard
  builder.jobs = 1;
  const std::string streamed_path = temp_path("streamed_j1.snap");
  const serve::BuildLedger ledger =
      serve::build_snapshot_file(log_path, streamed_path, builder);

  EXPECT_GT(ledger.shards, 1u) << "budget did not force sharding; test is vacuous";
  EXPECT_EQ(ledger.records_in, log.size());
  EXPECT_EQ(ledger.records_folded + ledger.records_skipped, ledger.records_in);
  EXPECT_EQ(ledger.records_skipped, 0u);

  // The tentpole determinism claim, both axes: streaming == in-memory,
  // and jobs 1 == jobs 4, to the byte.
  const std::string in_memory_bytes = read_file(in_memory_path);
  EXPECT_EQ(read_file(streamed_path), in_memory_bytes);

  builder.jobs = 4;
  const std::string streamed_j4_path = temp_path("streamed_j4.snap");
  serve::build_snapshot_file(log_path, streamed_j4_path, builder);
  EXPECT_EQ(read_file(streamed_j4_path), in_memory_bytes);

  // Header tier counts match what the ledger reports.
  std::string error;
  const auto loaded = OracleSnapshot::map(streamed_path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->block_count(), ledger.block_count);
  EXPECT_EQ(loaded->as_count(), ledger.as_count);
  EXPECT_EQ(loaded->total_samples(), ledger.total_samples);

  for (const std::string& path : {log_path, in_memory_path, streamed_path, streamed_j4_path}) {
    std::remove(path.c_str());
  }
}

TEST(SnapshotBuilder, StreamingBuildOfOutOfOrderLogIsByteIdentical) {
  TestGeo geo;
  const std::vector<net::Prefix24> blocks = six_blocks();
  // Each pair of rounds is logged later round first, so every address's
  // matched records are out of send-time order and grouping re-sorts every
  // timeline, in memory and in each shard.
  const probe::RecordLog ordered = make_log(blocks, 4, 12);
  const std::size_t per_round = blocks.size() * 4;
  probe::RecordLog log;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const std::size_t round = i / per_round;
    log.append(ordered.at((round ^ 1) * per_round + i % per_round));
  }
  ASSERT_EQ(log.at(0).round, 1u);
  ASSERT_EQ(analysis::SurveyDataset::from_log(log).timelines()[0].requests[0].round, 0u);

  const std::string log_path = temp_path("out_of_order.records");
  {
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    log.save(os);
  }
  const auto config = small_config();
  const std::string in_memory_path = temp_path("out_of_order_in_memory.snap");
  OracleSnapshot::build(log, config, geo.geo.get()).write(in_memory_path);
  const std::string in_memory_bytes = read_file(in_memory_path);

  serve::BuilderConfig builder;
  builder.snapshot = config;
  builder.geo = geo.geo.get();
  builder.shard_budget_bytes = 2048;  // ~64 records per shard
  for (const std::size_t jobs : {1, 4}) {
    builder.jobs = jobs;
    const std::string streamed_path = temp_path("out_of_order_streamed.snap");
    const serve::BuildLedger ledger = serve::build_snapshot_file(log_path, streamed_path, builder);
    EXPECT_GE(ledger.shards, 3u);
    EXPECT_EQ(ledger.records_folded, log.size());
    EXPECT_EQ(read_file(streamed_path), in_memory_bytes) << "jobs " << jobs;
    std::remove(streamed_path.c_str());
  }
  std::remove(log_path.c_str());
  std::remove(in_memory_path.c_str());
}

TEST(SnapshotBuilder, AddressesThatNeverAnsweredChangeNoByte) {
  TestGeo geo;
  const std::vector<net::Prefix24> blocks = six_blocks();
  const probe::RecordLog answering = make_log(blocks, 4, 12);
  // Two /24s whose addresses never answer, between answering ones in
  // network order.
  const std::vector<net::Prefix24> dark = {
      net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 3, 0)),
      net::Prefix24::containing(net::Ipv4Address::from_octets(10, 0, 4, 0)),
  };
  // After each round of answers: timeouts and errors from three silent
  // addresses of every answering /24 and eight of every dark one.
  const std::size_t per_round = blocks.size() * 4;
  probe::RecordLog log;
  for (std::size_t i = 0; i < answering.size(); ++i) {
    log.append(answering.at(i));
    if ((i + 1) % per_round != 0) continue;
    const std::uint32_t round = answering.at(i).round;
    const auto silent = [&](const net::Prefix24& block, int addresses) {
      for (int a = 0; a < addresses; ++a) {
        probe::SurveyRecord record;
        record.type = a % 3 == 2 ? probe::RecordType::kError : probe::RecordType::kTimeout;
        record.address = block.address(static_cast<std::uint8_t>(100 + a));
        record.probe_time = SimTime::seconds(round * 660 + 100);
        record.round = round;
        log.append(record);
      }
    };
    for (const net::Prefix24& block : blocks) silent(block, 3);
    for (const net::Prefix24& block : dark) silent(block, 8);
  }

  const std::string log_path = temp_path("silent.records");
  {
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    log.save(os);
  }
  const auto config = small_config();
  const std::string in_memory_path = temp_path("silent_in_memory.snap");
  OracleSnapshot::build(log, config, geo.geo.get()).write(in_memory_path);
  const std::string in_memory_bytes = read_file(in_memory_path);
  // The silent addresses change no byte of the in-memory build either.
  const std::string answering_path = temp_path("silent_answering_only.snap");
  OracleSnapshot::build(answering, config, geo.geo.get()).write(answering_path);
  EXPECT_EQ(read_file(answering_path), in_memory_bytes);

  serve::BuilderConfig builder;
  builder.snapshot = config;
  builder.geo = geo.geo.get();
  builder.shard_budget_bytes = 2048;  // ~64 records per shard
  for (const std::size_t jobs : {1, 4}) {
    builder.jobs = jobs;
    const std::string streamed_path = temp_path("silent_streamed.snap");
    const serve::BuildLedger ledger = serve::build_snapshot_file(log_path, streamed_path, builder);
    // Every /24 holds more than a shard's worth of records (84 for an
    // answering one, 96 for a dark one), so each is a shard of its own,
    // and the two dark shards spill no record.
    EXPECT_EQ(ledger.shards, blocks.size() + dark.size());
    EXPECT_EQ(ledger.records_in, log.size());
    EXPECT_EQ(ledger.records_folded, log.size());
    // Pass B spilled the answering addresses' records and no other.
    EXPECT_EQ(ledger.records_spilled, answering.size());
    EXPECT_LT(ledger.records_spilled, ledger.records_folded);
    EXPECT_EQ(read_file(streamed_path), in_memory_bytes) << "jobs " << jobs;
    std::remove(streamed_path.c_str());
  }
  for (const std::string& path : {log_path, in_memory_path, answering_path}) {
    std::remove(path.c_str());
  }
}

TEST(SnapshotBuilder, FailedBuildRemovesItsSpills) {
  const probe::RecordLog log = make_log({kBlockA, kBlockB, kBlockC}, 4, 12);
  const std::string log_path = temp_path("failed_build.records");
  {
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    log.save(os);
  }
  const std::string dir = testing::TempDir();
  const std::string stem = "snapshot_test_failed_build.";
  serve::BuilderConfig builder;
  builder.snapshot = small_config();
  builder.shard_budget_bytes = 2048;  // several shards, each with its spills
  builder.temp_prefix = dir + stem;
  // The output's directory does not exist, so the build throws at its last
  // step, once every shard has been spilled and folded.
  const std::string out_path = dir + "snapshot_test_no_such_dir/out.snap";
  EXPECT_THROW(serve::build_snapshot_file(log_path, out_path, builder), std::runtime_error);
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    EXPECT_FALSE(entry.path().filename().string().starts_with(stem + "shard")) << entry.path();
  }
  std::remove(log_path.c_str());
}

TEST(SnapshotBuilder, LedgerCountsDetectablyCorruptRecords) {
  const probe::RecordLog log = make_log({kBlockA, kBlockB}, 3, 8);
  std::ostringstream saved;
  log.save(saved);
  std::string bytes = saved.str();
  // Invalid record type tag in the third record: detectably corrupt,
  // skipped and counted — same contract as RecordLog::load.
  bytes[probe::RecordLog::kHeaderBytes + 2 * probe::RecordLog::kRecordBytes] = '\x7F';
  const std::string log_path = temp_path("corrupt.records");
  write_file(log_path, bytes);

  obs::Registry registry;
  serve::BuilderConfig builder;
  builder.snapshot = small_config();
  builder.registry = &registry;
  const std::string out_path = temp_path("corrupt_build.snap");
  const serve::BuildLedger ledger = serve::build_snapshot_file(log_path, out_path, builder);

  EXPECT_EQ(ledger.records_in, log.size());
  EXPECT_EQ(ledger.records_skipped, 1u);
  EXPECT_EQ(ledger.records_folded, log.size() - 1);
  EXPECT_EQ(registry.counter("snapshot.build.records_in").value(), ledger.records_in);
  EXPECT_EQ(registry.counter("snapshot.build.records_folded").value(), ledger.records_folded);
  EXPECT_EQ(registry.counter("snapshot.build.records_skipped").value(), ledger.records_skipped);
  EXPECT_EQ(registry.gauge("snapshot.blocks").value(),
            static_cast<std::int64_t>(ledger.block_count));

  std::remove(log_path.c_str());
  std::remove(out_path.c_str());
}

TEST(OracleServer, CrashRecoveryPrefersSnapshotFileReload) {
  auto config = small_config();
  config.version = 5;
  const std::string path = temp_path("reload.snap");
  OracleSnapshot::build(make_log({kBlockA, kBlockB}, 3, 10), config).write(path);

  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig server_config;
  server_config.registry = &registry;
  server_config.snapshot_path = path;
  OracleServer server{sim, server_config,
                      std::make_shared<const OracleSnapshot>(
                          OracleSnapshot::build(make_log({kBlockA}, 3, 10), small_config()))};
  bool rebuild_called = false;
  server.set_rebuild([&rebuild_called]() -> std::shared_ptr<const OracleSnapshot> {
    rebuild_called = true;
    return nullptr;
  });

  std::vector<std::uint64_t> versions;
  sim.schedule_after(SimTime::micros(10), [&server] { server.crash(SimTime::seconds(1)); });
  sim.schedule_after(SimTime::seconds(2), [&server, &versions] {
    server.submit(serve::Request{kBlockA.address(1), 95, 95},
                  [&versions](const LookupResult& result, SimTime) {
                    versions.push_back(result.version);
                  });
  });
  sim.run();
  server.finalize();

  // Recovery came from the snapshot file: version 5, no rebuild call.
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], 5u);
  EXPECT_FALSE(rebuild_called);
  EXPECT_EQ(registry.counter("serve.snapshot_reloads").value(), 1u);
  EXPECT_EQ(registry.counter("serve.snapshot_rebuilds").value(), 0u);
  EXPECT_EQ(registry.gauge("serve.snapshot_version").value(), 5);
  std::remove(path.c_str());
}

TEST(OracleServer, CorruptSnapshotFileFallsBackToRebuild) {
  const std::string path = temp_path("bad_reload.snap");
  write_file(path, "definitely not a snapshot");

  obs::Registry registry;
  sim::Simulator sim{&registry};
  serve::ServerConfig server_config;
  server_config.registry = &registry;
  server_config.snapshot_path = path;
  OracleServer server{sim, server_config, nullptr};
  server.set_rebuild([] {
    auto config = small_config();
    config.version = 3;
    return std::make_shared<const OracleSnapshot>(
        OracleSnapshot::build(make_log({kBlockA}, 3, 10), config));
  });

  std::vector<std::uint64_t> versions;
  sim.schedule_after(SimTime::micros(10), [&server] { server.crash(SimTime::seconds(1)); });
  sim.schedule_after(SimTime::seconds(2), [&server, &versions] {
    server.submit(serve::Request{kBlockA.address(1), 95, 95},
                  [&versions](const LookupResult& result, SimTime) {
                    versions.push_back(result.version);
                  });
  });
  sim.run();
  server.finalize();

  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], 3u);
  EXPECT_EQ(registry.counter("serve.snapshot_reloads").value(), 0u);
  EXPECT_EQ(registry.counter("serve.snapshot_rebuilds").value(), 1u);
  EXPECT_EQ(registry.counter("fault.snapshot.load_rejected").value(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace turtle
