// A seeded synthetic survey for the codec and lookup tests, synthesized
// the way bench/micro_snapshot does it (/24s 10.0.b.0, matched responses
// with 5..105 ms of per-record jitter from one Prng), but with uneven
// blocks so that every tier and every fallback answers somewhere:
//
//   block b         hosts 1 + b % 6, each answering every round
//   b % 8 == 7      no GeoDatabase entry: the block has no ASN
//   b == 18         alone in its AS (catalog index 3)
//   any other b     AS index b % 3
//
// At 12 rounds and the default SnapshotConfig, blocks with one or two
// hosts (12 or 24 samples) sit under min_block_samples; block 7 (two
// hosts, no ASN) and block 18 (one host, an AS of 12 samples) fall
// through to the global matrix; 10.0.200.0/24 and 203.0.113.0/24 are
// absent.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "hosts/asdb.h"
#include "hosts/geodb.h"
#include "net/ipv4.h"
#include "probe/records.h"
#include "serve/oracle_snapshot.h"
#include "util/prng.h"

namespace turtle::test {

inline constexpr int kSyntheticBlocks = 24;

[[nodiscard]] inline net::Prefix24 synthetic_block(int b) {
  return net::Prefix24::from_network((10u << 16) + static_cast<std::uint32_t>(b));
}

[[nodiscard]] inline int synthetic_hosts(int b) { return 1 + b % 6; }

[[nodiscard]] inline probe::RecordLog synthetic_log(int rounds, std::uint64_t seed) {
  probe::RecordLog log;
  util::Prng rng{seed};
  for (int round = 0; round < rounds; ++round) {
    int slot = 0;
    for (int b = 0; b < kSyntheticBlocks; ++b) {
      for (int a = 1; a <= synthetic_hosts(b); ++a, ++slot) {
        probe::SurveyRecord record;
        record.type = probe::RecordType::kMatched;
        record.address = synthetic_block(b).address(static_cast<std::uint8_t>(a));
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        record.rtt = SimTime::from_seconds(0.005 + 0.0001 * static_cast<double>(
                                                               rng.uniform_int(1000)));
        record.round = static_cast<std::uint32_t>(round);
        log.append(record);
      }
    }
  }
  return log;
}

/// The standard AS catalog and the block attribution above.
struct SyntheticGeo {
  SyntheticGeo() : catalog{hosts::AsCatalog::standard()} {
    geo = std::make_unique<hosts::GeoDatabase>(&catalog);
    for (int b = 0; b < kSyntheticBlocks; ++b) {
      if (b % 8 == 7) continue;
      geo->add_block(synthetic_block(b), b == 18 ? 3u : static_cast<std::uint32_t>(b % 3));
    }
  }
  hosts::AsCatalog catalog;
  std::unique_ptr<hosts::GeoDatabase> geo;
};

/// The synthetic survey at `rounds` rounds, folded into a snapshot.
[[nodiscard]] inline serve::OracleSnapshot synthetic_snapshot(int rounds = 12,
                                                              serve::SnapshotConfig config = {},
                                                              std::uint64_t seed = 1) {
  const SyntheticGeo geo;
  return serve::OracleSnapshot::build(synthetic_log(rounds, seed), std::move(config),
                                      geo.geo.get());
}

}  // namespace turtle::test
