// micro_snapshot: the snapshot scale-out microbenchmark.
//
// Measures the two tentpole claims of the snapshot-v1 on-disk format:
//
//   1. cold-load speedup — OracleSnapshot::map() of the file (one read,
//      checksum, pointer-free section views) vs rebuilding the same snapshot from
//      the record log (load + filtering pipeline + fold), reported as
//      cold_load_speedup = rebuild_from_log_us / cold_load_to_first_query_us;
//   2. bounded-memory build — the sharded streaming builder folds a log
//      synthesized *to disk* (never resident) under --rss-cap-mb; the
//      binary exits non-zero if the process's peak RSS after the build
//      phase exceeds the cap, so CI can enforce the bound with a flag
//      instead of parsing /proc.
//
// The build phase publishes the snapshot.build.* ledger and snapshot.*
// gauges into --metrics-out, and a deterministic lookup sweep over the
// loaded file fills snapshot.lookups / snapshot.lookup_timeout — the dump
// is byte-identical across --jobs (the file itself is too; CI cmp's it).
// The sweep also cross-checks the loaded file against an
// OracleSnapshot::build of the same log: any field mismatch is a parity
// failure and the bench exits non-zero. So is any byte of the streamed
// file that differs from that in-memory build's write(): both run one
// fold and merge, the file over its shards and the rebuild as one shard.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "harness.h"
#include "hosts/asdb.h"
#include "hosts/geodb.h"
#include "probe/records.h"
#include "report.h"
#include "serve/oracle_snapshot.h"
#include "serve/snapshot_builder.h"
#include "util/check.h"
#include "util/prng.h"

using namespace turtle;

namespace {

double monotonic_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

/// Synthesizes a survey record log straight to disk via the streaming
/// RecordWriter — the log never lives in memory, so the build phase's RSS
/// measures the *builder*, not the generator. Deterministic per seed.
std::uint64_t synthesize_log(const std::string& path, int blocks, int addrs, int rounds,
                             std::uint64_t seed) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  TURTLE_CHECK(os.good()) << "cannot open log path " << path;
  probe::RecordWriter writer{os};
  util::Prng rng{seed};
  for (int round = 0; round < rounds; ++round) {
    int slot = 0;
    for (int b = 0; b < blocks; ++b) {
      const auto prefix =
          net::Prefix24::from_network((10u << 16) + static_cast<std::uint32_t>(b));
      for (int a = 1; a <= addrs; ++a, ++slot) {
        probe::SurveyRecord record;
        record.type = probe::RecordType::kMatched;
        record.address = prefix.address(static_cast<std::uint8_t>(a));
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        // 5..105 ms with per-record jitter: enough spread that every
        // percentile column is distinct, cheap enough to stream.
        record.rtt = SimTime::from_seconds(0.005 + 0.0001 * static_cast<double>(
                                                                rng.uniform_int(1000)));
        record.round = static_cast<std::uint32_t>(round);
        writer.append(record);
      }
    }
  }
  writer.finish();
  TURTLE_CHECK(os.good()) << "write to log path " << path << " failed";
  return writer.written();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "micro_snapshot"};
  const int blocks = static_cast<int>(flags.get_int("blocks", 400));
  const int addrs = static_cast<int>(flags.get_int("addrs", 8));
  const int rounds = static_cast<int>(flags.get_int("rounds", 20));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  const auto shard_budget_mb = static_cast<std::uint64_t>(flags.get_int("shard-budget-mb", 8));
  const auto rss_cap_mb = static_cast<std::int64_t>(flags.get_int("rss-cap-mb", 0));
  TURTLE_CHECK_GT(blocks, 0);
  TURTLE_CHECK_GT(addrs, 0);
  TURTLE_CHECK_GT(rounds, 0);
  TURTLE_CHECK_GT(shard_budget_mb, 0u);
  std::string snap_path = flags.get_string("snapshot-out", "");
  const bool keep_snapshot = !snap_path.empty();
  if (!keep_snapshot) snap_path = "micro_snapshot.tmp.snap";
  const std::string log_path = snap_path + ".records";
  report.set_jobs(static_cast<int>(jobs));

  std::printf("# micro_snapshot: %d blocks x %d addrs x %d rounds, jobs=%zu, "
              "shard budget %llu MiB\n",
              blocks, addrs, rounds, jobs,
              static_cast<unsigned long long>(shard_budget_mb));

  // Phase 1: synthesize the record log to disk (streamed, not resident).
  const std::uint64_t records = synthesize_log(log_path, blocks, addrs, rounds, seed);

  // Phase 2: streaming build under the (optional) RSS cap.
  hosts::AsCatalog catalog = hosts::AsCatalog::standard();
  hosts::GeoDatabase geo{&catalog};
  for (int b = 0; b < blocks; ++b) {
    geo.add_block(net::Prefix24::from_network((10u << 16) + static_cast<std::uint32_t>(b)),
                  static_cast<std::size_t>(b) % catalog.list().size());
  }
  serve::BuilderConfig builder;
  // Stampable version so the daemon smoke test can build two distinguishable
  // snapshots and watch STATS report the new one after a hot SWAP.
  builder.snapshot.version =
      static_cast<std::uint64_t>(flags.get_int("snapshot-version", 1));
  builder.geo = &geo;
  builder.jobs = jobs;
  builder.shard_budget_bytes = shard_budget_mb << 20;
  builder.registry = &report.registry();
  serve::BuildLedger ledger;
  double build_s = 0;
  {
    bench::PhaseRss build_rss{report, "build"};
    const double t0 = monotonic_seconds();
    ledger = serve::build_snapshot_file(log_path, snap_path, builder);
    build_s = monotonic_seconds() - t0;
  }
  const std::int64_t build_peak_rss = bench::peak_rss_bytes();
  report.set_metric("build_peak_rss_bytes", build_peak_rss);
  report.set_metric("build_records_per_s",
                    build_s > 0 ? static_cast<double>(ledger.records_folded) / build_s : 0.0);
  report.set_metric("log_bytes", static_cast<std::int64_t>(ledger.log_bytes));
  report.set_metric("build_shards", static_cast<std::int64_t>(ledger.shards));
  std::uint64_t snapshot_bytes = 0;
  {
    std::ifstream in{snap_path, std::ios::binary | std::ios::ate};
    if (in.good()) snapshot_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  report.set_metric("snapshot_bytes", static_cast<std::int64_t>(snapshot_bytes));
  std::printf("# build: %llu records (%llu folded) in %.3f s, %zu shards, "
              "peak RSS %.1f MiB\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ledger.records_folded), build_s,
              ledger.shards, static_cast<double>(build_peak_rss) / (1 << 20));
  if (rss_cap_mb > 0 && build_peak_rss > rss_cap_mb * (1LL << 20)) {
    std::fprintf(stderr, "# FAIL: build peak RSS %lld bytes exceeds --rss-cap-mb %lld\n",
                 static_cast<long long>(build_peak_rss),
                 static_cast<long long>(rss_cap_mb));
    std::remove(log_path.c_str());
    if (!keep_snapshot) std::remove(snap_path.c_str());
    return 1;
  }

  // Phase 3: cold load — load the file and answer one query. This is the
  // crash-recovery path OracleServer prefers; the cost is dominated by the
  // full-file checksum, not by rebuilding any state.
  const auto first_addr = net::Prefix24::from_network(10u << 16).address(1);
  double cold_us = 0;
  std::shared_ptr<const serve::OracleSnapshot> loaded;
  {
    const double t0 = monotonic_seconds();
    std::string error;
    loaded = serve::OracleSnapshot::map(snap_path, &error);
    TURTLE_CHECK(loaded != nullptr) << "load failed: " << error;
    const serve::LookupResult first = loaded->lookup(first_addr, 95, 95);
    cold_us = (monotonic_seconds() - t0) * 1e6;
    TURTLE_CHECK_GT(first.samples, 0u);
  }
  report.set_metric("cold_load_to_first_query_us", cold_us);

  // Phase 4: the baseline this replaces — reload the record log and
  // rebuild the snapshot in memory (what crash recovery cost before).
  double rebuild_us = 0;
  std::unique_ptr<serve::OracleSnapshot> rebuilt;
  {
    bench::PhaseRss rebuild_rss{report, "rebuild"};
    const double t0 = monotonic_seconds();
    std::ifstream in{log_path, std::ios::binary};
    const probe::RecordLog log = probe::RecordLog::load(in);
    rebuilt = std::make_unique<serve::OracleSnapshot>(
        serve::OracleSnapshot::build(log, builder.snapshot, &geo));
    rebuild_us = (monotonic_seconds() - t0) * 1e6;
  }
  // Streamed == in-memory, byte for byte (checked outside the timed rebuild).
  std::ostringstream rebuilt_bytes;
  rebuilt->write(rebuilt_bytes);
  std::ostringstream file_bytes;
  file_bytes << std::ifstream{snap_path, std::ios::binary}.rdbuf();
  const bool bytes_match = rebuilt_bytes.view() == file_bytes.view();
  report.set_metric("rebuild_from_log_us", rebuild_us);
  report.set_metric("cold_load_speedup", cold_us > 0 ? rebuild_us / cold_us : 0.0);
  std::printf("# cold load %.0f us vs rebuild %.0f us: %.0fx\n", cold_us, rebuild_us,
              cold_us > 0 ? rebuild_us / cold_us : 0.0);

  // Phase 5: deterministic serve sweep, double-booked as the parity gate.
  // Loaded and in-memory answers must agree on every field; the sweep also
  // fills the snapshot.* lookup metrics that --metrics-out ships (and that
  // validate_obs.py --snapshot cross-checks against the file header).
  obs::Registry& registry = report.registry();
  obs::Counter& lookups = registry.counter("snapshot.lookups");
  obs::Histogram& timeouts = registry.histogram("snapshot.lookup_timeout");
  const int block_step = blocks > 256 ? blocks / 256 : 1;
  std::int64_t mismatches = 0;
  for (int b = 0; b < blocks; b += block_step) {
    const auto prefix =
        net::Prefix24::from_network((10u << 16) + static_cast<std::uint32_t>(b));
    for (const double coverage : {50.0, 95.0, 99.0}) {
      const auto addr = prefix.address(1);
      const serve::LookupResult got = loaded->lookup(addr, coverage, 95);
      const serve::LookupResult want = rebuilt->lookup(addr, coverage, 95);
      lookups.inc();
      timeouts.observe(got.timeout);
      if (got.timeout != want.timeout || got.scope != want.scope ||
          got.samples != want.samples || got.confidence != want.confidence ||
          got.version != want.version) {
        ++mismatches;
      }
    }
  }
  report.set_metric("parity_mismatches", mismatches);

  std::remove(log_path.c_str());
  if (!keep_snapshot) std::remove(snap_path.c_str());
  if (!bytes_match) {
    std::fprintf(stderr, "# FAIL: streamed snapshot differs from the in-memory build\n");
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "# FAIL: %lld loaded-vs-built lookup mismatches\n",
                 static_cast<long long>(mismatches));
    return 1;
  }
  return 0;
}
