// Bounded-memory streaming snapshot build: fold a RecordLog far larger
// than RAM into a snapshot-v1 file.
//
// A snapshot is made by one fold and one merge, both in
// snapshot_builder.cc. The fold takes one shard's grouped dataset, runs
// the filtering pipeline, stable-sorts the reports by /24 (the format's
// canonical fold order), and writes the shard's block keys, ASNs and
// frozen aggregates plus its per-address percentile columns to streams;
// each report's AS-tier run (asn, RTTs) goes to a sink. The merge takes
// the shards' outputs in shard order and the folded AS tier, computes the
// Table 2 matrix, and writes the header and every section to a stream.
// OracleSnapshot::build is their one-shard case: the whole log in memory,
// its sink folding each AS run straight into the AS tier. This builder
// cuts the log into shards so that no pass holds more than one shard's
// dataset per job:
//
//   pass A  stream the log once (tolerant RecordReader, one fixed read
//           block) tallying per /24 network in a hash map its records and
//           which of its addresses answered (analysis::answered: a matched
//           or an unmatched response), sort the tallies by network once,
//           then cut the sorted network space into contiguous shards of
//           ~shard_budget_bytes of log each, counting every record — a
//           pure function of the log and the budget, never of --jobs;
//   pass B  stream the log again, appending each record of an address
//           that answered to its shard's spill file (records are
//           partitioned by their address's /24, so each address's full
//           history lands in exactly one shard — the analysis pipeline is
//           address-local, which makes a per-shard pipeline run equal the
//           global run restricted to the shard). An address that never
//           answered is left out, as grouping would leave it out of the
//           dataset, so a shard whose /24s never answered spills nothing;
//   pass C  fold shards in parallel on a util::ThreadPool: group the
//           shard into a SurveyDataset by reading its spill twice (count,
//           then place; the shard's records are never loaded) and fold it
//           into spill files, the sink spilling the AS-tier runs;
//   pass D  replay the AS runs shard by shard through the same per-AS
//           fold (P2 states cannot be merged, but replaying the canonical
//           sequence reproduces them exactly), then merge into the output
//           file, concatenating the block sections (shard ranges are
//           ascending, so concatenation IS the global sorted order).
//
// Peak memory is O(shard's answering dataset) per job + O(distinct ASes)
// + O(/24 networks) for pass A's tallies (a counter and a 256-bit mask
// each) + O(answering addresses × percentiles) for the matrix columns —
// each a small fraction of the log (a record is 32 bytes on disk, a
// grouped request 16 plus 8 for a matched RTT, an address contributes many
// records, and one that never answered costs nothing past pass A), which
// is the bound the snapshot-smoke CI job enforces with a hard RSS cap.
//
// Determinism: the shard plan ignores --jobs, shard folds share no state,
// and the merge walks shards in index order — so the output file is
// byte-identical across --jobs, and byte-identical to
// OracleSnapshot::build(log).write() of the same log. ctest compares the
// two builds byte for byte (SnapshotBuilder.*), micro_snapshot exits
// non-zero unless its streamed file equals its in-memory rebuild, and CI
// `cmp`s the streamed files of --jobs 1 and 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hosts/geodb.h"
#include "obs/metrics.h"
#include "serve/oracle_snapshot.h"

namespace turtle::serve {

struct BuilderConfig {
  /// Percentiles, tier minimums, and version stamped into the file; must
  /// match what the serving side expects (defaults match).
  SnapshotConfig snapshot;

  /// Enables the AS tier, as OracleSnapshot::build's `geo` does.
  const hosts::GeoDatabase* geo = nullptr;

  /// Worker threads for the per-shard fold pass. Affects wall clock and
  /// peak RSS (jobs shards' datasets are resident at once), never output
  /// bytes.
  std::size_t jobs = 1;

  /// Target bytes of record-log input per shard. Smaller = lower peak
  /// memory, more spill files. A plan cuts at most 256 shards.
  std::uint64_t shard_budget_bytes = 64ULL << 20;

  /// Prefix for spill files, which the build removes whether it returns
  /// or throws; defaults to `<out_path>.tmp.` when empty.
  std::string temp_prefix;

  /// When set, publishes the build ledger as snapshot.build.* counters
  /// and the tier counts as snapshot.* gauges.
  obs::Registry* registry = nullptr;
};

/// Build accounting: every record the log declared is either folded into
/// the snapshot's tiers or counted skipped (detectably corrupt or
/// truncated — the tolerant-loader ledger), never silently dropped.
/// records_in == records_folded + records_skipped, always.
struct BuildLedger {
  std::uint64_t records_in = 0;
  std::uint64_t records_folded = 0;
  std::uint64_t records_skipped = 0;
  /// Records pass B wrote to shard spills: those of the addresses that
  /// answered. Not published as a counter.
  std::uint64_t records_spilled = 0;
  std::uint64_t log_bytes = 0;       ///< serialized input size
  std::size_t shards = 0;            ///< shards the plan cut
  std::uint64_t total_samples = 0;   ///< post-pipeline RTT samples folded
  std::size_t block_count = 0;
  std::size_t as_count = 0;
};

/// Streams the record log at `log_path` into a snapshot-v1 file at
/// `out_path`. Throws std::runtime_error on I/O failure or a corrupt log
/// header (mid-stream corruption is skipped and counted, like
/// RecordLog::load).
BuildLedger build_snapshot_file(const std::string& log_path, const std::string& out_path,
                                const BuilderConfig& config = {});

}  // namespace turtle::serve
