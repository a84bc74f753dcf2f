// The timeout oracle's immutable, versioned index: what timeout should a
// prober use for address X?
//
// The paper's deliverable is operational advice ("retransmit after ~3 s,
// keep listening for 60 s") with strong per-population variation — cellular
// and satellite ASes need far longer than the global tables suggest. A
// snapshot turns one survey's record log into a queryable structure with
// three tiers of answer, most specific first:
//
//   * per-/24-block pooled-ping quantiles, held as frozen core::P2Quantile
//     marker states (five markers per tracked quantile) so a million-block
//     snapshot stays cheap — the same bounded-state argument the paper
//     makes for prober timeout state (Section 2.1);
//   * per-AS quantiles (same estimators pooled over the AS's blocks),
//     attributed through the hosts::GeoDatabase, for blocks with too few
//     samples of their own;
//   * the global analysis::TimeoutMatrix (Table 2), answered through
//     core::recommend_timeout — by construction, a global-scope lookup is
//     *exactly* the offline recommendation for the same matrix cell.
//
// A snapshot has one representation however it was made: a validated
// snapshot-v1 image (snapshot_format.h, DESIGN §15) in a heap buffer it
// owns. build() runs the streaming builder's fold and merge
// (snapshot_builder.h) over the log as one in-memory shard and adopts the
// image they write; map() reads a file into it. Every lookup reads the
// image through one snapshot_format::View. Snapshots are immutable and
// carry a version; the serving layer hot-swaps to a newer one atomically
// while in-flight requests finish on the one they were dispatched
// against.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/percentiles.h"
#include "hosts/geodb.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probe/records.h"
#include "serve/snapshot_format.h"
#include "util/sim_time.h"

namespace turtle::serve {

struct SnapshotConfig {
  /// Quantiles tracked per block/AS and the matrix axes, in percent. Must
  /// match the percentiles the offline tables use (util::kPaperPercentiles)
  /// for the parity guarantee with core::recommend_timeout to be exact.
  std::vector<double> percentiles{1, 50, 80, 90, 95, 98, 99};

  /// Below this many latency samples a block defers to its AS aggregate,
  /// and an AS to the global matrix. A quantile of a handful of pings is
  /// noise, not a timeout recommendation.
  std::size_t min_block_samples = 25;
  std::size_t min_as_samples = 100;

  /// Per-address sample floor for the global matrix (the offline tables
  /// use 10; keep them aligned or parity breaks).
  std::size_t min_samples_per_address = 10;

  /// Version tag carried by every lookup answered from this snapshot.
  std::uint64_t version = 1;
};

/// Which tier answered a lookup.
enum class LookupScope : std::uint8_t { kBlock = 0, kAs = 1, kGlobal = 2 };

[[nodiscard]] const char* lookup_scope_name(LookupScope scope);

struct LookupResult {
  /// Recommended give-up timeout. Block/AS scope: the ping_coverage
  /// quantile of that population's pooled pings. Global scope: the
  /// (addr_coverage, ping_coverage) matrix cell via core::recommend_timeout.
  SimTime timeout;
  LookupScope scope = LookupScope::kGlobal;
  /// Latency samples behind the answer (the tier's pool size).
  std::uint64_t samples = 0;
  /// Deterministic heuristic in [0, 1): scope weight (block 1.0, AS 0.9,
  /// global 0.75) times the saturating sample factor n / (n + 16).
  double confidence = 0.0;
  /// Version of the snapshot that answered.
  std::uint64_t version = 0;
};

/// Immutable per-survey index. Build or load once, share via shared_ptr,
/// never mutate — the serving layer relies on snapshots being frozen.
///
/// Move-only: the view points into the owned image, and a move hands the
/// image's heap buffer over without relocating it.
///
/// Thread contract: a snapshot deliberately holds no mutex of its own.
/// The image is written and validated before the constructor runs, and
/// every public const accessor only reads it, so concurrent lookup()
/// calls from many threads need no lock. *Which* snapshot is live is its server's state, swapped
/// on that server's one thread (OracleServer::swap_snapshot, turtled's
/// SWAP) and held by shared_ptr, so a hot-swap never frees a snapshot
/// mid-lookup.
class OracleSnapshot {
 public:
  /// Builds from a record log held in memory: groups it, then runs
  /// build_snapshot_file's fold and merge (snapshot_builder.h) over it as
  /// one shard; defined beside them in snapshot_builder.cc. `geo`, when
  /// given, enables the AS tier; without it lookups fall back block ->
  /// global. The pipeline's broadcast and duplicate filters run first, so
  /// poisoned responders never contribute to any tier's quantiles. The
  /// image the merge writes is exactly the bytes write() later emits.
  /// This is the crash-recovery path of last resort: a server that lost
  /// its snapshot and has no snapshot file reloads the checkpointed record
  /// log and rebuilds.
  static OracleSnapshot build(const probe::RecordLog& log, SnapshotConfig config = {},
                              const hosts::GeoDatabase* geo = nullptr);

  OracleSnapshot(OracleSnapshot&&) noexcept = default;
  OracleSnapshot& operator=(OracleSnapshot&&) noexcept = default;
  OracleSnapshot(const OracleSnapshot&) = delete;
  OracleSnapshot& operator=(const OracleSnapshot&) = delete;

  /// Writes the snapshot-v1 image (snapshot_format.h, DESIGN §15). The
  /// bytes are a pure function of the logical content: blocks and ASes
  /// are key-sorted, and the P2 marker states are frozen exactly — which
  /// is why a streaming build of the same log, at any shard count,
  /// produces a `cmp`-equal file. Throws std::runtime_error on I/O
  /// failure.
  void write(const std::string& path) const;
  void write(std::ostream& os) const;

  /// Loads `path`: one read of the regular file into a buffer sized from
  /// it, then the header and both checksums are validated. Later changes
  /// to the file never reach the snapshot. On any failure (missing file,
  /// not a regular file, short read, truncation, bit flip, version
  /// mismatch, counts whose layout overflows) returns nullptr, fills
  /// `error`, and counts fault.snapshot.load_rejected on `registry` —
  /// tolerant-loading discipline: corrupt inputs are counted and refused,
  /// never served.
  static std::shared_ptr<const OracleSnapshot> map(const std::string& path,
                                                   std::string* error = nullptr,
                                                   obs::Registry* registry = nullptr);

  /// Answers "what timeout for this address at this coverage target".
  /// addr_coverage only matters at global scope (for a specific block the
  /// address population is known); both coverages clamp to the nearest
  /// configured percentile, exactly like core::recommend_timeout.
  /// `min_scope` forces the answer to come from a coarser tier: kAs skips
  /// the per-/24 probe, kGlobal skips both and answers straight from the
  /// Table 2 matrix — the wire protocol's `scope=` selector. The default
  /// (kBlock) is the normal most-specific-first walk.
  [[nodiscard]] LookupResult lookup(net::Ipv4Address addr, double addr_coverage,
                                    double ping_coverage,
                                    LookupScope min_scope = LookupScope::kBlock) const;

  [[nodiscard]] std::uint64_t version() const { return view_.header().snapshot_version; }
  [[nodiscard]] std::size_t block_count() const { return view_.header().block_count; }
  [[nodiscard]] std::size_t as_count() const { return view_.header().as_count; }
  [[nodiscard]] std::uint64_t total_samples() const { return view_.header().total_samples; }
  /// True when the underlying survey produced any usable addresses.
  [[nodiscard]] bool has_data() const { return !matrix_.cells.empty(); }

  /// The Table 2 matrix global lookups answer from (tests assert the
  /// recommend_timeout parity against exactly this object).
  [[nodiscard]] const analysis::TimeoutMatrix& matrix() const { return matrix_; }

  /// Samples pooled in `addr`'s /24 aggregate (0 when the block is dark).
  [[nodiscard]] std::uint64_t block_samples(net::Ipv4Address addr) const;

 private:
  /// Adopts `image`, which `view` has already validated.
  OracleSnapshot(std::unique_ptr<unsigned char[]> image, const snapshot_format::View& view);

  [[nodiscard]] std::size_t percentile_index(double p) const;

  /// Index of `network` in the sorted block-key section, if present.
  [[nodiscard]] bool block_index(std::uint32_t network, std::size_t& index) const;
  /// Index of block `block`'s AS in the sorted AS-key section, if the
  /// block has an ASN with an aggregate.
  [[nodiscard]] bool as_index(std::size_t block, std::size_t& index) const;

  std::unique_ptr<unsigned char[]> image_;
  snapshot_format::View view_;  ///< over image_
  /// Materialized from the image: global lookups hand it to
  /// core::recommend_timeout.
  analysis::TimeoutMatrix matrix_;
};

}  // namespace turtle::serve
