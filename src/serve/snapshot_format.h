// snapshot-v1: the oracle's single-file, versioned, checksummed on-disk
// snapshot format — flat, offset-addressed arrays with no pointer fixup,
// so a reader checks one in-memory copy of the file and answers lookups
// straight from it (DESIGN §15 has the layout diagram and the
// forward-compat policy for v2).
//
// Layout (all integers and doubles little-endian; every section offset
// 8-byte aligned, a pure function of the header's counts):
//
//   [0, 256)              header (magic "TRTLSNAP", versions, counts,
//                         section offsets, body CRC-64/XZ)
//   percentiles           P × f64       tracked percentiles, in percent
//   block_keys            B × u32       sorted ascending /24 networks
//   block_asn             B × u32       owning ASN per block (kNoAsn none)
//   block_aggs            B × agg       frozen per-block aggregates
//   as_keys               A × u32       sorted ascending ASNs
//   as_aggs               A × agg       frozen per-AS aggregates
//   matrix_rows           R × f64       Table 2 address percentiles
//   matrix_cols           C × f64       Table 2 ping percentiles
//   matrix_cells          R·C × f64     Table 2 timeouts, seconds
//
// where one aggregate `agg` is a u64 sample count followed by P frozen
// core::P2Quantile marker states of 128 bytes each (u64 count + 5 heights
// + 5 positions + 5 desired positions, f64). The quantile's q value and
// marker increments are NOT stored: they are derived from the percentiles
// section on restore, which is what makes a lookup bitwise equal to the
// estimator the builder folded.
//
// This file is the single audited deserialization point: turtlint rule D6
// forbids reinterpret_cast reads of on-disk integers anywhere else under
// src/serve/.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/percentiles.h"
#include "core/p2_quantile.h"
#include "util/crc64.h"

namespace turtle::serve::snapshot_format {

inline constexpr std::array<char, 8> kMagic = {'T', 'R', 'T', 'L', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 256;
/// block_asn value for a block the GeoDatabase could not attribute.
inline constexpr std::uint32_t kNoAsn = 0xFFFFFFFF;
/// One frozen P2Quantile marker state on disk.
inline constexpr std::size_t kQuantileStateBytes = 128;
/// Header flags bit 0: the matrix sections are present (R, C > 0).
inline constexpr std::uint32_t kFlagHasMatrix = 1;

/// Section order in the file; section_offsets[] is indexed by this.
enum Section : std::size_t {
  kPercentiles = 0,
  kBlockKeys,
  kBlockAsn,
  kBlockAggs,
  kAsKeys,
  kAsAggs,
  kMatrixRows,
  kMatrixCols,
  kMatrixCells,
  kSectionCount,
};

/// Serialized size of one aggregate (sample count + P marker states).
[[nodiscard]] constexpr std::size_t aggregate_bytes(std::size_t percentile_count) {
  return 8 + percentile_count * kQuantileStateBytes;
}

/// Decoded header. Offsets are absolute file offsets; the layout is a
/// pure function of the counts, and parse_header() rejects a header whose
/// offsets deviate from that function (there is exactly one valid layout
/// per count tuple — determinism's friend, an attacker's enemy).
struct Header {
  std::uint64_t file_bytes = 0;
  std::uint64_t body_crc64 = 0;  ///< CRC-64/XZ over [kHeaderBytes, file_bytes)
  /// CRC-64/XZ over the 256 header bytes with this field zeroed, so a bit
  /// flip in any header field (counts, versions, offsets, body_crc64) is
  /// rejected even though the body checksum excludes the header.
  std::uint64_t header_crc64 = 0;
  std::uint64_t snapshot_version = 0;
  std::uint64_t total_samples = 0;
  std::uint64_t min_block_samples = 0;
  std::uint64_t min_as_samples = 0;
  std::uint64_t min_samples_per_address = 0;
  std::uint32_t percentile_count = 0;
  std::uint32_t block_count = 0;
  std::uint32_t as_count = 0;
  std::uint32_t matrix_rows = 0;
  std::uint32_t matrix_cols = 0;
  std::uint32_t flags = 0;
  std::array<std::uint64_t, kSectionCount> section_offsets{};
};

/// Computes the one valid layout (section offsets + file_bytes) for the
/// given counts, in place. Returns false when the layout does not fit in
/// 64 bits: crafted counts must not wrap into a small file_bytes.
[[nodiscard]] bool plan_layout(Header& header);

/// Parses and structurally validates a header against the image size:
/// magic, format version, file_bytes == size, offsets == plan_layout of
/// the counts (which must not overflow). Does NOT checksum the body
/// (View::open does). On failure returns false and fills `error`.
[[nodiscard]] bool parse_header(const unsigned char* data, std::size_t size, Header& out,
                                std::string* error);

/// Read-only typed view over a validated snapshot image. The span
/// accessors point straight into the image; only the tiny Table 2 matrix
/// is materialized.
class View {
 public:
  /// Validates the header and the body checksum. `data` must be 8-byte
  /// aligned (any operator new buffer is). On failure returns false with a
  /// human-readable `error`; `out` is untouched. O(file bytes) for the
  /// CRC — the price of never serving a torn image, and still orders of
  /// magnitude cheaper than a rebuild (the bench records both).
  [[nodiscard]] static bool open(const unsigned char* data, std::size_t size, View& out,
                                 std::string* error);

  [[nodiscard]] const Header& header() const { return header_; }

  /// The whole image, header included: what a writer emits.
  [[nodiscard]] std::string_view image() const;

  [[nodiscard]] std::span<const double> percentiles() const;
  [[nodiscard]] std::span<const std::uint32_t> block_keys() const;
  [[nodiscard]] std::span<const std::uint32_t> block_asn() const;
  [[nodiscard]] std::span<const std::uint32_t> as_keys() const;

  /// Sample pool size of block/AS aggregate `i`.
  [[nodiscard]] std::uint64_t block_samples(std::size_t i) const;
  [[nodiscard]] std::uint64_t as_samples(std::size_t i) const;

  /// The p-th tracked quantile of aggregate `i`, read from its frozen
  /// state by core::P2Quantile::frozen_value without restoring an
  /// estimator: bitwise block_quantile(i, p).value(). What lookups answer.
  [[nodiscard]] double block_value(std::size_t i, std::size_t p) const;
  [[nodiscard]] double as_value(std::size_t i, std::size_t p) const;

  /// Restores the p-th tracked quantile estimator of aggregate `i`
  /// (q from the percentiles section). value() of the restored estimator
  /// is bitwise identical to the estimator the builder froze.
  [[nodiscard]] core::P2Quantile block_quantile(std::size_t i, std::size_t p) const;
  [[nodiscard]] core::P2Quantile as_quantile(std::size_t i, std::size_t p) const;

  /// Materializes the Table 2 matrix (empty when kFlagHasMatrix is off).
  [[nodiscard]] analysis::TimeoutMatrix matrix() const;

 private:
  [[nodiscard]] const unsigned char* section(Section s) const;
  /// Where the p-th frozen quantile state of aggregate `i` starts.
  [[nodiscard]] const unsigned char* state_at(Section aggs, std::size_t i, std::size_t p) const;
  [[nodiscard]] double value_at(Section aggs, std::size_t i, std::size_t p) const;
  [[nodiscard]] core::P2Quantile quantile_at(Section aggs, std::size_t i, std::size_t p) const;

  const unsigned char* data_ = nullptr;
  Header header_;
};

/// Streaming snapshot writer: plan the layout from final counts, write a
/// placeholder header, stream the sections in order (each begin_section()
/// asserts the write position matches the plan), then finish() patches
/// the real header — including the body CRC accumulated while streaming —
/// back over the placeholder. The output is byte-identical for identical
/// logical content, which is what lets CI `cmp` --jobs 1 vs 8 builds.
class Writer {
 public:
  /// `header` must have every count and the config/version fields set;
  /// plan_layout() is applied to it. The stream must be seekable.
  Writer(std::ostream& os, Header header);

  /// Zero-pads to the section's planned offset and checks the plan.
  void begin_section(Section s);

  void put_u32(std::uint32_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t size);

  /// Pads to file_bytes, patches the header, flushes. Throws
  /// std::runtime_error on I/O failure. Call exactly once.
  void finish();

  [[nodiscard]] const Header& header() const { return header_; }

 private:
  void pad_to(std::uint64_t offset);

  std::ostream& os_;
  Header header_;
  std::uint64_t pos_ = kHeaderBytes;
  util::Crc64 crc_;
  bool finished_ = false;
};

/// Little-endian append/read helpers for the builder's spill files (same
/// byte conventions as the snapshot body, memcpy-based — no type punning
/// anywhere, see rule D6).
void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
void append_f64(std::string& out, double v);
/// One aggregate (`agg` above): the sample count, then every tracked
/// quantile's frozen state. The only aggregate encoder: a Writer takes
/// its bytes through put_bytes().
void append_aggregate(std::string& out, std::uint64_t samples,
                      std::span<const core::P2Quantile> quantiles);
[[nodiscard]] std::uint32_t read_u32(const unsigned char* p);
[[nodiscard]] std::uint64_t read_u64(const unsigned char* p);
[[nodiscard]] double read_f64(const unsigned char* p);
/// char overloads for callers holding iostream buffers (memcpy inside;
/// keeps cast-free call sites, see rule D6).
[[nodiscard]] std::uint32_t read_u32(const char* p);
[[nodiscard]] std::uint64_t read_u64(const char* p);
[[nodiscard]] double read_f64(const char* p);

}  // namespace turtle::serve::snapshot_format
