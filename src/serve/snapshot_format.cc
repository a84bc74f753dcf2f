#include "serve/snapshot_format.h"

#include <bit>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/check.h"

// The format is defined as little-endian on disk and the readers below
// cast image bytes in place; a big-endian port would need byte-swapping
// accessors here (and only here — that is the point of rule D6).
static_assert(std::endian::native == std::endian::little,
              "snapshot-v1 readers assume a little-endian host");

namespace turtle::serve::snapshot_format {

namespace {

constexpr std::uint64_t align8(std::uint64_t offset) { return (offset + 7) & ~std::uint64_t{7}; }

// Header field offsets (bytes). Keep in sync with DESIGN §15.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffFormatVersion = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffFileBytes = 16;
constexpr std::size_t kOffBodyCrc = 24;
constexpr std::size_t kOffHeaderCrc = 32;
constexpr std::size_t kOffSnapshotVersion = 40;
constexpr std::size_t kOffTotalSamples = 48;
constexpr std::size_t kOffMinBlockSamples = 56;
constexpr std::size_t kOffMinAsSamples = 64;
constexpr std::size_t kOffMinSamplesPerAddress = 72;
constexpr std::size_t kOffPercentileCount = 80;
constexpr std::size_t kOffBlockCount = 84;
constexpr std::size_t kOffAsCount = 88;
constexpr std::size_t kOffMatrixRows = 92;
constexpr std::size_t kOffMatrixCols = 96;
constexpr std::size_t kOffFlags = 100;
constexpr std::size_t kOffSectionOffsets = 104;  // kSectionCount × u64 -> 176

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool plan_layout(Header& header) {
  // Every section must end at or below kLimit, so neither count × width
  // nor the running offset wraps, and align8 cannot either. Unchecked, a
  // crafted header with R = 2^31-1 and C = 2^30-1 wraps to 256 bytes.
  constexpr std::uint64_t kLimit = std::numeric_limits<std::uint64_t>::max() - 7;
  const std::uint64_t agg = aggregate_bytes(header.percentile_count);
  std::uint64_t cursor = kHeaderBytes;
  const auto place = [&](Section s, std::uint64_t count, std::uint64_t width) {
    cursor = align8(cursor);
    header.section_offsets[s] = cursor;
    if (count != 0 && width > (kLimit - cursor) / count) return false;
    cursor += count * width;
    return true;
  };
  const bool fits =
      place(kPercentiles, header.percentile_count, 8) && place(kBlockKeys, header.block_count, 4) &&
      place(kBlockAsn, header.block_count, 4) && place(kBlockAggs, header.block_count, agg) &&
      place(kAsKeys, header.as_count, 4) && place(kAsAggs, header.as_count, agg) &&
      place(kMatrixRows, header.matrix_rows, 8) && place(kMatrixCols, header.matrix_cols, 8) &&
      place(kMatrixCells, std::uint64_t{header.matrix_rows} * header.matrix_cols, 8);
  header.file_bytes = align8(cursor);
  return fits;
}

bool parse_header(const unsigned char* data, std::size_t size, Header& out, std::string* error) {
  if (size < kHeaderBytes) return fail(error, "snapshot smaller than its header");
  if (std::memcmp(data + kOffMagic, kMagic.data(), kMagic.size()) != 0) {
    return fail(error, "bad snapshot magic");
  }
  if (read_u32(data + kOffFormatVersion) != kFormatVersion) {
    return fail(error, "unsupported snapshot format version");
  }
  if (read_u32(data + kOffHeaderBytes) != kHeaderBytes) {
    return fail(error, "unexpected header size");
  }
  // Header integrity first: every later field read is trusted only after
  // the header checksum (computed with its own field zeroed) matches.
  {
    std::array<unsigned char, kHeaderBytes> scratch{};
    std::memcpy(scratch.data(), data, kHeaderBytes);
    std::memset(scratch.data() + kOffHeaderCrc, 0, 8);
    if (util::crc64(scratch.data(), scratch.size()) != read_u64(data + kOffHeaderCrc)) {
      return fail(error, "snapshot header checksum mismatch");
    }
  }
  Header header;
  header.file_bytes = read_u64(data + kOffFileBytes);
  header.body_crc64 = read_u64(data + kOffBodyCrc);
  header.header_crc64 = read_u64(data + kOffHeaderCrc);
  header.snapshot_version = read_u64(data + kOffSnapshotVersion);
  header.total_samples = read_u64(data + kOffTotalSamples);
  header.min_block_samples = read_u64(data + kOffMinBlockSamples);
  header.min_as_samples = read_u64(data + kOffMinAsSamples);
  header.min_samples_per_address = read_u64(data + kOffMinSamplesPerAddress);
  header.percentile_count = read_u32(data + kOffPercentileCount);
  header.block_count = read_u32(data + kOffBlockCount);
  header.as_count = read_u32(data + kOffAsCount);
  header.matrix_rows = read_u32(data + kOffMatrixRows);
  header.matrix_cols = read_u32(data + kOffMatrixCols);
  header.flags = read_u32(data + kOffFlags);
  if (header.percentile_count == 0) return fail(error, "snapshot tracks no percentiles");
  const bool has_matrix = (header.flags & kFlagHasMatrix) != 0;
  if (has_matrix != (header.matrix_rows > 0 && header.matrix_cols > 0)) {
    return fail(error, "matrix flag inconsistent with matrix counts");
  }
  // The layout is a pure function of the counts: recompute it and demand
  // the stored offsets match exactly. A header cannot point sections
  // anywhere the counts do not dictate.
  Header planned = header;
  if (!plan_layout(planned)) return fail(error, "header counts overflow the section layout");
  if (planned.file_bytes != header.file_bytes) {
    return fail(error, "file size inconsistent with header counts");
  }
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    if (read_u64(data + kOffSectionOffsets + s * 8) != planned.section_offsets[s]) {
      return fail(error, "section offset inconsistent with header counts");
    }
    header.section_offsets[s] = planned.section_offsets[s];
  }
  if (header.file_bytes != size) {
    return fail(error, "snapshot truncated or padded (file size != header file_bytes)");
  }
  out = header;
  return true;
}

bool View::open(const unsigned char* data, std::size_t size, View& out, std::string* error) {
  TURTLE_CHECK_EQ(reinterpret_cast<std::uintptr_t>(data) % 8, 0u)
      << "snapshot image must be 8-byte aligned";
  Header header;
  if (!parse_header(data, size, header, error)) return false;
  const std::uint64_t crc = util::crc64(data + kHeaderBytes, size - kHeaderBytes);
  if (crc != header.body_crc64) return fail(error, "snapshot body checksum mismatch");
  out.data_ = data;
  out.header_ = header;
  return true;
}

const unsigned char* View::section(Section s) const {
  TURTLE_DCHECK(data_ != nullptr);
  return data_ + header_.section_offsets[s];
}

// The casts below are the format's single audited deserialization point
// (turtlint rule D6): offsets are 8-byte aligned by plan_layout, and the
// image sits in an operator new buffer, which is 16-byte aligned (open()
// checks 8), so every cast target is properly aligned.
std::string_view View::image() const {
  return {reinterpret_cast<const char*>(data_), static_cast<std::size_t>(header_.file_bytes)};
}

std::span<const double> View::percentiles() const {
  return {reinterpret_cast<const double*>(section(kPercentiles)), header_.percentile_count};
}

std::span<const std::uint32_t> View::block_keys() const {
  return {reinterpret_cast<const std::uint32_t*>(section(kBlockKeys)), header_.block_count};
}

std::span<const std::uint32_t> View::block_asn() const {
  return {reinterpret_cast<const std::uint32_t*>(section(kBlockAsn)), header_.block_count};
}

std::span<const std::uint32_t> View::as_keys() const {
  return {reinterpret_cast<const std::uint32_t*>(section(kAsKeys)), header_.as_count};
}

std::uint64_t View::block_samples(std::size_t i) const {
  TURTLE_DCHECK_LT(i, header_.block_count);
  return read_u64(section(kBlockAggs) + i * aggregate_bytes(header_.percentile_count));
}

std::uint64_t View::as_samples(std::size_t i) const {
  TURTLE_DCHECK_LT(i, header_.as_count);
  return read_u64(section(kAsAggs) + i * aggregate_bytes(header_.percentile_count));
}

const unsigned char* View::state_at(Section aggs, std::size_t i, std::size_t p) const {
  TURTLE_DCHECK_LT(p, header_.percentile_count);
  return section(aggs) + i * aggregate_bytes(header_.percentile_count) + 8 +
         p * kQuantileStateBytes;
}

double View::value_at(Section aggs, std::size_t i, std::size_t p) const {
  const unsigned char* state_bytes = state_at(aggs, i, p);
  return core::P2Quantile::frozen_value(
      percentiles()[p] / 100.0, read_u64(state_bytes),
      [state_bytes](std::size_t m) { return read_f64(state_bytes + 8 + m * 8); });
}

core::P2Quantile View::quantile_at(Section aggs, std::size_t i, std::size_t p) const {
  const unsigned char* state_bytes = state_at(aggs, i, p);
  core::P2Quantile::State state;
  state.count = read_u64(state_bytes);
  for (std::size_t m = 0; m < 5; ++m) {
    state.heights[m] = read_f64(state_bytes + 8 + m * 8);
    state.positions[m] = read_f64(state_bytes + 48 + m * 8);
    state.desired[m] = read_f64(state_bytes + 88 + m * 8);
  }
  return core::P2Quantile::restore(percentiles()[p] / 100.0, state);
}

double View::block_value(std::size_t i, std::size_t p) const {
  TURTLE_DCHECK_LT(i, header_.block_count);
  return value_at(kBlockAggs, i, p);
}

double View::as_value(std::size_t i, std::size_t p) const {
  TURTLE_DCHECK_LT(i, header_.as_count);
  return value_at(kAsAggs, i, p);
}

core::P2Quantile View::block_quantile(std::size_t i, std::size_t p) const {
  TURTLE_DCHECK_LT(i, header_.block_count);
  return quantile_at(kBlockAggs, i, p);
}

core::P2Quantile View::as_quantile(std::size_t i, std::size_t p) const {
  TURTLE_DCHECK_LT(i, header_.as_count);
  return quantile_at(kAsAggs, i, p);
}

analysis::TimeoutMatrix View::matrix() const {
  analysis::TimeoutMatrix matrix;
  if ((header_.flags & kFlagHasMatrix) == 0) return matrix;
  const auto* rows = reinterpret_cast<const double*>(section(kMatrixRows));
  const auto* cols = reinterpret_cast<const double*>(section(kMatrixCols));
  const auto* cells = reinterpret_cast<const double*>(section(kMatrixCells));
  matrix.row_percentiles.assign(rows, rows + header_.matrix_rows);
  matrix.col_percentiles.assign(cols, cols + header_.matrix_cols);
  matrix.cells.resize(header_.matrix_rows);
  for (std::size_t r = 0; r < header_.matrix_rows; ++r) {
    matrix.cells[r].assign(cells + r * header_.matrix_cols, cells + (r + 1) * header_.matrix_cols);
  }
  return matrix;
}

Writer::Writer(std::ostream& os, Header header) : os_{os}, header_{header} {
  const bool fits = plan_layout(header_);
  TURTLE_CHECK(fits) << "snapshot counts overflow the section layout";
  const std::string placeholder(kHeaderBytes, '\0');
  os_.write(placeholder.data(), static_cast<std::streamsize>(placeholder.size()));
}

void Writer::pad_to(std::uint64_t offset) {
  TURTLE_CHECK_LE(pos_, offset) << "snapshot writer overran the planned layout";
  static constexpr std::array<char, 8> kZeros{};
  while (pos_ < offset) {
    const auto chunk = static_cast<std::size_t>(std::min<std::uint64_t>(offset - pos_, kZeros.size()));
    put_bytes(kZeros.data(), chunk);
  }
}

void Writer::begin_section(Section s) { pad_to(header_.section_offsets[s]); }

void Writer::put_bytes(const void* data, std::size_t size) {
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  crc_.update(data, size);
  pos_ += size;
}

void Writer::put_u32(std::uint32_t v) { put_bytes(&v, sizeof v); }
void Writer::put_f64(double v) { put_bytes(&v, sizeof v); }

void Writer::finish() {
  TURTLE_CHECK(!finished_) << "Writer::finish called twice";
  finished_ = true;
  pad_to(header_.file_bytes);
  TURTLE_CHECK_EQ(pos_, header_.file_bytes) << "snapshot writer missed the planned file size";
  header_.body_crc64 = crc_.value();

  std::string bytes;
  bytes.reserve(kHeaderBytes);
  bytes.append(kMagic.data(), kMagic.size());
  append_u32(bytes, kFormatVersion);
  append_u32(bytes, kHeaderBytes);
  append_u64(bytes, header_.file_bytes);
  append_u64(bytes, header_.body_crc64);
  append_u64(bytes, 0);  // header_crc64 placeholder, patched below
  append_u64(bytes, header_.snapshot_version);
  append_u64(bytes, header_.total_samples);
  append_u64(bytes, header_.min_block_samples);
  append_u64(bytes, header_.min_as_samples);
  append_u64(bytes, header_.min_samples_per_address);
  append_u32(bytes, header_.percentile_count);
  append_u32(bytes, header_.block_count);
  append_u32(bytes, header_.as_count);
  append_u32(bytes, header_.matrix_rows);
  append_u32(bytes, header_.matrix_cols);
  append_u32(bytes, header_.flags);
  for (const std::uint64_t offset : header_.section_offsets) append_u64(bytes, offset);
  bytes.resize(kHeaderBytes, '\0');
  header_.header_crc64 = util::crc64(bytes.data(), bytes.size());
  std::string crc_bytes;
  append_u64(crc_bytes, header_.header_crc64);
  bytes.replace(kOffHeaderCrc, crc_bytes.size(), crc_bytes);

  os_.seekp(0);
  os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os_.seekp(static_cast<std::streamoff>(header_.file_bytes));
  os_.flush();
  if (!os_) throw std::runtime_error("snapshot write failed");
}

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_aggregate(std::string& out, std::uint64_t samples,
                      std::span<const core::P2Quantile> quantiles) {
  append_u64(out, samples);
  for (const core::P2Quantile& quantile : quantiles) {
    const core::P2Quantile::State state = quantile.state();
    append_u64(out, state.count);
    for (const double h : state.heights) append_f64(out, h);
    for (const double p : state.positions) append_f64(out, p);
    for (const double d : state.desired) append_f64(out, d);
  }
}

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

double read_f64(const unsigned char* p) {
  double v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

double read_f64(const char* p) {
  double v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace turtle::serve::snapshot_format
