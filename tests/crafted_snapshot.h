// A hostile snapshot-v1 file for the loaders' tests: a 256-byte header
// with valid checksums whose counts (P = 1, B = A = 0, R = 2^31-1,
// C = 2^30-1) make an unchecked 64-bit layout sum wrap to exactly 256
// bytes. A loader that trusts the wrapped layout tries to materialize a
// 16 GiB matrix.
#pragma once

#include <cstdint>
#include <string>

#include "serve/snapshot_format.h"
#include "util/crc64.h"

namespace turtle::test {

inline std::string crafted_wrapping_snapshot() {
  namespace sf = serve::snapshot_format;
  constexpr std::uint64_t kRows = (std::uint64_t{1} << 31) - 1;
  constexpr std::uint64_t kCols = (std::uint64_t{1} << 30) - 1;
  // Offsets as unchecked uint64 arithmetic places them: one percentile
  // (256..264), four empty block/AS sections, then the matrix sections.
  constexpr std::uint64_t kRowsAt = sf::kHeaderBytes + 8;
  constexpr std::uint64_t kColsAt = kRowsAt + kRows * 8;
  constexpr std::uint64_t kCellsAt = kColsAt + kCols * 8;
  constexpr std::uint64_t kFileBytes = kCellsAt + kRows * kCols * 8;  // wraps
  static_assert(kFileBytes == sf::kHeaderBytes);

  std::string image{sf::kMagic.data(), sf::kMagic.size()};
  sf::append_u32(image, sf::kFormatVersion);
  sf::append_u32(image, sf::kHeaderBytes);
  sf::append_u64(image, kFileBytes);
  sf::append_u64(image, util::crc64(image.data(), 0));  // empty body
  sf::append_u64(image, 0);                             // header CRC, patched below
  sf::append_u64(image, 41);                            // snapshot version
  for (int field = 0; field < 4; ++field) sf::append_u64(image, 0);  // samples, minimums
  sf::append_u32(image, 1);                             // percentiles
  sf::append_u32(image, 0);                             // blocks
  sf::append_u32(image, 0);                             // ASes
  sf::append_u32(image, static_cast<std::uint32_t>(kRows));
  sf::append_u32(image, static_cast<std::uint32_t>(kCols));
  sf::append_u32(image, sf::kFlagHasMatrix);
  for (const std::uint64_t offset :
       {std::uint64_t{sf::kHeaderBytes}, kRowsAt, kRowsAt, kRowsAt, kRowsAt, kRowsAt, kRowsAt,
        kColsAt, kCellsAt}) {
    sf::append_u64(image, offset);
  }
  image.resize(sf::kHeaderBytes, '\0');
  std::string header_crc;
  sf::append_u64(header_crc, util::crc64(image.data(), image.size()));
  image.replace(32, header_crc.size(), header_crc);
  return image;
}

}  // namespace turtle::test
