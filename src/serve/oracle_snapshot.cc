#include "serve/oracle_snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/recommendations.h"
#include "util/check.h"

namespace turtle::serve {

namespace {

/// Saturating sample-confidence factor: 0 at n = 0, -> 1 as n grows.
double sample_factor(std::uint64_t n) {
  return static_cast<double>(n) / (static_cast<double>(n) + 16.0);
}

/// Index of `key` in the sorted `keys`, if present. The halving step is a
/// conditional move, not a branch: a lookup of a random /24 mispredicts a
/// data-dependent branch at about every other level of the search.
bool find_key(std::span<const std::uint32_t> keys, std::uint32_t key, std::size_t& index) {
  if (keys.empty()) return false;
  const std::uint32_t* base = keys.data();
  for (std::size_t n = keys.size(); n > 1; n -= n / 2) {
    base += base[n / 2] < key ? n / 2 : 0;
  }
  base += *base < key ? 1 : 0;
  if (base == keys.data() + keys.size() || *base != key) return false;
  index = static_cast<std::size_t>(base - keys.data());
  return true;
}

/// Reads exactly `size` bytes at `offset`; false on a read error or an
/// end of file first.
bool read_at(int fd, unsigned char* out, std::size_t size, off_t offset, std::string& why) {
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::pread(fd, out + got, size - got, offset + static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      why = std::strerror(errno);
      return false;
    }
    if (n == 0) {
      why = "short read, " + std::to_string(got) + " of " + std::to_string(size) + " bytes";
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads the regular file at `path` into one buffer sized from fstat, so
/// the snapshot serves private memory that later writes to the file, a
/// truncation or a rename over it cannot reach. The header is checked
/// from a first 256-byte read before any buffer is sized from the file:
/// a 1 TiB sparse file is refused, not allocated.
bool read_image(const std::string& path, std::unique_ptr<unsigned char[]>& image,
                std::size_t& size, std::string& error) {
  const auto fail = [&](const char* what, const std::string& detail) {
    error = std::string{what} + " '" + path + "': " + detail;
    return false;
  };
  // O_NONBLOCK: opening a FIFO must not wait for a writer; the S_ISREG
  // check refuses it. Reads of a regular file ignore the flag.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return fail("open", std::strerror(errno));
  const bool ok = [&] {
    struct stat st{};
    if (::fstat(fd, &st) != 0) return fail("fstat", std::strerror(errno));
    if (!S_ISREG(st.st_mode)) return fail("open", "not a regular file");
    size = static_cast<std::size_t>(st.st_size);
    std::array<unsigned char, snapshot_format::kHeaderBytes> head{};
    snapshot_format::Header header;
    std::string why;
    if (!read_at(fd, head.data(), std::min(size, head.size()), 0, why)) return fail("read", why);
    if (!snapshot_format::parse_header(head.data(), size, header, &error)) return false;
    image = std::make_unique_for_overwrite<unsigned char[]>(size);
    return read_at(fd, image.get(), size, 0, why) || fail("read", why);
  }();
  ::close(fd);
  return ok;
}

}  // namespace

const char* lookup_scope_name(LookupScope scope) {
  switch (scope) {
    case LookupScope::kBlock:
      return "block";
    case LookupScope::kAs:
      return "as";
    case LookupScope::kGlobal:
      return "global";
  }
  TURTLE_UNREACHABLE();
}

// OracleSnapshot::build is defined in snapshot_builder.cc, beside the
// fold and merge it runs.

OracleSnapshot::OracleSnapshot(std::unique_ptr<unsigned char[]> image,
                               const snapshot_format::View& view)
    : image_{std::move(image)}, view_{view}, matrix_{view.matrix()} {}

bool OracleSnapshot::block_index(std::uint32_t network, std::size_t& index) const {
  return find_key(view_.block_keys(), network, index);
}

bool OracleSnapshot::as_index(std::size_t block, std::size_t& index) const {
  const std::uint32_t asn = view_.block_asn()[block];
  return asn != snapshot_format::kNoAsn && find_key(view_.as_keys(), asn, index);
}

LookupResult OracleSnapshot::lookup(net::Ipv4Address addr, double addr_coverage,
                                    double ping_coverage, LookupScope min_scope) const {
  const snapshot_format::Header& header = view_.header();
  const std::size_t p = percentile_index(ping_coverage);
  // One search of the block keys serves both tiers: the AS tier is found
  // through the block's ASN. A tier's value is read only once its pool
  // clears the tier's minimum.
  std::size_t block = 0;
  if (min_scope != LookupScope::kGlobal &&
      block_index(net::Prefix24::containing(addr).network(), block)) {
    if (min_scope == LookupScope::kBlock) {
      const std::uint64_t samples = view_.block_samples(block);
      if (samples >= header.min_block_samples) {
        return LookupResult{
            .timeout = SimTime::from_seconds(view_.block_value(block, p)),
            .scope = LookupScope::kBlock,
            .samples = samples,
            .confidence = 1.0 * sample_factor(samples),
            .version = header.snapshot_version,
        };
      }
    }
    std::size_t as = 0;
    if (as_index(block, as)) {
      const std::uint64_t samples = view_.as_samples(as);
      if (samples >= header.min_as_samples) {
        return LookupResult{
            .timeout = SimTime::from_seconds(view_.as_value(as, p)),
            .scope = LookupScope::kAs,
            .samples = samples,
            .confidence = 0.9 * sample_factor(samples),
            .version = header.snapshot_version,
        };
      }
    }
  }
  LookupResult global{
      .timeout = SimTime{},
      .scope = LookupScope::kGlobal,
      .samples = header.total_samples,
      .confidence = 0.0,
      .version = header.snapshot_version,
  };
  if (has_data()) {
    global.timeout = core::recommend_timeout(matrix_, addr_coverage, ping_coverage);
    global.confidence = 0.75 * sample_factor(header.total_samples);
  }
  return global;
}

std::uint64_t OracleSnapshot::block_samples(net::Ipv4Address addr) const {
  std::size_t index = 0;
  return block_index(net::Prefix24::containing(addr).network(), index)
             ? view_.block_samples(index)
             : 0;
}

void OracleSnapshot::write(const std::string& path) const {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  TURTLE_CHECK(os.is_open()) << "cannot create snapshot file " << path;
  write(os);
}

void OracleSnapshot::write(std::ostream& os) const {
  const std::string_view bytes = view_.image();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) throw std::runtime_error("snapshot write failed");
}

std::shared_ptr<const OracleSnapshot> OracleSnapshot::map(const std::string& path,
                                                          std::string* error,
                                                          obs::Registry* registry) {
  std::unique_ptr<unsigned char[]> image;
  std::size_t size = 0;
  snapshot_format::View view;
  std::string local_error;
  if (!read_image(path, image, size, local_error) ||
      !snapshot_format::View::open(image.get(), size, view, &local_error)) {
    if (error != nullptr) *error = local_error;
    // Tolerant-loading ledger: a refused snapshot is a counted fault
    // observation, mirroring the record loader's detectable-corruption
    // accounting (PR 4), never a silent nullptr.
    if (registry != nullptr) registry->counter("fault.snapshot.load_rejected").inc();
    return nullptr;
  }
  return std::shared_ptr<const OracleSnapshot>{new OracleSnapshot{std::move(image), view}};
}

std::size_t OracleSnapshot::percentile_index(double p) const {
  // Same nearest-percentile clamping core::recommend_timeout uses, so the
  // tiers agree on what "99% ping coverage" means.
  const std::span<const double> percentiles = view_.percentiles();
  std::size_t best = 0;
  double best_dist = std::abs(percentiles[0] - p);
  for (std::size_t i = 1; i < percentiles.size(); ++i) {
    const double d = std::abs(percentiles[i] - p);
    if (d < best_dist) {
      best = i;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace turtle::serve
