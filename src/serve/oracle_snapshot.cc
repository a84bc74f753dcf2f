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
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/pipeline.h"
#include "core/p2_quantile.h"
#include "core/recommendations.h"
#include "util/check.h"
#include "util/ordered.h"

namespace turtle::serve {

namespace {

/// Saturating sample-confidence factor: 0 at n = 0, -> 1 as n grows.
double sample_factor(std::uint64_t n) {
  return static_cast<double>(n) / (static_cast<double>(n) + 16.0);
}

/// One tier's pooled-ping quantile estimators while build() folds: P2
/// markers per configured percentile plus the pool size.
struct Aggregate {
  std::vector<core::P2Quantile> quantiles;
  std::uint64_t samples = 0;
};

Aggregate make_aggregate(const std::vector<double>& percentiles) {
  Aggregate aggregate;
  aggregate.quantiles.reserve(percentiles.size());
  for (const double p : percentiles) aggregate.quantiles.emplace_back(p / 100.0);
  return aggregate;
}

void fold(Aggregate& aggregate, double rtt_s) {
  for (core::P2Quantile& quantile : aggregate.quantiles) quantile.add(rtt_s);
  ++aggregate.samples;
}

/// What build() folds the survey into, before it becomes an image.
struct Tiers {
  std::unordered_map<std::uint32_t, std::size_t> block_index;  // /24 network -> blocks
  std::vector<Aggregate> blocks;
  std::unordered_map<std::uint32_t, std::size_t> as_index;  // asn -> ases
  std::vector<Aggregate> ases;
  std::unordered_map<std::uint32_t, std::uint32_t> block_asn;  // /24 network -> asn
  analysis::TimeoutMatrix matrix;
  std::uint64_t total_samples = 0;
};

/// Serializes folded tiers to the snapshot-v1 format.
void write_image(std::ostream& os, const SnapshotConfig& config, const Tiers& tiers) {
  namespace sf = snapshot_format;
  sf::Header header;
  header.snapshot_version = config.version;
  header.total_samples = tiers.total_samples;
  header.min_block_samples = config.min_block_samples;
  header.min_as_samples = config.min_as_samples;
  header.min_samples_per_address = config.min_samples_per_address;
  header.percentile_count = static_cast<std::uint32_t>(config.percentiles.size());
  header.block_count = static_cast<std::uint32_t>(tiers.blocks.size());
  header.as_count = static_cast<std::uint32_t>(tiers.ases.size());
  header.matrix_rows = static_cast<std::uint32_t>(tiers.matrix.cells.size());
  header.matrix_cols = static_cast<std::uint32_t>(
      tiers.matrix.cells.empty() ? 0 : tiers.matrix.cells.front().size());
  if (header.matrix_rows > 0 && header.matrix_cols > 0) header.flags |= sf::kFlagHasMatrix;

  sf::Writer writer{os, header};
  writer.begin_section(sf::kPercentiles);
  for (const double p : config.percentiles) writer.put_f64(p);

  // Key-sorted iteration (util::ordered_keys) is what makes the file a
  // pure function of the logical content, not of hash-table history.
  const std::vector<std::uint32_t> networks = util::ordered_keys(tiers.block_index);
  writer.begin_section(sf::kBlockKeys);
  for (const std::uint32_t network : networks) writer.put_u32(network);
  writer.begin_section(sf::kBlockAsn);
  for (const std::uint32_t network : networks) {
    const auto it = tiers.block_asn.find(network);
    writer.put_u32(it == tiers.block_asn.end() ? sf::kNoAsn : it->second);
  }
  writer.begin_section(sf::kBlockAggs);
  for (const std::uint32_t network : networks) {
    const Aggregate& aggregate = tiers.blocks[tiers.block_index.at(network)];
    writer.put_aggregate(aggregate.samples, aggregate.quantiles);
  }

  const std::vector<std::uint32_t> asns = util::ordered_keys(tiers.as_index);
  writer.begin_section(sf::kAsKeys);
  for (const std::uint32_t asn : asns) writer.put_u32(asn);
  writer.begin_section(sf::kAsAggs);
  for (const std::uint32_t asn : asns) {
    const Aggregate& aggregate = tiers.ases[tiers.as_index.at(asn)];
    writer.put_aggregate(aggregate.samples, aggregate.quantiles);
  }

  writer.begin_section(sf::kMatrixRows);
  for (const double r : tiers.matrix.row_percentiles) writer.put_f64(r);
  writer.begin_section(sf::kMatrixCols);
  for (const double c : tiers.matrix.col_percentiles) writer.put_f64(c);
  writer.begin_section(sf::kMatrixCells);
  for (const std::vector<double>& row : tiers.matrix.cells) {
    for (const double cell : row) writer.put_f64(cell);
  }
  writer.finish();
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

OracleSnapshot OracleSnapshot::build(const analysis::SurveyDataset& dataset,
                                     SnapshotConfig config, const hosts::GeoDatabase* geo) {
  TURTLE_CHECK(!config.percentiles.empty()) << "snapshot needs at least one percentile";
  Tiers tiers;

  // Run the paper's filtering pipeline first so broadcast and duplicate
  // responders never poison a tier's quantiles. No registry: the serving
  // layer publishes serve.* metrics, not a second copy of pipeline.*.
  analysis::PipelineConfig pipeline_config;
  const analysis::PipelineResult result = analysis::run_pipeline(dataset, pipeline_config);

  // Canonical fold order: reports stable-sorted by /24 network. P2 marker
  // states depend on fold order, so the order is part of the format's
  // determinism contract — the streaming builder partitions the address
  // space into contiguous network ranges, folds each shard in this same
  // order, and concatenates, reproducing these exact marker states. Within
  // a network (and per address) the original dataset order is preserved on
  // both paths, which is what "stable" buys.
  std::vector<const analysis::AddressReport*> canonical;
  canonical.reserve(result.addresses.size());
  for (const analysis::AddressReport& report : result.addresses) canonical.push_back(&report);
  std::stable_sort(canonical.begin(), canonical.end(),
                   [](const analysis::AddressReport* a, const analysis::AddressReport* b) {
                     return net::Prefix24::containing(a->address).network() <
                            net::Prefix24::containing(b->address).network();
                   });

  for (const analysis::AddressReport* report_ptr : canonical) {
    const analysis::AddressReport& report = *report_ptr;
    const std::uint32_t network = net::Prefix24::containing(report.address).network();
    auto [block_it, inserted] = tiers.block_index.try_emplace(network, tiers.blocks.size());
    if (inserted) {
      tiers.blocks.push_back(make_aggregate(config.percentiles));
      if (geo != nullptr) {
        if (const hosts::AsTraits* traits = geo->lookup(report.address); traits != nullptr) {
          tiers.block_asn.emplace(network, traits->asn);
          auto [as_it, as_inserted] = tiers.as_index.try_emplace(traits->asn, tiers.ases.size());
          if (as_inserted) tiers.ases.push_back(make_aggregate(config.percentiles));
        }
      }
    }
    Aggregate& block = tiers.blocks[tiers.block_index.at(network)];
    Aggregate* as_aggregate = nullptr;
    if (const auto asn_it = tiers.block_asn.find(network); asn_it != tiers.block_asn.end()) {
      as_aggregate = &tiers.ases[tiers.as_index.at(asn_it->second)];
    }
    for (const double rtt_s : report.rtts_s) {
      fold(block, rtt_s);
      if (as_aggregate != nullptr) fold(*as_aggregate, rtt_s);
      ++tiers.total_samples;
    }
  }

  // The global tier is exactly the offline Table 2 recipe
  // (bench/table2_timeout_matrix.cc): per-address percentiles, then
  // percentile-of-percentiles. Keeping the recipe identical is what makes
  // global lookups equal core::recommend_timeout on the same cells.
  const analysis::PerAddressPercentiles per_address = analysis::PerAddressPercentiles::compute(
      result.addresses, config.percentiles, config.min_samples_per_address);
  if (per_address.address_count() > 0) {
    tiers.matrix = analysis::TimeoutMatrix::compute(per_address, config.percentiles);
  }

  std::ostringstream os;
  write_image(os, config, tiers);
  const std::string bytes = std::move(os).str();
  auto image = std::make_unique_for_overwrite<unsigned char[]>(bytes.size());
  std::memcpy(image.get(), bytes.data(), bytes.size());
  snapshot_format::View view;
  std::string error;
  const bool valid = snapshot_format::View::open(image.get(), bytes.size(), view, &error);
  TURTLE_CHECK(valid) << error;
  return OracleSnapshot{std::move(image), view};
}

OracleSnapshot OracleSnapshot::build(const probe::RecordLog& log, SnapshotConfig config,
                                     const hosts::GeoDatabase* geo) {
  return build(analysis::SurveyDataset::from_log(log), std::move(config), geo);
}

OracleSnapshot::OracleSnapshot(std::unique_ptr<unsigned char[]> image,
                               const snapshot_format::View& view)
    : image_{std::move(image)}, view_{view}, matrix_{view.matrix()} {}

bool OracleSnapshot::block_index(std::uint32_t network, std::size_t& index) const {
  const std::span<const std::uint32_t> keys = view_.block_keys();
  const auto it = std::lower_bound(keys.begin(), keys.end(), network);
  if (it == keys.end() || *it != network) return false;
  index = static_cast<std::size_t>(it - keys.begin());
  return true;
}

bool OracleSnapshot::probe_block(std::uint32_t network, std::size_t p, std::uint64_t& samples,
                                 double& value) const {
  std::size_t index = 0;
  if (!block_index(network, index)) return false;
  samples = view_.block_samples(index);
  value = view_.block_quantile(index, p).value();
  return true;
}

bool OracleSnapshot::probe_as(std::uint32_t network, std::size_t p, std::uint64_t& samples,
                              double& value) const {
  std::size_t block = 0;
  if (!block_index(network, block)) return false;
  const std::uint32_t asn = view_.block_asn()[block];
  if (asn == snapshot_format::kNoAsn) return false;
  const std::span<const std::uint32_t> keys = view_.as_keys();
  const auto it = std::lower_bound(keys.begin(), keys.end(), asn);
  if (it == keys.end() || *it != asn) return false;
  const auto index = static_cast<std::size_t>(it - keys.begin());
  samples = view_.as_samples(index);
  value = view_.as_quantile(index, p).value();
  return true;
}

LookupResult OracleSnapshot::lookup(net::Ipv4Address addr, double addr_coverage,
                                    double ping_coverage, LookupScope min_scope) const {
  const std::uint32_t network = net::Prefix24::containing(addr).network();
  const std::size_t p = percentile_index(ping_coverage);

  const snapshot_format::Header& header = view_.header();
  std::uint64_t samples = 0;
  double value = 0.0;
  if (min_scope == LookupScope::kBlock && probe_block(network, p, samples, value) &&
      samples >= header.min_block_samples) {
    return LookupResult{
        .timeout = SimTime::from_seconds(value),
        .scope = LookupScope::kBlock,
        .samples = samples,
        .confidence = 1.0 * sample_factor(samples),
        .version = header.snapshot_version,
    };
  }
  if (min_scope != LookupScope::kGlobal && probe_as(network, p, samples, value) &&
      samples >= header.min_as_samples) {
    return LookupResult{
        .timeout = SimTime::from_seconds(value),
        .scope = LookupScope::kAs,
        .samples = samples,
        .confidence = 0.9 * sample_factor(samples),
        .version = header.snapshot_version,
    };
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
