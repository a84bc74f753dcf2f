#include "serve/snapshot_builder.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/percentiles.h"
#include "analysis/pipeline.h"
#include "core/p2_quantile.h"
#include "net/ipv4.h"
#include "serve/snapshot_format.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/ordered.h"
#include "util/thread_pool.h"

namespace turtle::serve {

namespace sf = snapshot_format;

namespace {

/// Most shards a plan cuts: pass B holds a RecordWriter, with its 8 KiB
/// block, for each.
constexpr std::size_t kMaxShards = 256;

/// One tier's pooled-ping quantile estimators under construction: P2
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

/// The AS tier: one aggregate per ASN, in key order.
using AsTier = std::map<std::uint32_t, Aggregate>;

/// Folds one report's AS-tier run into its AS's aggregate.
void fold_as_run(AsTier& ases, const std::vector<double>& percentiles, std::uint32_t asn,
                 std::span<const double> rtts_s) {
  auto [it, inserted] = ases.try_emplace(asn);
  if (inserted) it->second = make_aggregate(percentiles);
  for (const double rtt_s : rtts_s) fold(it->second, rtt_s);
}

/// What one shard fold writes, a stream each, for the merge to read back:
/// block keys, block ASNs and frozen block aggregates (each in its
/// section's format), and per-address percentile columns.
enum Part : std::size_t { kKeys = 0, kAsns, kAggs, kMatrix, kPartCount };

struct ShardOutput {
  std::size_t block_count = 0;
  std::uint64_t address_count = 0;  ///< matrix rows the shard wrote
  std::uint64_t total_samples = 0;
  std::string error;  ///< non-empty when the shard fold threw
};

void put(std::ostream& os, const std::string& bytes) {
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t network_of(const analysis::AddressReport& report) {
  return net::Prefix24::containing(report.address).network();
}

void put_u32(std::ostream& os, std::uint32_t v) {
  std::string bytes;
  sf::append_u32(bytes, v);
  put(os, bytes);
}

/// The one fold: runs the filtering pipeline over a shard's grouped
/// dataset, walks the reports in canonical order, and writes the shard's
/// Parts to `parts[part]`. Each report's AS-tier run goes to
/// `as_sink(asn, rtts_s)`, in canonical order, because an AS may span
/// shards.
template <typename Parts, typename AsSink>
ShardOutput fold_shard(const analysis::SurveyDataset& dataset, const SnapshotConfig& config,
                       const hosts::GeoDatabase* geo, Parts& parts, AsSink&& as_sink) {
  ShardOutput out;
  // The pipeline's broadcast and duplicate filters run first, so poisoned
  // responders never reach a tier. Default config, no registry: the
  // serving layer publishes serve.* metrics, not a second copy of
  // pipeline.*.
  const analysis::PipelineResult result =
      analysis::run_pipeline(dataset, analysis::PipelineConfig{});

  // Canonical fold order: reports stable-sorted by /24 network. P2 marker
  // states depend on fold order, so the order is part of the format's
  // determinism contract. Shards are contiguous ascending network ranges,
  // so folding each in this order and concatenating reproduces the
  // one-shard fold exactly. Within a network (and per address) dataset
  // order is kept, which is what "stable" buys.
  std::vector<const analysis::AddressReport*> canonical;
  canonical.reserve(result.addresses.size());
  for (const analysis::AddressReport& report : result.addresses) canonical.push_back(&report);
  std::stable_sort(canonical.begin(), canonical.end(),
                   [](const analysis::AddressReport* a, const analysis::AddressReport* b) {
                     return network_of(*a) < network_of(*b);
                   });

  // One block per run of reports from the same /24.
  std::string buffer;
  for (std::size_t begin = 0, end = 0; begin < canonical.size(); begin = end) {
    const std::uint32_t network = network_of(*canonical[begin]);
    std::uint32_t asn = sf::kNoAsn;
    if (geo != nullptr) {
      if (const hosts::AsTraits* traits = geo->lookup(canonical[begin]->address)) asn = traits->asn;
    }
    Aggregate block = make_aggregate(config.percentiles);
    for (; end < canonical.size() && network_of(*canonical[end]) == network; ++end) {
      const std::vector<double>& rtts_s = canonical[end]->rtts_s;
      for (const double rtt_s : rtts_s) fold(block, rtt_s);
      if (asn != sf::kNoAsn) as_sink(asn, std::span<const double>{rtts_s});
    }
    ++out.block_count;
    out.total_samples += block.samples;
    put_u32(parts[kKeys], network);
    put_u32(parts[kAsns], asn);
    buffer.clear();
    sf::append_aggregate(buffer, block.samples, block.quantiles);
    put(parts[kAggs], buffer);
  }

  // Matrix columns: the shard's per-address percentiles, the first step of
  // the offline Table 2 recipe; the merge runs the second.
  const analysis::PerAddressPercentiles per_address = analysis::PerAddressPercentiles::compute(
      result.addresses, config.percentiles, config.min_samples_per_address);
  for (const std::vector<double>& column : per_address.values) {
    TURTLE_CHECK_EQ(column.size(), per_address.address_count());
    buffer.clear();
    for (const double value : column) sf::append_f64(buffer, value);
    put(parts[kMatrix], buffer);
  }
  out.address_count = per_address.address_count();
  return out;
}

/// Streams the rest of `is` into the writer.
void concat(sf::Writer& writer, std::istream& is) {
  std::vector<char> buffer(64 * 1024);
  while (is) {
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    writer.put_bytes(buffer.data(), got);
  }
}

/// The one merge: writes to `os` the snapshot-v1 image of the shard folds
/// (in shard order) and the folded AS tier, and returns its header. Block
/// sections concatenate the shards' parts (shard ranges ascend, so
/// concatenation is the sorted order). `open(shard, part)` returns that
/// part positioned at its start; the merge reads it to its end before it
/// opens the next.
template <typename OpenPart>
sf::Header merge_shards(std::ostream& os, const SnapshotConfig& config,
                        std::span<const ShardOutput> shards, const AsTier& ases,
                        OpenPart&& open) {
  // The global tier is exactly the offline Table 2 recipe
  // (bench/table2_timeout_matrix.cc): per-address percentiles, then
  // percentile-of-percentiles. Keeping the recipe identical is what makes
  // global lookups equal core::recommend_timeout on the same cells. The
  // columns come in shard order, but the matrix percentiles sort each
  // column first, so the cells do not depend on it.
  analysis::PerAddressPercentiles per_address;
  per_address.percentiles = config.percentiles;
  per_address.values.assign(config.percentiles.size(), {});
  std::uint64_t address_total = 0;
  for (const ShardOutput& shard : shards) address_total += shard.address_count;
  for (std::vector<double>& column : per_address.values) {
    column.reserve(static_cast<std::size_t>(address_total));
  }
  std::vector<char> bytes;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::istream& is = open(i, kMatrix);
    const std::uint64_t count = shards[i].address_count;
    bytes.resize(static_cast<std::size_t>(count) * 8);
    for (std::vector<double>& column : per_address.values) {
      if (count > 0 && !is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
        throw std::runtime_error("snapshot builder: truncated matrix spill");
      }
      for (std::uint64_t a = 0; a < count; ++a) {
        column.push_back(sf::read_f64(bytes.data() + std::size_t{a} * 8));
      }
    }
  }
  analysis::TimeoutMatrix matrix;
  if (per_address.address_count() > 0) {
    matrix = analysis::TimeoutMatrix::compute(per_address, config.percentiles);
  }

  std::size_t block_count = 0;
  sf::Header header;
  for (const ShardOutput& shard : shards) {
    block_count += shard.block_count;
    header.total_samples += shard.total_samples;
  }
  header.snapshot_version = config.version;
  header.min_block_samples = config.min_block_samples;
  header.min_as_samples = config.min_as_samples;
  header.min_samples_per_address = config.min_samples_per_address;
  header.percentile_count = static_cast<std::uint32_t>(config.percentiles.size());
  header.block_count = static_cast<std::uint32_t>(block_count);
  header.as_count = static_cast<std::uint32_t>(ases.size());
  header.matrix_rows = static_cast<std::uint32_t>(matrix.cells.size());
  header.matrix_cols =
      static_cast<std::uint32_t>(matrix.cells.empty() ? 0 : matrix.cells.front().size());
  if (header.matrix_rows > 0 && header.matrix_cols > 0) header.flags |= sf::kFlagHasMatrix;

  sf::Writer writer{os, header};
  writer.begin_section(sf::kPercentiles);
  for (const double p : config.percentiles) writer.put_f64(p);
  for (const auto& [section, part] : {std::pair{sf::kBlockKeys, kKeys},
                                      std::pair{sf::kBlockAsn, kAsns},
                                      std::pair{sf::kBlockAggs, kAggs}}) {
    writer.begin_section(section);
    for (std::size_t i = 0; i < shards.size(); ++i) concat(writer, open(i, part));
  }
  writer.begin_section(sf::kAsKeys);
  for (const auto& [asn, aggregate] : ases) writer.put_u32(asn);
  writer.begin_section(sf::kAsAggs);
  std::string buffer;
  for (const auto& [asn, aggregate] : ases) {
    buffer.clear();
    sf::append_aggregate(buffer, aggregate.samples, aggregate.quantiles);
    writer.put_bytes(buffer.data(), buffer.size());
  }
  writer.begin_section(sf::kMatrixRows);
  for (const double r : matrix.row_percentiles) writer.put_f64(r);
  writer.begin_section(sf::kMatrixCols);
  for (const double c : matrix.col_percentiles) writer.put_f64(c);
  writer.begin_section(sf::kMatrixCells);
  for (const std::vector<double>& row : matrix.cells) {
    for (const double cell : row) writer.put_f64(cell);
  }
  writer.finish();
  return writer.header();
}

/// Pass A's tally of one /24 network: its records, and which of its
/// addresses answered (analysis::answered), by last octet.
struct NetworkTally {
  std::uint64_t records = 0;
  std::bitset<256> answered;
};

/// Contiguous ascending /24 range assigned to one shard.
struct ShardRange {
  std::uint32_t first_network = 0;
  std::uint64_t records = 0;
};

struct SpillPaths {
  std::string records, as_run;
  std::array<std::string, kPartCount> parts;  ///< indexed by Part
};

SpillPaths spill_paths(const std::string& prefix, std::size_t shard) {
  const std::string base = prefix + "shard" + std::to_string(shard);
  return SpillPaths{base + ".rec", base + ".asrun",
                    {base + ".key", base + ".asn", base + ".agg", base + ".mat"}};
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os.is_open()) throw std::runtime_error("snapshot builder: cannot create " + path);
  return os;
}

void flush_spill(std::ofstream& os) {
  if (!os.flush()) throw std::runtime_error("snapshot builder: shard spill write failed");
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is.is_open()) throw std::runtime_error("snapshot builder: cannot open " + path);
  return is;
}

void remove_spills(const SpillPaths& paths) {
  std::remove(paths.records.c_str());
  std::remove(paths.as_run.c_str());
  for (const std::string& part : paths.parts) std::remove(part.c_str());
}

/// Removes every shard's spill files when the build ends, whether it
/// returns or throws.
class SpillCleanup {
 public:
  explicit SpillCleanup(const std::vector<SpillPaths>& paths) : paths_{paths} {}
  ~SpillCleanup() {
    for (const SpillPaths& path : paths_) remove_spills(path);
  }
  SpillCleanup(const SpillCleanup&) = delete;
  SpillCleanup& operator=(const SpillCleanup&) = delete;

 private:
  const std::vector<SpillPaths>& paths_;
};

/// Pass C for one shard: groups its record spill and folds it into its
/// part spills, spilling the AS-tier runs for pass D to replay.
ShardOutput fold_spill(const SpillPaths& paths, const BuilderConfig& config) {
  // Grouping reads the spill twice, a block at a time, through the same
  // tolerant reader RecordLog::load uses: the shard's records are never
  // in memory, only its dataset.
  const analysis::SurveyDataset dataset =
      analysis::SurveyDataset::from_records([&paths](const auto& visit) {
        std::ifstream is = open_in(paths.records);
        probe::RecordReader reader{is};
        probe::SurveyRecord record;
        while (reader.next(record)) visit(record);
      });
  std::array<std::ofstream, kPartCount> parts;
  for (std::size_t part = 0; part < kPartCount; ++part) parts[part] = open_out(paths.parts[part]);
  std::ofstream as_run_os = open_out(paths.as_run);
  std::string buffer;
  const ShardOutput out = fold_shard(
      dataset, config.snapshot, config.geo, parts,
      [&](std::uint32_t asn, std::span<const double> rtts_s) {
        // (asn, n, n RTTs): pass D replays these shard after shard, which
        // is the sequence the one-shard fold hands its sink.
        buffer.clear();
        sf::append_u32(buffer, asn);
        sf::append_u32(buffer, static_cast<std::uint32_t>(rtts_s.size()));
        for (const double rtt_s : rtts_s) sf::append_f64(buffer, rtt_s);
        put(as_run_os, buffer);
      });
  for (std::ofstream& os : parts) flush_spill(os);
  flush_spill(as_run_os);
  return out;
}

}  // namespace

BuildLedger build_snapshot_file(const std::string& log_path, const std::string& out_path,
                                const BuilderConfig& config) {
  TURTLE_CHECK(!config.snapshot.percentiles.empty()) << "snapshot needs at least one percentile";
  const std::string prefix =
      config.temp_prefix.empty() ? out_path + ".tmp." : config.temp_prefix;

  BuildLedger ledger;

  // Pass A: one streaming scan — records per /24 network, the addresses
  // that answered, tolerant-loader accounting. Memory: one tally per
  // distinct block (a counter and a 256-bit mask), same order as the final
  // index itself. The tallies go into a hash map, one lookup per record;
  // the plan sorts them by network once.
  std::unordered_map<std::uint32_t, NetworkTally> networks;
  {
    std::ifstream is = open_in(log_path);
    is.seekg(0, std::ios_base::end);
    ledger.log_bytes = static_cast<std::uint64_t>(is.tellg());
    is.seekg(0);
    probe::RecordReader reader{is};
    probe::SurveyRecord record;
    while (reader.next(record)) {
      NetworkTally& tally = networks[net::Prefix24::containing(record.address).network()];
      ++tally.records;
      if (analysis::answered(record.type)) tally.answered.set(record.address.last_octet());
    }
    const probe::RecordLog::LoadStats& stats = reader.stats();
    ledger.records_in = stats.records_loaded + stats.records_skipped + stats.records_truncated;
    ledger.records_folded = stats.records_loaded;
    ledger.records_skipped = stats.records_skipped + stats.records_truncated;
  }

  // Shard plan: cut the ascending network space greedily so each shard
  // holds ~shard_budget_bytes of log. A pure function of the log and the
  // budget — the same plan at --jobs 1 and --jobs 8.
  const std::uint64_t record_bytes =
      ledger.records_folded * probe::RecordLog::kRecordBytes;
  const std::uint64_t budget = std::max<std::uint64_t>(config.shard_budget_bytes, 1);
  std::size_t target_shards = static_cast<std::size_t>((record_bytes + budget - 1) / budget);
  target_shards = std::clamp<std::size_t>(target_shards, 1, kMaxShards);
  const std::uint64_t per_shard_records =
      std::max<std::uint64_t>((ledger.records_folded + target_shards - 1) / target_shards, 1);

  std::vector<ShardRange> shards;
  {
    ShardRange current;
    bool open = false;
    for (const auto& [network, tally] : util::ordered(networks)) {
      if (!open) {
        current = ShardRange{network, 0};
        open = true;
      }
      current.records += tally.records;
      if (current.records >= per_shard_records) {
        shards.push_back(current);
        open = false;
      }
    }
    if (open || shards.empty()) {
      if (!open) current = ShardRange{0, 0};
      shards.push_back(current);
    }
  }
  ledger.shards = shards.size();

  std::vector<SpillPaths> paths;
  paths.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) paths.push_back(spill_paths(prefix, i));
  const SpillCleanup cleanup{paths};

  // Pass B: partition the log into per-shard record spills, streaming. A
  // record of an address that never answered is not spilled: grouping
  // would leave it out of the shard's dataset anyway. Its /24 still counted
  // in the plan, so a shard may spill no record at all.
  {
    std::vector<std::ofstream> streams;
    std::vector<probe::RecordWriter> writers;
    streams.reserve(shards.size());
    writers.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      streams.push_back(open_out(paths[i].records));
      writers.emplace_back(streams.back());
    }
    std::vector<std::uint32_t> firsts;
    firsts.reserve(shards.size());
    for (const ShardRange& shard : shards) firsts.push_back(shard.first_network);

    std::ifstream is = open_in(log_path);
    probe::RecordReader reader{is};
    probe::SurveyRecord record;
    while (reader.next(record)) {
      const std::uint32_t network = net::Prefix24::containing(record.address).network();
      const auto tally = networks.find(network);
      if (tally == networks.end()) {
        throw std::runtime_error("snapshot builder: record log changed between passes");
      }
      if (!tally->second.answered.test(record.address.last_octet())) continue;
      const auto it = std::upper_bound(firsts.begin(), firsts.end(), network);
      const auto shard = static_cast<std::size_t>(it == firsts.begin() ? 0 : (it - firsts.begin() - 1));
      writers[shard].append(record);
    }
    for (probe::RecordWriter& writer : writers) {
      writer.finish();
      ledger.records_spilled += writer.written();
    }
  }

  // Pass C: fold shards in parallel. Shards share nothing; outputs land
  // in per-shard slots, so scheduling order cannot affect the file.
  std::vector<ShardOutput> outputs(shards.size());
  {
    util::ThreadPool pool{std::max<std::size_t>(config.jobs, 1)};
    util::BlockingCounter done{shards.size()};
    for (std::size_t i = 0; i < shards.size(); ++i) {
      pool.submit([&, i] {
        try {
          outputs[i] = fold_spill(paths[i], config);
        } catch (const std::exception& e) {
          outputs[i].error = e.what();
        }
        done.count_down();
      });
    }
    done.wait();
  }
  for (const ShardOutput& output : outputs) {
    if (!output.error.empty()) {
      throw std::runtime_error("snapshot builder: shard fold failed: " + output.error);
    }
  }

  // Pass D: replay the AS runs shard by shard through the per-AS fold the
  // in-memory build runs inline. P2 states cannot be merged, but replaying
  // the canonical sequence reproduces them exactly. Memory: one aggregate
  // per distinct AS.
  AsTier ases;
  {
    std::array<char, 8> head{};
    std::vector<char> bytes;
    std::vector<double> rtts_s;
    for (const SpillPaths& path : paths) {
      std::ifstream is = open_in(path.as_run);
      while (is.read(head.data(), head.size())) {
        rtts_s.resize(sf::read_u32(head.data() + 4));
        bytes.resize(rtts_s.size() * 8);
        if (!is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
          throw std::runtime_error("snapshot builder: truncated AS spill");
        }
        for (std::size_t s = 0; s < rtts_s.size(); ++s) rtts_s[s] = sf::read_f64(&bytes[s * 8]);
        fold_as_run(ases, config.snapshot.percentiles, sf::read_u32(head.data()), rtts_s);
      }
    }
  }

  // Pass D, merge: straight from the shards' part spills into the file.
  {
    std::ofstream os = open_out(out_path);
    std::ifstream part_is;
    const sf::Header header = merge_shards(
        os, config.snapshot, outputs, ases, [&](std::size_t shard, Part part) -> std::istream& {
          part_is = open_in(paths[shard].parts[part]);
          return part_is;
        });
    ledger.total_samples = header.total_samples;
    ledger.block_count = header.block_count;
    ledger.as_count = header.as_count;
  }

  if (config.registry != nullptr) {
    obs::Registry& registry = *config.registry;
    registry.counter("snapshot.build.records_in").inc(ledger.records_in);
    registry.counter("snapshot.build.records_folded").inc(ledger.records_folded);
    registry.counter("snapshot.build.records_skipped").inc(ledger.records_skipped);
    registry.gauge("snapshot.blocks").set_max(static_cast<std::int64_t>(ledger.block_count));
    registry.gauge("snapshot.ases").set_max(static_cast<std::int64_t>(ledger.as_count));
    registry.gauge("snapshot.total_samples")
        .set_max(static_cast<std::int64_t>(ledger.total_samples));
    registry.gauge("snapshot.shards").set_max(static_cast<std::int64_t>(ledger.shards));
  }
  return ledger;
}

// Declared in oracle_snapshot.h; defined here, beside the fold and merge
// it runs.
OracleSnapshot OracleSnapshot::build(const probe::RecordLog& log, SnapshotConfig config,
                                     const hosts::GeoDatabase* geo) {
  TURTLE_CHECK(!config.percentiles.empty()) << "snapshot needs at least one percentile";
  // The whole log is one shard, its parts held in memory. With one shard
  // there is no run to replay, so the sink folds each AS run straight into
  // the AS tier.
  std::array<std::stringstream, kPartCount> parts;
  AsTier ases;
  const ShardOutput shard = fold_shard(
      analysis::SurveyDataset::from_log(log), config, geo, parts,
      [&](std::uint32_t asn, std::span<const double> rtts_s) {
        fold_as_run(ases, config.percentiles, asn, rtts_s);
      });
  std::ostringstream os;
  merge_shards(os, config, std::span<const ShardOutput>{&shard, 1}, ases,
               [&parts](std::size_t, Part part) -> std::istream& { return parts[part]; });

  const std::string bytes = std::move(os).str();
  auto image = std::make_unique_for_overwrite<unsigned char[]>(bytes.size());
  std::memcpy(image.get(), bytes.data(), bytes.size());
  sf::View view;
  std::string error;
  const bool valid = sf::View::open(image.get(), bytes.size(), view, &error);
  TURTLE_CHECK(valid) << error;
  return OracleSnapshot{std::move(image), view};
}

}  // namespace turtle::serve
