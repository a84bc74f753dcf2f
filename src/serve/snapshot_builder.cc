#include "serve/snapshot_builder.h"

#include <algorithm>
#include <bitset>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
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

/// One tier aggregate under construction: the same estimator-per-
/// percentile shape OracleSnapshot folds, rebuilt here because the
/// builder freezes aggregates to spill files instead of keeping them.
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

struct ShardOutput {
  std::size_t block_count = 0;
  std::uint64_t address_count = 0;  ///< matrix rows the shard spilled
  std::uint64_t total_samples = 0;
  std::string error;  ///< non-empty when the shard fold threw
};

struct SpillPaths {
  std::string records, keys, asns, aggs, as_run, matrix;
};

SpillPaths spill_paths(const std::string& prefix, std::size_t shard) {
  const std::string base = prefix + "shard" + std::to_string(shard);
  return SpillPaths{base + ".rec", base + ".key", base + ".asn",
                    base + ".agg", base + ".asrun", base + ".mat"};
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os.is_open()) throw std::runtime_error("snapshot builder: cannot create " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is.is_open()) throw std::runtime_error("snapshot builder: cannot open " + path);
  return is;
}

void remove_spills(const SpillPaths& paths) {
  for (const std::string* path :
       {&paths.records, &paths.keys, &paths.asns, &paths.aggs, &paths.as_run, &paths.matrix}) {
    std::remove(path->c_str());
  }
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

/// Streams a whole spill file into the writer (used for the block
/// sections, whose global sorted order is exactly shard-concatenation).
void concat_file(sf::Writer& writer, const std::string& path) {
  std::ifstream is = open_in(path);
  std::vector<char> buffer(64 * 1024);
  while (is) {
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    writer.put_bytes(buffer.data(), got);
  }
}

/// Folds one shard: group the shard's records, run the filtering
/// pipeline, walk reports in the canonical network order, freeze block
/// aggregates, and spill the AS-tier RTT run plus the matrix columns.
ShardOutput fold_shard(const SpillPaths& paths, const BuilderConfig& config) {
  ShardOutput out;
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
  analysis::PipelineConfig pipeline_config;  // defaults, same as OracleSnapshot::build
  const analysis::PipelineResult result = analysis::run_pipeline(dataset, pipeline_config);

  // Canonical fold order (see OracleSnapshot::build): stable sort by /24.
  std::vector<const analysis::AddressReport*> canonical;
  canonical.reserve(result.addresses.size());
  for (const analysis::AddressReport& report : result.addresses) canonical.push_back(&report);
  std::stable_sort(canonical.begin(), canonical.end(),
                   [](const analysis::AddressReport* a, const analysis::AddressReport* b) {
                     return net::Prefix24::containing(a->address).network() <
                            net::Prefix24::containing(b->address).network();
                   });

  std::ofstream keys_os = open_out(paths.keys);
  std::ofstream asns_os = open_out(paths.asns);
  std::ofstream aggs_os = open_out(paths.aggs);
  std::ofstream as_run_os = open_out(paths.as_run);

  Aggregate block = make_aggregate(config.snapshot.percentiles);
  std::uint32_t block_network = 0;
  std::uint32_t block_asn = sf::kNoAsn;
  bool block_open = false;
  std::string buffer;
  const auto flush_block = [&] {
    if (!block_open) return;
    buffer.clear();
    sf::append_u32(buffer, block_network);
    keys_os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
    sf::append_u32(buffer, block_asn);
    asns_os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
    sf::append_aggregate(buffer, block.samples, block.quantiles);
    aggs_os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    ++out.block_count;
    block = make_aggregate(config.snapshot.percentiles);
    block_open = false;
  };

  for (const analysis::AddressReport* report : canonical) {
    const std::uint32_t network = net::Prefix24::containing(report->address).network();
    if (!block_open || network != block_network) {
      flush_block();
      block_open = true;
      block_network = network;
      block_asn = sf::kNoAsn;
      if (config.geo != nullptr) {
        if (const hosts::AsTraits* traits = config.geo->lookup(report->address);
            traits != nullptr) {
          block_asn = traits->asn;
        }
      }
    }
    for (const double rtt_s : report->rtts_s) {
      fold(block, rtt_s);
      ++out.total_samples;
    }
    if (block_asn != sf::kNoAsn && !report->rtts_s.empty()) {
      // The AS-tier fold sequence: (asn, this report's RTTs) entries in
      // canonical order. The merge replays them shard after shard, which
      // is exactly the sequence OracleSnapshot::build folds.
      buffer.clear();
      sf::append_u32(buffer, block_asn);
      sf::append_u32(buffer, static_cast<std::uint32_t>(report->rtts_s.size()));
      for (const double rtt_s : report->rtts_s) sf::append_f64(buffer, rtt_s);
      as_run_os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    }
  }
  flush_block();

  // Matrix columns: per-address percentile values. Column order across
  // shards differs from the in-memory build's dataset order, but the
  // matrix percentiles sort each column first, so the cells are bitwise
  // identical either way.
  const analysis::PerAddressPercentiles per_address = analysis::PerAddressPercentiles::compute(
      result.addresses, config.snapshot.percentiles, config.snapshot.min_samples_per_address);
  {
    std::ofstream matrix_os = open_out(paths.matrix);
    buffer.clear();
    sf::append_u64(buffer, per_address.address_count());
    for (const std::vector<double>& column : per_address.values) {
      TURTLE_CHECK_EQ(column.size(), per_address.address_count());
      for (const double value : column) sf::append_f64(buffer, value);
    }
    matrix_os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    if (!matrix_os) throw std::runtime_error("snapshot builder: matrix spill write failed");
  }
  out.address_count = per_address.address_count();

  for (std::ofstream* os : {&keys_os, &asns_os, &aggs_os, &as_run_os}) {
    os->flush();
    if (!*os) throw std::runtime_error("snapshot builder: shard spill write failed");
  }
  return out;
}

}  // namespace

BuildLedger build_snapshot_file(const std::string& log_path, const std::string& out_path,
                                const BuilderConfig& config) {
  TURTLE_CHECK(!config.snapshot.percentiles.empty()) << "snapshot needs at least one percentile";
  TURTLE_CHECK_GT(config.max_shards, 0u);
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
  target_shards = std::clamp<std::size_t>(target_shards, 1, config.max_shards);
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
          outputs[i] = fold_shard(paths[i], config);
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

  // Pass D, AS replay: P2 states cannot be merged, so replay the spilled
  // canonical RTT sequence shard by shard. Memory: one aggregate per
  // distinct AS (std::map for deterministic key order).
  std::map<std::uint32_t, Aggregate> ases;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::ifstream is = open_in(paths[i].as_run);
    std::vector<char> head(8);
    std::vector<char> rtts;
    while (is.read(head.data(), 8)) {
      const std::uint32_t asn = sf::read_u32(head.data());
      const std::uint32_t n = sf::read_u32(head.data() + 4);
      rtts.resize(std::size_t{n} * 8);
      if (!is.read(rtts.data(), static_cast<std::streamsize>(rtts.size()))) {
        throw std::runtime_error("snapshot builder: truncated AS spill");
      }
      auto [it, inserted] = ases.try_emplace(asn, Aggregate{});
      if (inserted) it->second = make_aggregate(config.snapshot.percentiles);
      for (std::uint32_t s = 0; s < n; ++s) {
        fold(it->second, sf::read_f64(rtts.data() + std::size_t{s} * 8));
      }
    }
  }

  // Pass D, matrix: concatenate the per-shard percentile columns and run
  // the same Table 2 recipe as the in-memory build.
  analysis::PerAddressPercentiles per_address;
  per_address.percentiles = config.snapshot.percentiles;
  per_address.values.assign(config.snapshot.percentiles.size(), {});
  std::uint64_t address_total = 0;
  for (const ShardOutput& output : outputs) address_total += output.address_count;
  for (std::vector<double>& column : per_address.values) {
    column.reserve(static_cast<std::size_t>(address_total));
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::ifstream is = open_in(paths[i].matrix);
    std::vector<char> head(8);
    if (!is.read(head.data(), 8)) {
      throw std::runtime_error("snapshot builder: truncated matrix spill");
    }
    const std::uint64_t count = sf::read_u64(head.data());
    TURTLE_CHECK_EQ(count, outputs[i].address_count);
    std::vector<char> column(static_cast<std::size_t>(count) * 8);
    for (std::size_t p = 0; p < per_address.values.size(); ++p) {
      if (count > 0 &&
          !is.read(column.data(), static_cast<std::streamsize>(column.size()))) {
        throw std::runtime_error("snapshot builder: truncated matrix spill");
      }
      for (std::uint64_t a = 0; a < count; ++a) {
        per_address.values[p].push_back(sf::read_f64(column.data() + std::size_t{a} * 8));
      }
    }
  }
  analysis::TimeoutMatrix matrix;
  if (per_address.address_count() > 0) {
    matrix = analysis::TimeoutMatrix::compute(per_address, config.snapshot.percentiles);
  }

  for (const ShardOutput& output : outputs) {
    ledger.total_samples += output.total_samples;
    ledger.block_count += output.block_count;
  }
  ledger.as_count = ases.size();

  // Pass D, write: header from the final counts, then stream every
  // section — block sections by concatenating shard spills in shard
  // order (ranges ascend, so concatenation is the sorted order).
  {
    std::ofstream os{out_path, std::ios::binary | std::ios::trunc};
    if (!os.is_open()) throw std::runtime_error("snapshot builder: cannot create " + out_path);
    sf::Header header;
    header.snapshot_version = config.snapshot.version;
    header.total_samples = ledger.total_samples;
    header.min_block_samples = config.snapshot.min_block_samples;
    header.min_as_samples = config.snapshot.min_as_samples;
    header.min_samples_per_address = config.snapshot.min_samples_per_address;
    header.percentile_count = static_cast<std::uint32_t>(config.snapshot.percentiles.size());
    header.block_count = static_cast<std::uint32_t>(ledger.block_count);
    header.as_count = static_cast<std::uint32_t>(ledger.as_count);
    header.matrix_rows = static_cast<std::uint32_t>(matrix.cells.size());
    header.matrix_cols =
        static_cast<std::uint32_t>(matrix.cells.empty() ? 0 : matrix.cells.front().size());
    if (header.matrix_rows > 0 && header.matrix_cols > 0) header.flags |= sf::kFlagHasMatrix;

    sf::Writer writer{os, header};
    writer.begin_section(sf::kPercentiles);
    for (const double p : config.snapshot.percentiles) writer.put_f64(p);
    writer.begin_section(sf::kBlockKeys);
    for (const SpillPaths& path : paths) concat_file(writer, path.keys);
    writer.begin_section(sf::kBlockAsn);
    for (const SpillPaths& path : paths) concat_file(writer, path.asns);
    writer.begin_section(sf::kBlockAggs);
    for (const SpillPaths& path : paths) concat_file(writer, path.aggs);
    writer.begin_section(sf::kAsKeys);
    for (const auto& [asn, aggregate] : ases) writer.put_u32(asn);
    writer.begin_section(sf::kAsAggs);
    for (const auto& [asn, aggregate] : ases) {
      writer.put_aggregate(aggregate.samples, aggregate.quantiles);
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

}  // namespace turtle::serve
