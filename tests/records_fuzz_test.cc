// Fuzz-style robustness tests for the RecordLog binary loader, mirroring
// series_fuzz_test.cc's treatment of the wire-format parsers: arbitrary
// damage to a serialized log must never crash the loader, never read out
// of bounds, and every declared record must be accounted for as loaded,
// skipped, or truncated. Header damage alone stays fatal.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "probe/records.h"
#include "util/prng.h"

namespace turtle::probe {
namespace {

RecordLog sample_log(util::Prng& rng, int n) {
  RecordLog log;
  for (int i = 0; i < n; ++i) {
    SurveyRecord r;
    r.type = static_cast<RecordType>(rng.uniform_int(4));
    r.address = net::Ipv4Address{static_cast<std::uint32_t>(rng.uniform_int(1u << 24))};
    r.probe_time = SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(1u << 30)));
    r.rtt = SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(1u << 20)));
    r.round = static_cast<std::uint32_t>(rng.uniform_int(64));
    r.count = 1 + static_cast<std::uint32_t>(rng.uniform_int(4));
    log.append(r);
  }
  return log;
}

std::string serialize(const RecordLog& log) {
  std::ostringstream out;
  log.save(out);
  return out.str();
}

class RecordsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// RecordReader reads 2048 records a block, so a 5000-record log spans
// three read blocks; the 200- and 50-record logs fit in one.
constexpr std::size_t kReadBlockRecords = 2048;
constexpr int kThreeBlockLog = 5000;

TEST_P(RecordsFuzz, RandomBitFlipsNeverCrashAndAlwaysReconcile) {
  util::Prng rng{GetParam()};
  for (const auto& [records, trials] : {std::pair{200, 2'000}, std::pair{kThreeBlockLog, 200}}) {
    const auto log = sample_log(rng, records);
    const std::string clean = serialize(log);

    for (int trial = 0; trial < trials; ++trial) {
      std::string bytes = clean;
      // Flip 1-8 random bits anywhere past the header.
      const int flips = 1 + static_cast<int>(rng.uniform_int(8));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at =
            RecordLog::kHeaderBytes +
            rng.uniform_int(bytes.size() - RecordLog::kHeaderBytes);
        bytes[at] = static_cast<char>(
            static_cast<unsigned char>(bytes[at]) ^ (1u << rng.uniform_int(8)));
      }
      std::istringstream in{bytes};
      RecordLog::LoadStats stats;
      const RecordLog loaded = RecordLog::load(in, &stats);  // must not throw
      // Fixed-width records: every declared record is loaded or skipped,
      // none invented, none silently vanished.
      EXPECT_EQ(stats.records_loaded + stats.records_skipped + stats.records_truncated,
                log.size());
      EXPECT_EQ(loaded.size(), stats.records_loaded);
      EXPECT_EQ(stats.records_truncated, 0u);  // length untouched
    }
  }
}

TEST_P(RecordsFuzz, RandomTruncationsNeverCrash) {
  util::Prng rng{GetParam() ^ 0xACE};
  const auto check_cut = [](const RecordLog& log, const std::string& clean, std::size_t len) {
    std::istringstream in{clean.substr(0, len)};
    RecordLog::LoadStats stats;
    if (len < RecordLog::kHeaderBytes) {
      // Not even a header: fatal.
      EXPECT_THROW((void)RecordLog::load(in, &stats), std::runtime_error);
      return;
    }
    const RecordLog loaded = RecordLog::load(in, &stats);
    // Whole records before the cut all load; the tail is counted.
    const std::size_t whole = (len - RecordLog::kHeaderBytes) / RecordLog::kRecordBytes;
    EXPECT_EQ(loaded.size(), whole) << "cut at " << len;
    EXPECT_EQ(stats.records_loaded + stats.records_truncated, log.size());
  };

  const auto log = sample_log(rng, 50);
  const std::string clean = serialize(log);
  for (std::size_t len = 0; len <= clean.size(); ++len) check_cut(log, clean, len);

  // Three read blocks: cut within a record of each block boundary, and at
  // random lengths (every length would be quadratic in the log size).
  const auto big = sample_log(rng, kThreeBlockLog);
  const std::string big_clean = serialize(big);
  for (std::size_t boundary = 1; boundary <= 3; ++boundary) {
    const std::size_t at = RecordLog::kHeaderBytes +
                           std::min<std::size_t>(boundary * kReadBlockRecords, kThreeBlockLog) *
                               RecordLog::kRecordBytes;
    for (std::size_t len = at - RecordLog::kRecordBytes - 1;
         len <= std::min(at + RecordLog::kRecordBytes + 1, big_clean.size()); ++len) {
      check_cut(big, big_clean, len);
    }
  }
  for (int trial = 0; trial < 100; ++trial) {
    check_cut(big, big_clean, rng.uniform_int(big_clean.size() + 1));
  }
}

TEST_P(RecordsFuzz, RandomByteSoupNeverCrashes) {
  util::Prng rng{GetParam() ^ 0xBEEF};
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string bytes(rng.uniform_int(256), '\0');
    for (auto& b : bytes) b = static_cast<char>(rng.uniform_int(256));
    std::istringstream in{bytes};
    try {
      RecordLog::LoadStats stats;
      const RecordLog loaded = RecordLog::load(in, &stats);
      // Rare: soup that happens to carry a valid magic+version. What was
      // materialized must still match the loader's own accounting.
      EXPECT_EQ(loaded.size(), stats.records_loaded);
    } catch (const std::runtime_error&) {
      // Expected for nearly all inputs: corrupt header is fatal.
    }
  }
}

TEST_P(RecordsFuzz, HeaderDamageStaysFatal) {
  util::Prng rng{GetParam() ^ 0xD00D};
  const auto log = sample_log(rng, 5);
  const std::string clean = serialize(log);

  // Any single bit flip in magic or version must throw. (Bytes 8-15 are
  // the record count, whose damage the loader tolerates and reconciles.)
  for (std::size_t at = 0; at < 8; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = clean;
      bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ (1u << bit));
      std::istringstream in{bytes};
      EXPECT_THROW((void)RecordLog::load(in), std::runtime_error)
          << "header byte " << at << " bit " << bit;
    }
  }
}

TEST_P(RecordsFuzz, CountFieldDamageReconciles) {
  // A corrupted declared count must neither over-allocate nor crash: the
  // loader materializes what the stream actually holds and reports the
  // difference as skipped/truncated.
  util::Prng rng{GetParam() ^ 0xC047};
  const auto log = sample_log(rng, 20);
  std::string bytes = serialize(log);
  // Declare 2^56 records (byte 15 is the count's most significant byte).
  bytes[15] = '\x01';
  std::istringstream in{bytes};
  RecordLog::LoadStats stats;
  const RecordLog loaded = RecordLog::load(in, &stats);
  EXPECT_EQ(loaded.size(), log.size());
  EXPECT_GT(stats.records_truncated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordsFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace turtle::probe
