#include "probe/records.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace turtle::probe {
namespace {

SurveyRecord sample(RecordType type, std::uint32_t addr, std::int64_t t_us) {
  SurveyRecord r;
  r.type = type;
  r.address = net::Ipv4Address{addr};
  r.probe_time = SimTime::micros(t_us);
  r.rtt = SimTime::micros(t_us / 2);
  r.round = 7;
  r.count = 3;
  return r;
}

TEST(RecordLog, CountsByType) {
  RecordLog log;
  log.append(sample(RecordType::kMatched, 1, 10));
  log.append(sample(RecordType::kMatched, 2, 20));
  log.append(sample(RecordType::kTimeout, 3, 30));
  log.append(sample(RecordType::kUnmatched, 4, 40));
  EXPECT_EQ(log.count_of(RecordType::kMatched), 2u);
  EXPECT_EQ(log.count_of(RecordType::kTimeout), 1u);
  EXPECT_EQ(log.count_of(RecordType::kUnmatched), 1u);
  EXPECT_EQ(log.count_of(RecordType::kError), 0u);
  EXPECT_EQ(log.size(), 4u);
}

TEST(RecordLog, SaveLoadRoundTrip) {
  RecordLog log;
  for (int i = 0; i < 1000; ++i) {
    log.append(sample(static_cast<RecordType>(i % 4), static_cast<std::uint32_t>(i * 7919),
                      static_cast<std::int64_t>(i) * 123'457));
  }
  std::stringstream buf;
  log.save(buf);
  const RecordLog loaded = RecordLog::load(buf);
  ASSERT_EQ(loaded.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& a = log.at(i);
    const auto& b = loaded.at(i);
    ASSERT_EQ(a.type, b.type);
    ASSERT_EQ(a.address, b.address);
    ASSERT_EQ(a.probe_time, b.probe_time);
    ASSERT_EQ(a.rtt, b.rtt);
    ASSERT_EQ(a.round, b.round);
    ASSERT_EQ(a.count, b.count);
  }
}

TEST(RecordLog, EmptyRoundTrip) {
  RecordLog log;
  std::stringstream buf;
  log.save(buf);
  EXPECT_EQ(RecordLog::load(buf).size(), 0u);
}

TEST(RecordLog, LoadRejectsBadMagic) {
  std::stringstream buf;
  buf << "NOPExxxxxxxxxxxxxxxx";
  EXPECT_THROW((void)RecordLog::load(buf), std::runtime_error);
}

TEST(RecordLog, LoadCountsTruncatedTail) {
  // Graceful degradation: a partial record at end of stream (crashed
  // writer, cut transfer) is counted and skipped, never fatal.
  RecordLog log;
  log.append(sample(RecordType::kMatched, 1, 1));
  log.append(sample(RecordType::kMatched, 2, 2));
  std::stringstream buf;
  log.save(buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 10);
  std::stringstream truncated{bytes};
  RecordLog::LoadStats stats;
  const RecordLog loaded = RecordLog::load(truncated, &stats);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(stats.records_loaded, 1u);
  EXPECT_EQ(stats.records_truncated, 1u);
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_EQ(stats.records_loaded + stats.records_dropped(), 2u);

  // The loader reads no byte past the declared records: whatever follows
  // the log in the stream is left where it is.
  std::stringstream followed{buf.str() + "trailing bytes, not a record"};
  const RecordLog whole = RecordLog::load(followed, &stats);
  EXPECT_EQ(whole.size(), 2u);
  EXPECT_EQ(stats.records_truncated, 0u);
  EXPECT_EQ(static_cast<std::size_t>(followed.tellg()),
            RecordLog::kHeaderBytes + 2 * RecordLog::kRecordBytes);
}

TEST(RecordLog, LoadSkipsCorruptRecordMidStream) {
  // A corrupt record tag mid-stream is skipped at exact 32-byte record
  // granularity; the surrounding records load unharmed.
  RecordLog log;
  log.append(sample(RecordType::kMatched, 1, 10));
  log.append(sample(RecordType::kMatched, 2, 20));
  log.append(sample(RecordType::kMatched, 3, 30));
  std::stringstream buf;
  log.save(buf);
  std::string bytes = buf.str();
  bytes[RecordLog::kHeaderBytes + RecordLog::kRecordBytes] = '\x7F';  // record 1's tag
  std::stringstream corrupted{bytes};
  RecordLog::LoadStats stats;
  const RecordLog loaded = RecordLog::load(corrupted, &stats);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at(0).address.value(), 1u);
  EXPECT_EQ(loaded.at(1).address.value(), 3u);
  EXPECT_EQ(stats.records_loaded, 2u);
  EXPECT_EQ(stats.records_skipped, 1u);
  EXPECT_EQ(stats.records_truncated, 0u);
}

TEST(RecordLog, LoadRejectsCorruptHeaderOnly) {
  // Header corruption stays fatal: there is no way to trust anything
  // after a bad magic or version.
  RecordLog log;
  log.append(sample(RecordType::kMatched, 1, 10));
  std::stringstream buf;
  log.save(buf);
  std::string bytes = buf.str();
  bytes[4] = '\x09';  // version word
  std::stringstream corrupted{bytes};
  EXPECT_THROW((void)RecordLog::load(corrupted), std::runtime_error);
}

SurveyRecord unmatched(std::uint32_t addr, std::int64_t t_s, std::uint32_t count) {
  SurveyRecord r;
  r.type = RecordType::kUnmatched;
  r.address = net::Ipv4Address{addr};
  r.probe_time = SimTime::seconds(t_s);
  r.count = count;
  return r;
}

void expect_same(const SurveyRecord& a, const SurveyRecord& b, std::size_t i) {
  EXPECT_EQ(a.type, b.type) << "record " << i;
  EXPECT_EQ(a.address, b.address) << "record " << i;
  EXPECT_EQ(a.probe_time, b.probe_time) << "record " << i;
  EXPECT_EQ(a.rtt, b.rtt) << "record " << i;
  EXPECT_EQ(a.round, b.round) << "record " << i;
  EXPECT_EQ(a.count, b.count) << "record " << i;
}

static_assert(std::forward_iterator<RecordLog::Iterator>);

TEST(RecordLog, InPlaceCoalescing) {
  RecordLog log;
  log.append(unmatched(5, 100, 3));
  log.add_count(0, 10);
  EXPECT_EQ(log.at(0).count, 13u);
  for (int i = 0; i < (1 << 16); ++i) log.append(sample(RecordType::kMatched, 6, i));
  log.add_count(0, 1);
  EXPECT_EQ(log.at(0).count, 14u);
  expect_same(log.at(0), unmatched(5, 100, 14), 0);
}

/// Records on each side of every limit of the 16-byte form, and records
/// outside it for other reasons.
std::vector<SurveyRecord> boundary_records() {
  constexpr std::int64_t kTimeLimit = std::int64_t{1} << 43;
  constexpr std::int64_t kRttLimit = std::int64_t{1} << 26;
  constexpr std::uint32_t kRoundLimit = std::uint32_t{1} << 24;
  const auto matched = [](std::int64_t t_us, std::int64_t rtt_us, std::uint32_t round) {
    SurveyRecord r;
    r.type = RecordType::kMatched;
    r.address = net::Ipv4Address{0xFFFFFFFFu - round};
    r.probe_time = SimTime::micros(t_us);
    r.rtt = SimTime::micros(rtt_us);
    r.round = round;
    return r;
  };
  std::vector<SurveyRecord> records = {
      matched(kTimeLimit - 1, 2'999'988, 49),
      matched(kTimeLimit, 2'999'988, 49),
      matched(123'456'789, kRttLimit - 1, 3),
      matched(123'456'789, kRttLimit, 3),
      matched(123'456'789, 0, kRoundLimit - 1),
      matched(123'456'789, 0, kRoundLimit),
      unmatched(0, 0, 1),
      unmatched(7, (kTimeLimit - 1) / 1'000'000, 0xFFFFFFFFu),
  };
  SurveyRecord unmatched_round = unmatched(8, 1000, 2);
  unmatched_round.round = 1;
  records.push_back(unmatched_round);
  SurveyRecord unmatched_rtt = unmatched(9, 1000, 2);
  unmatched_rtt.rtt = SimTime::micros(1);
  records.push_back(unmatched_rtt);
  SurveyRecord matched_twice = matched(5'000'000, 80'000, 2);
  matched_twice.count = 2;
  records.push_back(matched_twice);
  SurveyRecord timeout = matched(660'000'000, 0, 1);
  timeout.type = RecordType::kTimeout;
  records.push_back(timeout);
  SurveyRecord error = timeout;
  error.type = RecordType::kError;
  records.push_back(error);
  records.push_back(matched(-1, 1000, 0));  // never loads: negative time
  return records;
}

TEST(RecordLog, PackedFormRoundTripsAtEveryLimit) {
  const std::vector<SurveyRecord> records = boundary_records();
  RecordLog log;
  for (const SurveyRecord& r : records) log.append(r);
  ASSERT_EQ(log.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) expect_same(log.at(i), records[i], i);
  std::size_t i = 0;
  for (const SurveyRecord& r : log.records()) {
    expect_same(r, records[i], i);
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(log.count_of(RecordType::kMatched), records.size() - 6);
  EXPECT_EQ(log.count_of(RecordType::kUnmatched), 4u);
  EXPECT_EQ(log.count_of(RecordType::kTimeout), 1u);
  EXPECT_EQ(log.count_of(RecordType::kError), 1u);

  // save() writes the bytes a RecordWriter writes for the same records,
  // into a stream or onto a string.
  std::stringstream saved;
  log.save(saved);
  std::stringstream written;
  RecordWriter writer{written};
  for (const SurveyRecord& r : records) writer.append(r);
  writer.finish();
  EXPECT_EQ(saved.str(), written.str());
  std::string appended = "prefix";
  log.save(appended);
  EXPECT_EQ(appended, "prefix" + written.str());

  // Loading gives every record back but the negative-time one, which the
  // loader rejects as corrupt.
  RecordLog::LoadStats stats;
  const RecordLog loaded = RecordLog::load(saved, &stats);
  EXPECT_EQ(stats.records_skipped, 1u);
  ASSERT_EQ(loaded.size(), records.size() - 1);
  for (std::size_t j = 0; j < loaded.size(); ++j) expect_same(loaded.at(j), records[j], j);
}

TEST(RecordLog, AddCountOnNarrowAndWideRecords) {
  const std::vector<SurveyRecord> records = boundary_records();
  RecordLog log;
  for (const SurveyRecord& r : records) log.append(r);
  // Hundreds of deque nodes of 16-byte slots behind them.
  for (int i = 0; i < 10'000; ++i) log.append(unmatched(10, i, 1));

  SurveyRecord narrow = records[6];   // kUnmatched, count 1
  SurveyRecord wide = records[8];     // kUnmatched with a round
  SurveyRecord matched = records[2];  // narrow until its count passes 1
  log.add_count(6, 41);
  log.add_count(8, 5);
  log.add_count(2, 1);
  log.add_count(records.size() + 9'999, 2);
  narrow.count += 41;
  wide.count += 5;
  matched.count += 1;
  expect_same(log.at(6), narrow, 6);
  expect_same(log.at(8), wide, 8);
  expect_same(log.at(2), matched, 2);
  EXPECT_EQ(log.at(records.size() + 9'999).count, 3u);
  expect_same(log.at(records.size() + 9'998), unmatched(10, 9'998, 1), 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 2 && i != 6 && i != 8) expect_same(log.at(i), records[i], i);
  }
}

}  // namespace
}  // namespace turtle::probe
