#include "probe/records.h"

#include <gtest/gtest.h>

#include <sstream>

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

TEST(RecordLog, InPlaceCoalescing) {
  RecordLog log;
  log.append(sample(RecordType::kUnmatched, 5, 100));
  log.at(0).count += 10;
  EXPECT_EQ(log.at(0).count, 13u);
  // Growing the log moves no record: a vector would have copied every
  // record into a bigger buffer several times by now.
  const SurveyRecord* first = &log.at(0);
  for (int i = 0; i < (1 << 16); ++i) log.append(sample(RecordType::kMatched, 6, i));
  EXPECT_EQ(&log.at(0), first);
  EXPECT_EQ(log.at(0).count, 13u);
}

}  // namespace
}  // namespace turtle::probe
