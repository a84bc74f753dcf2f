#include "probe/records.h"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace turtle::probe {

std::uint64_t RecordLog::count_of(RecordType type) const {
  std::uint64_t n = 0;
  for (const SurveyRecord& r : records_) {
    if (r.type == type) ++n;
  }
  return n;
}

namespace {

// Binary format:
//   header: magic "TRTL" (4), version u32 (=1), record count u64
//   record (32 bytes): type u8, pad[3], address u32, probe_time i64 (µs),
//                      rtt i64 (µs), round u32, count u32
// All little-endian (we only target little-endian hosts; asserted by the
// byte-level writer below being symmetric with the reader).
constexpr std::array<char, 4> kMagic = {'T', 'R', 'T', 'L'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  return value;
}

}  // namespace

namespace {

void put_record(std::ostream& os, const SurveyRecord& r) {
  put(os, static_cast<std::uint8_t>(r.type));
  const std::array<char, 3> pad{};
  os.write(pad.data(), pad.size());
  put(os, r.address.value());
  put(os, r.probe_time.as_micros());
  put(os, r.rtt.as_micros());
  put(os, r.round);
  put(os, r.count);
}

}  // namespace

void RecordLog::save(std::ostream& os) const {
  os.write(kMagic.data(), kMagic.size());
  put(os, kVersion);
  put(os, static_cast<std::uint64_t>(records_.size()));
  for (const SurveyRecord& r : records_) put_record(os, r);
  if (!os) throw std::runtime_error("RecordLog::save: write failed");
}

bool RecordLog::record_is_loadable(const unsigned char* bytes, SurveyRecord* out) {
  SurveyRecord r;
  const std::uint8_t tag = bytes[0];
  if (!is_valid_record_type(tag)) return false;
  r.type = static_cast<RecordType>(tag);
  std::uint32_t address = 0;
  std::int64_t probe_time_us = 0;
  std::int64_t rtt_us = 0;
  std::memcpy(&address, bytes + 4, sizeof address);
  std::memcpy(&probe_time_us, bytes + 8, sizeof probe_time_us);
  std::memcpy(&rtt_us, bytes + 16, sizeof rtt_us);
  std::memcpy(&r.round, bytes + 24, sizeof r.round);
  std::memcpy(&r.count, bytes + 28, sizeof r.count);
  r.address = net::Ipv4Address{address};
  r.probe_time = SimTime::micros(probe_time_us);
  r.rtt = SimTime::micros(rtt_us);
  // Structural validity: negative times or a zero coalescing count can
  // only come from corruption (append() DCHECKs them out at write time),
  // and letting them through would crash or skew the analysis.
  if (r.probe_time.is_negative() || r.rtt.is_negative() || r.count == 0) return false;
  if (out != nullptr) *out = r;
  return true;
}

RecordReader::RecordReader(std::istream& is) : is_{is} {
  std::array<char, 4> magic{};
  is_.read(magic.data(), magic.size());
  if (!is_ || magic != kMagic) throw std::runtime_error("RecordLog::load: bad magic");
  if (get<std::uint32_t>(is_) != kVersion) {
    throw std::runtime_error("RecordLog::load: unsupported version");
  }
  declared_ = get<std::uint64_t>(is_);
  if (!is_) throw std::runtime_error("RecordLog::load: truncated header");
}

bool RecordReader::next(SurveyRecord& out) {
  std::array<unsigned char, RecordLog::kRecordBytes> buffer{};
  while (index_ < declared_) {
    is_.read(reinterpret_cast<char*>(buffer.data()), buffer.size());
    if (static_cast<std::size_t>(is_.gcount()) < buffer.size()) {
      // Stream ended before the declared count: a crashed writer or a
      // truncated transfer. Count the missing tail and stop — never
      // fatal. loaded + skipped + truncated == declared, always.
      stats_.records_truncated += declared_ - index_;
      index_ = declared_;
      return false;
    }
    ++index_;
    if (!RecordLog::record_is_loadable(buffer.data(), &out)) {
      // Fixed-width records make resync exact: skip this one and carry on
      // at the next 32-byte boundary.
      ++stats_.records_skipped;
      continue;
    }
    ++stats_.records_loaded;
    return true;
  }
  return false;
}

RecordWriter::RecordWriter(std::ostream& os) : os_{os} {
  os_.write(kMagic.data(), kMagic.size());
  put(os_, kVersion);
  put(os_, std::uint64_t{0});  // patched by finish()
  if (!os_) throw std::runtime_error("RecordWriter: header write failed");
}

void RecordWriter::append(const SurveyRecord& record) {
  TURTLE_DCHECK(is_valid_record_type(static_cast<std::uint8_t>(record.type)));
  TURTLE_DCHECK_GT(record.count, 0u) << "record coalescing zero responses";
  TURTLE_DCHECK(!record.rtt.is_negative());
  put_record(os_, record);
  ++written_;
}

void RecordWriter::finish() {
  const std::ostream::pos_type end = os_.tellp();
  // The count sits right after magic (4) + version (4).
  os_.seekp(8);
  put(os_, written_);
  os_.seekp(end);
  os_.flush();
  if (!os_) throw std::runtime_error("RecordWriter::finish: write failed");
}

RecordLog RecordLog::load(std::istream& is, LoadStats* stats) {
  RecordReader reader{is};
  RecordLog log;
  SurveyRecord r;
  while (reader.next(r)) log.records_.push_back(r);
  if (stats != nullptr) *stats = reader.stats();
  return log;
}

}  // namespace turtle::probe
