#include "probe/records.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace turtle::probe {

std::uint64_t RecordLog::count_of(RecordType type) const {
  std::uint64_t n = 0;
  for (const SurveyRecord& r : records()) {
    if (r.type == type) ++n;
  }
  return n;
}

void RecordLog::add_count(std::size_t i, std::uint32_t n) {
  TURTLE_DCHECK_LT(i, slots_.size());
  Slot& slot = slots_[i];
  if ((slot.lo & kWideBit) != 0) {
    wide_[slot.hi].count += n;
    return;
  }
  SurveyRecord record = unpack(slot);
  record.count += n;
  slot = pack(record);
}

namespace {

// Binary format:
//   header: magic "TRTL" (4), version u32 (=1), record count u64
//   record (32 bytes): type u8, pad[3], address u32, probe_time i64 (µs),
//                      rtt i64 (µs), round u32, count u32
// All little-endian (we only target little-endian hosts; asserted by the
// byte-level encoder below being symmetric with record_is_loadable).
constexpr std::array<char, 4> kMagic = {'T', 'R', 'T', 'L'};
constexpr std::uint32_t kVersion = 1;

// Records move a block at a time: a stream call per 32-byte record costs
// more than the bytes it moves. save() and RecordReader use 64 KiB
// blocks. A RecordWriter keeps 8 KiB, because the snapshot builder holds
// one per shard (up to max_shards = 256 of them, 2 MiB).
constexpr std::size_t kBlockRecords = 2048;
constexpr std::size_t kWriterBlockRecords = 256;

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

/// Writes the 16 header bytes at `bytes`.
void encode_header(std::uint64_t count, unsigned char* bytes) {
  std::memcpy(bytes, kMagic.data(), kMagic.size());
  std::memcpy(bytes + 4, &kVersion, sizeof kVersion);
  std::memcpy(bytes + 8, &count, sizeof count);
}

void put_header(std::ostream& os, std::uint64_t count) {
  std::array<unsigned char, RecordLog::kHeaderBytes> bytes{};
  encode_header(count, bytes.data());
  os.write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

/// Writes one record's 32 bytes at `bytes`: the inverse of
/// RecordLog::record_is_loadable.
void encode_record(const SurveyRecord& r, unsigned char* bytes) {
  const std::uint32_t address = r.address.value();
  const std::int64_t probe_time_us = r.probe_time.as_micros();
  const std::int64_t rtt_us = r.rtt.as_micros();
  bytes[0] = static_cast<std::uint8_t>(r.type);
  std::memset(bytes + 1, 0, 3);
  std::memcpy(bytes + 4, &address, sizeof address);
  std::memcpy(bytes + 8, &probe_time_us, sizeof probe_time_us);
  std::memcpy(bytes + 16, &rtt_us, sizeof rtt_us);
  std::memcpy(bytes + 24, &r.round, sizeof r.round);
  std::memcpy(bytes + 28, &r.count, sizeof r.count);
}

void put_records(std::ostream& os, const std::vector<unsigned char>& block, std::size_t records) {
  os.write(reinterpret_cast<const char*>(block.data()),
           static_cast<std::streamsize>(records * RecordLog::kRecordBytes));
}

/// Encodes the log's records a block at a time, handing each filled block
/// and its record count to `sink`.
template <typename Sink>
void encode_blocks(const RecordLog& log, Sink&& sink) {
  std::vector<unsigned char> block(kBlockRecords * RecordLog::kRecordBytes);
  std::size_t filled = 0;
  for (const SurveyRecord& r : log.records()) {
    encode_record(r, block.data() + filled * RecordLog::kRecordBytes);
    if (++filled == kBlockRecords) {
      sink(block, filled);
      filled = 0;
    }
  }
  sink(block, filled);
}

}  // namespace

void RecordLog::save(std::ostream& os) const {
  put_header(os, size());
  encode_blocks(*this, [&os](const std::vector<unsigned char>& block, std::size_t records) {
    put_records(os, block, records);
  });
  if (!os) throw std::runtime_error("RecordLog::save: write failed");
}

void RecordLog::save(std::string& out) const {
  out.reserve(out.size() + kHeaderBytes + size() * kRecordBytes);
  std::array<unsigned char, kHeaderBytes> header{};
  encode_header(size(), header.data());
  out.append(reinterpret_cast<const char*>(header.data()), header.size());
  encode_blocks(*this, [&out](const std::vector<unsigned char>& block, std::size_t records) {
    out.append(reinterpret_cast<const char*>(block.data()), records * kRecordBytes);
  });
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

RecordReader::RecordReader(std::istream& is)
    : is_{is}, block_(kBlockRecords * RecordLog::kRecordBytes) {
  std::array<char, 4> magic{};
  is_.read(magic.data(), magic.size());
  if (!is_ || magic != kMagic) throw std::runtime_error("RecordLog::load: bad magic");
  if (get<std::uint32_t>(is_) != kVersion) {
    throw std::runtime_error("RecordLog::load: unsupported version");
  }
  declared_ = get<std::uint64_t>(is_);
  if (!is_) throw std::runtime_error("RecordLog::load: truncated header");
}

bool RecordReader::refill() {
  if (index_ == declared_) return false;
  // Never ask for more than the header declares: the stream may go on
  // past the log (a caller's trailing bytes), and those are not ours.
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(declared_ - index_, kBlockRecords));
  is_.read(reinterpret_cast<char*>(block_.data()),
           static_cast<std::streamsize>(want * RecordLog::kRecordBytes));
  block_records_ = static_cast<std::size_t>(is_.gcount()) / RecordLog::kRecordBytes;
  block_next_ = 0;
  index_ += block_records_;
  if (block_records_ == 0) {
    // Stream ended before the declared count: a crashed writer or a
    // truncated transfer. The whole records of a short read were decoded
    // already; count the missing tail and stop — never fatal.
    // loaded + skipped + truncated == declared, always.
    stats_.records_truncated += declared_ - index_;
    index_ = declared_;
    return false;
  }
  return true;
}

bool RecordReader::next(SurveyRecord& out) {
  while (block_next_ < block_records_ || refill()) {
    const unsigned char* bytes = block_.data() + block_next_ * RecordLog::kRecordBytes;
    ++block_next_;
    if (!RecordLog::record_is_loadable(bytes, &out)) {
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

RecordWriter::RecordWriter(std::ostream& os)
    : os_{os}, block_(kWriterBlockRecords * RecordLog::kRecordBytes) {
  put_header(os_, 0);  // count patched by finish()
  if (!os_) throw std::runtime_error("RecordWriter: header write failed");
}

void RecordWriter::append(const SurveyRecord& record) {
  TURTLE_DCHECK(is_valid_record_type(static_cast<std::uint8_t>(record.type)));
  TURTLE_DCHECK_GT(record.count, 0u) << "record coalescing zero responses";
  TURTLE_DCHECK(!record.rtt.is_negative());
  encode_record(record, block_.data() + buffered_ * RecordLog::kRecordBytes);
  ++written_;
  if (++buffered_ == kWriterBlockRecords) {
    put_records(os_, block_, buffered_);
    buffered_ = 0;
  }
}

void RecordWriter::finish() {
  put_records(os_, block_, buffered_);
  buffered_ = 0;
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
  while (reader.next(r)) log.append(r);
  if (stats != nullptr) *stats = reader.stats();
  return log;
}

}  // namespace turtle::probe
