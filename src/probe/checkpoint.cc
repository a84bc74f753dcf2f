#include "probe/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace turtle::probe {

namespace {

// Binary format (little-endian, like the record log):
//   magic "TCKP" (4), version u32 (=1), round u32, taken_at i64 (µs),
//   rng state 4 × u64, pending count u64,
//   pending entries (16 bytes each): address u32, round u32, send_time i64
//     — round is per entry, not the header round: late probes of round
//     k-1 can still be pending at boundary k.
//   embedded record log: RecordLog::save() bytes to end of string.
constexpr std::array<char, 4> kMagic = {'T', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::string& out, T value) {
  const char* raw = reinterpret_cast<const char*>(&value);
  out.append(raw, sizeof value);
}

template <typename T>
T take(const std::string& in, std::size_t& pos) {
  if (pos + sizeof(T) > in.size()) {
    throw std::runtime_error("SurveyCheckpoint::from_bytes: truncated");
  }
  T value{};
  std::memcpy(&value, in.data() + pos, sizeof value);
  pos += sizeof value;
  return value;
}

}  // namespace

std::string SurveyCheckpoint::to_bytes() const {
  std::string out;
  write_bytes(log, out);
  return out;
}

void SurveyCheckpoint::write_bytes(const RecordLog& records, std::string& out) const {
  out.clear();
  out.append(kMagic.data(), kMagic.size());
  put(out, kVersion);
  put(out, round);
  put(out, taken_at.as_micros());
  for (const std::uint64_t word : rng.words) put(out, word);
  put(out, static_cast<std::uint64_t>(pending.size()));
  for (const PendingProbe& p : pending) {
    put(out, p.address);
    put(out, p.round);
    put(out, p.send_time.as_micros());
  }
  records.save(out);
}

SurveyCheckpoint SurveyCheckpoint::from_bytes(const std::string& bytes) {
  std::size_t pos = 0;
  if (bytes.size() < kMagic.size() ||
      std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    throw std::runtime_error("SurveyCheckpoint::from_bytes: bad magic");
  }
  pos += kMagic.size();
  if (take<std::uint32_t>(bytes, pos) != kVersion) {
    throw std::runtime_error("SurveyCheckpoint::from_bytes: unsupported version");
  }
  SurveyCheckpoint cp;
  cp.round = take<std::uint32_t>(bytes, pos);
  cp.taken_at = SimTime::micros(take<std::int64_t>(bytes, pos));
  for (std::uint64_t& word : cp.rng.words) word = take<std::uint64_t>(bytes, pos);
  const auto n = take<std::uint64_t>(bytes, pos);
  cp.pending.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
  for (std::uint64_t i = 0; i < n; ++i) {
    PendingProbe p;
    p.address = take<std::uint32_t>(bytes, pos);
    p.round = take<std::uint32_t>(bytes, pos);
    p.send_time = SimTime::micros(take<std::int64_t>(bytes, pos));
    cp.pending.push_back(p);
  }
  std::istringstream log_bytes{bytes.substr(pos)};
  // The embedded log was serialized by the uncorrupted writer, so a strict
  // load is right: any skip here means the checkpoint itself is damaged.
  RecordLog::LoadStats stats;
  cp.log = RecordLog::load(log_bytes, &stats);
  if (stats.records_dropped() != 0) {
    throw std::runtime_error("SurveyCheckpoint::from_bytes: corrupt embedded log");
  }
  return cp;
}

}  // namespace turtle::probe
