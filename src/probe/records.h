// The survey record schema: the data-format contract between the prober
// and the analysis pipeline.
//
// Mirrors the information content of the ISI survey datasets (Section 3.1):
//  * a response matched within the timeout ("survey-detected") carries a
//    microsecond-precision RTT;
//  * an expired probe yields a TIMEOUT record with 1-second precision;
//  * a response that matched no outstanding probe yields an UNMATCHED
//    record with 1-second precision, keyed by *source address only* — the
//    dataset did not record ICMP id/seq, which is what forces the paper's
//    fuzzy re-matching and its filters;
//  * ICMP error responses yield ERROR records that analysis must ignore.
//
// UNMATCHED records carry a count: identical responses from one source in
// one second are coalesced (lossless at the format's 1 s precision, and it
// keeps million-response DoS floods from bloating the log).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <iterator>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "util/check.h"
#include "util/sim_time.h"

namespace turtle::probe {

enum class RecordType : std::uint8_t {
  kMatched = 0,    ///< echo response matched within the timeout
  kTimeout = 1,    ///< probe expired with no matched response
  kUnmatched = 2,  ///< response with no outstanding probe for its source
  kError = 3,      ///< ICMP error (e.g. host unreachable) for a probe
};

/// True for the four valid wire tags; load() rejects anything else so a
/// corrupt stream cannot smuggle an out-of-range enum into the analysis.
[[nodiscard]] constexpr bool is_valid_record_type(std::uint8_t tag) {
  return tag <= static_cast<std::uint8_t>(RecordType::kError);
}

/// One survey record. Field meaning depends on `type`:
///   kMatched:   address = target, probe_time µs, rtt µs, round
///   kTimeout:   address = target, probe_time truncated to s, round
///   kUnmatched: address = response source, probe_time = arrival truncated
///               to s, count = responses coalesced into this record
///   kError:     address = target of the failed probe, probe_time s
struct SurveyRecord {
  RecordType type = RecordType::kMatched;
  net::Ipv4Address address;
  SimTime probe_time;
  SimTime rtt;
  std::uint32_t round = 0;
  std::uint32_t count = 1;
};

/// Append-only in-memory record log with binary (de)serialization.
///
/// The log is a survey's largest structure, so it holds each record in 16
/// bytes, half of a SurveyRecord (29 bytes of fields padded to 32). The
/// packed form is private: records() and at() hand out SurveyRecord
/// values. A slot is two 64-bit words:
///   lo  address (bits 0-31), type (32-33), wide flag (34),
///       probe time bits 0-28 (35-63)
///   hi  probe time bits 29-42 (0-13), payload (14-63)
/// The probe time is in µs (43 bits, about 101 days; a two-week survey
/// ends near 1.2e12 µs). The 50-bit payload holds a kUnmatched record's
/// count (its round and RTT are 0), or any other record's RTT in µs (26
/// bits, about 67 s, against a 3 s match timeout) and round (24 bits; its
/// count is 1). A record outside these ranges (a negative time, an RTT
/// past 67 s under a minutes-long match timeout, a silently corrupt
/// record that still loaded) is kept whole in a side vector; its slot
/// holds only the wide flag and, in hi, its index there. Every value
/// round-trips exactly.
///
/// The slots live in a deque, not a vector: a survey appends millions
/// of them without knowing the final count (floods add records per
/// probe), and a vector that outgrows its buffer copies every slot into
/// one twice the size, briefly holding both. A deque grows in fixed
/// blocks, so the log peaks at its own size.
///
/// The binary format is a fixed 32-byte little-endian record, documented
/// in records.cc; surveys of millions of probes stay loadable and the
/// round-trip is exact.
class RecordLog {
  struct Slot {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  static_assert(sizeof(Slot) == 16);

 public:
  /// Forward iterator over the log, yielding each record by value: the
  /// log stores no SurveyRecord to refer to.
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = SurveyRecord;
    using reference = SurveyRecord;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    SurveyRecord operator*() const { return log_->unpack(*slot_); }
    Iterator& operator++() {
      ++slot_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++slot_;
      return before;
    }
    bool operator==(const Iterator& other) const { return slot_ == other.slot_; }

   private:
    friend class RecordLog;
    Iterator(const RecordLog* log, std::deque<Slot>::const_iterator slot)
        : log_{log}, slot_{slot} {}

    const RecordLog* log_ = nullptr;
    std::deque<Slot>::const_iterator slot_;
  };

  /// The read-only range records() returns.
  class Records {
   public:
    [[nodiscard]] Iterator begin() const { return begin_; }
    [[nodiscard]] Iterator end() const { return end_; }

   private:
    friend class RecordLog;
    Records(Iterator begin, Iterator end) : begin_{begin}, end_{end} {}

    Iterator begin_;
    Iterator end_;
  };

  void append(const SurveyRecord& record) {
    TURTLE_DCHECK(is_valid_record_type(static_cast<std::uint8_t>(record.type)));
    TURTLE_DCHECK_GT(record.count, 0u) << "record coalescing zero responses";
    TURTLE_DCHECK(!record.rtt.is_negative());
    slots_.push_back(pack(record));
  }

  /// Adds `n` to record i's count: the prober's in-place coalescing of
  /// unmatched responses, and the log's only mutation.
  void add_count(std::size_t i, std::uint32_t n);

  /// Record i, by value.
  [[nodiscard]] SurveyRecord at(std::size_t i) const {
    TURTLE_DCHECK_LT(i, slots_.size());
    return unpack(slots_[i]);
  }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Every record in log order, each decoded on the fly. A range-for may
  /// bind them to `const SurveyRecord&`, but a reference or pointer kept
  /// past its iteration dangles: copy the record instead.
  [[nodiscard]] Records records() const {
    return Records{Iterator{this, slots_.begin()}, Iterator{this, slots_.end()}};
  }

  /// Counts by type (sanity checks and Table 1).
  [[nodiscard]] std::uint64_t count_of(RecordType type) const;

  /// On-disk layout constants (documented in records.cc). Exposed so the
  /// fault layer can corrupt a serialized stream record-by-record and
  /// predict — via `record_is_loadable` — exactly which corruptions the
  /// loader will detect.
  static constexpr std::size_t kHeaderBytes = 16;  ///< magic + version + count
  static constexpr std::size_t kRecordBytes = 32;

  /// The loader's per-record validation, applied to one serialized
  /// 32-byte record. A record failing this is *detectably* corrupt (the
  /// loader counts and skips it); a corrupted record passing it is
  /// *silently* corrupt (wrong data, structurally valid). Optionally
  /// decodes into `out`.
  static bool record_is_loadable(const unsigned char* bytes, SurveyRecord* out = nullptr);

  /// Load-path accounting. Corrupt or truncated *records* are counted and
  /// skipped, never fatal; only a corrupt file header still throws.
  struct LoadStats {
    std::uint64_t records_loaded = 0;
    std::uint64_t records_skipped = 0;  ///< detectably corrupt, resynced past
    std::uint64_t records_truncated = 0;  ///< partial record at end of stream
    [[nodiscard]] std::uint64_t records_dropped() const {
      return records_skipped + records_truncated;
    }
  };

  /// Binary serialization. save() throws std::runtime_error on I/O
  /// failure. load() throws only on a corrupt header (bad magic or
  /// unsupported version); mid-stream corruption is skipped at
  /// record granularity (the format is fixed-width, so resync is exact)
  /// and reported through `stats`.
  void save(std::ostream& os) const;
  static RecordLog load(std::istream& is, LoadStats* stats = nullptr);

  /// Appends the bytes save(std::ostream&) writes to `out`, with no
  /// stream in between (the prober's checkpoints).
  void save(std::string& out) const;

 private:
  static constexpr std::uint64_t kWideBit = std::uint64_t{1} << 34;
  static constexpr int kLoTimeShift = 35;  ///< probe time bits 0-28 in lo
  static constexpr int kLoTimeBits = 29;
  static constexpr int kHiTimeBits = 14;  ///< probe time bits 29-42 in hi
  static constexpr std::int64_t kTimeLimit = std::int64_t{1} << (kLoTimeBits + kHiTimeBits);
  static constexpr int kRttBits = 26;
  static constexpr std::int64_t kRttLimit = std::int64_t{1} << kRttBits;
  static constexpr std::uint32_t kRoundLimit = std::uint32_t{1} << 24;

  /// The slot for `record`; a record the narrow form cannot hold goes to
  /// wide_ first.
  Slot pack(const SurveyRecord& record) {
    const std::int64_t time = record.probe_time.as_micros();
    const std::int64_t rtt = record.rtt.as_micros();
    bool narrow = is_valid_record_type(static_cast<std::uint8_t>(record.type)) && time >= 0 &&
                  time < kTimeLimit;
    std::uint64_t payload = record.count;
    if (record.type == RecordType::kUnmatched) {
      narrow = narrow && rtt == 0 && record.round == 0;
    } else {
      narrow = narrow && record.count == 1 && rtt >= 0 && rtt < kRttLimit &&
               record.round < kRoundLimit;
      payload = static_cast<std::uint64_t>(rtt) |
                (static_cast<std::uint64_t>(record.round) << kRttBits);
    }
    if (!narrow) {
      wide_.push_back(record);
      return Slot{kWideBit, wide_.size() - 1};
    }
    const auto bits = static_cast<std::uint64_t>(time);
    return Slot{record.address.value() | (static_cast<std::uint64_t>(record.type) << 32) |
                    (bits << kLoTimeShift),
                (bits >> kLoTimeBits) | (payload << kHiTimeBits)};
  }

  [[nodiscard]] SurveyRecord unpack(const Slot& slot) const {
    if ((slot.lo & kWideBit) != 0) return wide_[slot.hi];
    SurveyRecord record;
    record.type = static_cast<RecordType>((slot.lo >> 32) & 3);
    record.address = net::Ipv4Address{static_cast<std::uint32_t>(slot.lo)};
    const std::uint64_t hi_time = slot.hi & ((std::uint64_t{1} << kHiTimeBits) - 1);
    record.probe_time = SimTime::micros(
        static_cast<std::int64_t>((slot.lo >> kLoTimeShift) | (hi_time << kLoTimeBits)));
    const std::uint64_t payload = slot.hi >> kHiTimeBits;
    if (record.type == RecordType::kUnmatched) {
      record.count = static_cast<std::uint32_t>(payload);
    } else {
      record.rtt = SimTime::micros(static_cast<std::int64_t>(payload & (kRttLimit - 1)));
      record.round = static_cast<std::uint32_t>(payload >> kRttBits);
    }
    return record;
  }

  std::deque<Slot> slots_;
  std::vector<SurveyRecord> wide_;  ///< records the 16-byte form cannot hold
};

/// Streaming record reader with load()'s exact tolerance semantics —
/// throws on a corrupt header at construction, skips detectably corrupt
/// records, accounts a truncated tail — in one fixed 64 KiB block of
/// memory: the snapshot builder folds logs far larger than RAM through
/// this. Each refill is one read of at most 2048 records, never past the
/// declared end (header + declared × 32 bytes), and next() decodes the
/// block one record at a time. RecordLog::load() is implemented on top of
/// it, so the two paths cannot drift.
class RecordReader {
 public:
  /// Reads and validates the header. Throws std::runtime_error on bad
  /// magic, unsupported version, or truncated header — same as load().
  explicit RecordReader(std::istream& is);

  /// Advances to the next loadable record. Returns false at end of the
  /// declared stream (or a truncated tail, reflected in stats()).
  [[nodiscard]] bool next(SurveyRecord& out);

  /// Tolerance accounting so far; final once next() returns false.
  /// loaded + skipped + truncated == declared, always.
  [[nodiscard]] const RecordLog::LoadStats& stats() const { return stats_; }

 private:
  /// Reads the next block; false at the declared end or a truncated tail.
  bool refill();

  std::istream& is_;
  std::uint64_t declared_ = 0;
  std::uint64_t index_ = 0;  ///< records read from the stream so far
  std::vector<unsigned char> block_;
  std::size_t block_records_ = 0;  ///< whole records in block_
  std::size_t block_next_ = 0;     ///< next record of block_ to decode
  RecordLog::LoadStats stats_;
};

/// Streaming record writer: header first (count patched on finish()), then
/// fixed-width records, buffered in one 8 KiB block (256 records) and
/// written a block at a time. Lets the bench synthesize a log several
/// times larger than any RSS cap without ever holding it in memory. The
/// stream must be seekable (finish() patches the header).
class RecordWriter {
 public:
  /// Writes the header with a zero record count placeholder.
  explicit RecordWriter(std::ostream& os);

  void append(const SurveyRecord& record);

  /// Writes the buffered records, then seeks back and patches the header's
  /// record count and returns the stream to its end. Until then the file
  /// declares 0 records. Throws std::runtime_error on I/O failure.
  /// Idempotent.
  void finish();

  [[nodiscard]] std::uint64_t written() const { return written_; }

 private:
  std::ostream& os_;
  std::uint64_t written_ = 0;
  std::vector<unsigned char> block_;
  std::size_t buffered_ = 0;  ///< records in block_ not yet written
};

}  // namespace turtle::probe
