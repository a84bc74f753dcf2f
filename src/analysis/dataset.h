// Per-address timelines reconstructed from a survey record log.
//
// First stage of the paper's analysis (Section 3): group records by IP
// address, in time order, separating requests (matched / timed out /
// errored) from unmatched responses. Everything downstream — naive
// re-matching, the broadcast and duplicate filters, the percentile tables
// — operates on these timelines. The analysis uses only responses, so an
// address that never answered gets no timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "probe/records.h"

namespace turtle::analysis {

/// True for a record that shows its address answered: a matched response
/// or an unmatched one. An address none of whose records answered (every
/// probe to it timed out or drew an ICMP error) adds to no row of Table 1
/// and gives no latency sample, so grouping leaves it out, and so does the
/// snapshot build.
[[nodiscard]] constexpr bool answered(probe::RecordType type) {
  return type == probe::RecordType::kMatched || type == probe::RecordType::kUnmatched;
}

/// State of one probe (request) to an address.
enum class RequestState : std::uint8_t {
  kMatched,   ///< survey-detected response (µs RTT available)
  kTimedOut,  ///< no response before the match timeout
  kError,     ///< ICMP error response; excluded from latency analysis
};

/// One request in an address's timeline: one per probe, so a survey's
/// dataset is mostly these. A matched request's RTT sits in its
/// timeline's rtts_s, and the pipeline keeps its per-request working
/// state apart too, which holds a Request at 16 bytes.
struct Request {
  double time_s = 0;  ///< send time, seconds (µs precision for matched)
  std::uint32_t round = 0;
  RequestState state = RequestState::kTimedOut;
};
static_assert(sizeof(Request) == 16);

/// One unmatched response (possibly coalescing several identical packets
/// within the same second).
struct UnmatchedResponse {
  double time_s = 0;  ///< arrival, 1 s precision
  std::uint32_t count = 1;
};

/// All survey records for one IP address that answered at least once, in
/// chronological order: views into the arrays of the SurveyDataset that
/// made it, valid while it lives.
struct AddressTimeline {
  net::Ipv4Address address;
  std::span<const Request> requests;  ///< by send time
  /// One RTT, seconds, per matched request, in request order: the k-th
  /// matched request's RTT is rtts_s[k].
  std::span<const double> rtts_s;
  std::span<const UnmatchedResponse> unmatched;  ///< by arrival time
};

/// The grouped dataset: one timeline per address that answered (see
/// answered()), none for an address that never did. Its requests (16 bytes
/// each), matched RTTs (8) and unmatched responses (16) each live in one
/// flat array, allocated once at its final size; every timeline views one
/// contiguous run of each, and the runs tile each array in timeline order,
/// with no gap. A silent address's records take no slot in any of them.
///
/// Move-only: a move hands the arrays over without relocating them, so the
/// timelines' views stay valid; a copy would view the original's arrays.
class SurveyDataset {
 public:
  SurveyDataset() = default;
  SurveyDataset(SurveyDataset&&) noexcept = default;
  SurveyDataset& operator=(SurveyDataset&&) noexcept = default;
  SurveyDataset(const SurveyDataset&) = delete;
  SurveyDataset& operator=(const SurveyDataset&) = delete;

  /// Groups a record log: from_records over its records.
  static SurveyDataset from_log(const probe::RecordLog& log);

  /// Groups the records of `source`, a callable that, each time it is
  /// called with a visitor, calls the visitor on every record in the order
  /// the prober emitted them (append order == event order). Grouping calls
  /// it twice and needs the same records both times: the first pass counts
  /// each address's records, the second places them in the arrays sized by
  /// that count. Grouping never holds the records, so a source may read a
  /// log file twice. Timelines come in order of each address's first
  /// record, and an address none of whose records answered gets none; a
  /// timeline whose records the log holds out of time order is
  /// stable-sorted, each RTT moving with its request.
  template <typename Source>
  static SurveyDataset from_records(Source&& source);

  [[nodiscard]] const std::vector<AddressTimeline>& timelines() const { return timelines_; }

  /// Timeline for one address, or nullptr (also for an address that never
  /// answered).
  [[nodiscard]] const AddressTimeline* find(net::Ipv4Address addr) const;

  [[nodiscard]] std::size_t address_count() const { return timelines_.size(); }

 private:
  /// Address -> a number (a Fill's while grouping, a timeline's after):
  /// open addressing with linear probing over a power-of-two array of
  /// 8-byte slots, Fibonacci-hashed like probe::PendingTable, doubling
  /// past half full. Grouping looks every record up twice; a lookup here
  /// reads one slot run, where a node-based map reads a bucket and then a
  /// node.
  class Index {
   public:
    static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

    /// The number of `address`, after giving it `next` if it had none, and
    /// whether it had none.
    std::pair<std::uint32_t, bool> try_emplace(std::uint32_t address, std::uint32_t next);
    /// The number of `address`, or kNone.
    [[nodiscard]] std::uint32_t find(std::uint32_t address) const;

   private:
    struct Slot {
      std::uint32_t address = 0;
      std::uint32_t number = kNone;  ///< kNone marks a free slot
    };
    /// The slot a probe run for `address` starts at: the top bits of a
    /// Fibonacci hash. Precondition: the array is allocated.
    [[nodiscard]] std::size_t home(std::uint32_t address) const;
    /// Doubles the array (to 16 slots at first) and reinserts every entry.
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  static constexpr std::uint32_t kNoTimeline = Index::kNone;

  /// One address's share of each array: its record counts during the
  /// first pass, then its timeline and the next slot to fill in each
  /// array. An address none of whose records answered keeps kNoTimeline
  /// and gets no share; its `requests` then counts down the records the
  /// second pass skips.
  struct Fill {
    net::Ipv4Address address;
    std::uint32_t timeline = kNoTimeline;
    std::size_t requests = 0;
    std::size_t rtts = 0;
    std::size_t unmatched = 0;
  };

  void count(const probe::SurveyRecord& record, std::vector<Fill>& fills);
  void allocate(std::vector<Fill>& fills);
  void place(const probe::SurveyRecord& record, std::vector<Fill>& fills);
  void finish(const std::vector<Fill>& fills);

  std::vector<Request> requests_;
  std::vector<double> rtts_s_;
  std::vector<UnmatchedResponse> unmatched_;
  std::vector<AddressTimeline> timelines_;
  /// Address -> its Fill while grouping, its timeline once grouping ends.
  Index index_;
};

template <typename Source>
SurveyDataset SurveyDataset::from_records(Source&& source) {
  SurveyDataset ds;
  std::vector<Fill> fills;
  source([&](const probe::SurveyRecord& record) { ds.count(record, fills); });
  ds.allocate(fills);
  source([&](const probe::SurveyRecord& record) { ds.place(record, fills); });
  ds.finish(fills);
  return ds;
}

}  // namespace turtle::analysis
