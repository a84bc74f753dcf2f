// Per-address timelines reconstructed from a survey record log.
//
// First stage of the paper's analysis (Section 3): group records by IP
// address, in time order, separating requests (matched / timed out /
// errored) from unmatched responses. Everything downstream — naive
// re-matching, the broadcast and duplicate filters, the percentile tables
// — operates on these timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "probe/records.h"

namespace turtle::analysis {

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

/// All survey activity for one IP address, in chronological order: views
/// into the arrays of the SurveyDataset that made it, valid while it lives.
struct AddressTimeline {
  net::Ipv4Address address;
  std::span<const Request> requests;  ///< by send time
  /// One RTT, seconds, per matched request, in request order: the k-th
  /// matched request's RTT is rtts_s[k].
  std::span<const double> rtts_s;
  std::span<const UnmatchedResponse> unmatched;  ///< by arrival time
};

/// The grouped dataset. Its requests (16 bytes each), matched RTTs (8) and
/// unmatched responses (16) each live in one flat array, allocated once at
/// its final size; every timeline views one contiguous run of each, and
/// the runs tile each array in timeline order, with no gap.
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
  /// record; a timeline whose records the log holds out of time order is
  /// stable-sorted, each RTT moving with its request.
  template <typename Source>
  static SurveyDataset from_records(Source&& source);

  [[nodiscard]] const std::vector<AddressTimeline>& timelines() const { return timelines_; }

  /// Timeline for one address, or nullptr.
  [[nodiscard]] const AddressTimeline* find(net::Ipv4Address addr) const;

  [[nodiscard]] std::size_t address_count() const { return timelines_.size(); }

 private:
  /// One timeline's share of each array: its record counts during the
  /// first pass, then the next slot to fill in each array.
  struct Fill {
    net::Ipv4Address address;
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
  std::unordered_map<std::uint32_t, std::size_t> index_;
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
