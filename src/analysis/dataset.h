// Per-address timelines reconstructed from a survey record log.
//
// First stage of the paper's analysis (Section 3): group records by IP
// address, in time order, separating requests (matched / timed out /
// errored) from unmatched responses. Everything downstream — naive
// re-matching, the broadcast and duplicate filters, the percentile tables
// — operates on these timelines.
#pragma once

#include <cstdint>
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
/// dataset is mostly these. The pipeline keeps its per-request working
/// state apart, which holds a Request at 24 bytes.
struct Request {
  double time_s = 0;  ///< send time, seconds (µs precision for matched)
  std::uint32_t round = 0;
  RequestState state = RequestState::kTimedOut;
  double rtt_s = 0;  ///< matched only
};
static_assert(sizeof(Request) == 24);

/// One unmatched response (possibly coalescing several identical packets
/// within the same second).
struct UnmatchedResponse {
  double time_s = 0;  ///< arrival, 1 s precision
  std::uint32_t count = 1;
};

/// All survey activity for one IP address, in chronological order.
struct AddressTimeline {
  net::Ipv4Address address;
  std::vector<Request> requests;
  std::vector<UnmatchedResponse> unmatched;
};

/// The grouped dataset.
class SurveyDataset {
 public:
  /// Groups a record log. Records must be in the order the prober emitted
  /// them (append order == event order), which keeps each per-address
  /// vector sorted without a sort pass. Reads the log twice: once to count
  /// each address's records, once to fill vectors allocated at that size.
  static SurveyDataset from_log(const probe::RecordLog& log);

  [[nodiscard]] const std::vector<AddressTimeline>& timelines() const { return timelines_; }

  /// Timeline for one address, or nullptr.
  [[nodiscard]] const AddressTimeline* find(net::Ipv4Address addr) const;

  [[nodiscard]] std::size_t address_count() const { return timelines_.size(); }

 private:
  std::vector<AddressTimeline> timelines_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
};

}  // namespace turtle::analysis
