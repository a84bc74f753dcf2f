#include "analysis/dataset.h"

#include <algorithm>

namespace turtle::analysis {

SurveyDataset SurveyDataset::from_log(const probe::RecordLog& log) {
  SurveyDataset ds;
  // First pass: number the addresses in order of first appearance and
  // count each one's requests and unmatched responses, so that every
  // vector below is allocated once, at its final size.
  struct Counts {
    net::Ipv4Address address;
    std::uint32_t requests = 0;
    std::uint32_t unmatched = 0;
  };
  std::vector<Counts> counts;
  for (const probe::SurveyRecord& rec : log.records()) {
    const auto [it, inserted] = ds.index_.try_emplace(rec.address.value(), counts.size());
    if (inserted) counts.push_back(Counts{rec.address});
    Counts& n = counts[it->second];
    if (rec.type == probe::RecordType::kUnmatched) {
      ++n.unmatched;
    } else {
      ++n.requests;
    }
  }
  ds.timelines_.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    AddressTimeline& tl = ds.timelines_[i];
    tl.address = counts[i].address;
    tl.requests.reserve(counts[i].requests);
    tl.unmatched.reserve(counts[i].unmatched);
  }

  for (const probe::SurveyRecord& rec : log.records()) {
    AddressTimeline& tl = ds.timelines_[ds.index_.find(rec.address.value())->second];
    switch (rec.type) {
      case probe::RecordType::kMatched: {
        Request r;
        r.time_s = rec.probe_time.as_seconds();
        r.round = rec.round;
        r.state = RequestState::kMatched;
        r.rtt_s = rec.rtt.as_seconds();
        tl.requests.push_back(r);
        break;
      }
      case probe::RecordType::kTimeout: {
        Request r;
        r.time_s = rec.probe_time.as_seconds();
        r.round = rec.round;
        r.state = RequestState::kTimedOut;
        tl.requests.push_back(r);
        break;
      }
      case probe::RecordType::kError: {
        Request r;
        r.time_s = rec.probe_time.as_seconds();
        r.round = rec.round;
        r.state = RequestState::kError;
        tl.requests.push_back(r);
        break;
      }
      case probe::RecordType::kUnmatched: {
        tl.unmatched.push_back(UnmatchedResponse{rec.probe_time.as_seconds(), rec.count});
        break;
      }
    }
  }

  // Timeout records are emitted 3 s after their probe, so a timed-out
  // request can appear *after* a matched request that was actually sent
  // later. Restore per-address send-time order. Unmatched responses are
  // sorted too: log order is arrival order on clean data, but a
  // silently-corrupted timestamp (or a crash/resume splice) can break
  // monotonicity, and the attribution cursor walk requires it.
  for (AddressTimeline& tl : ds.timelines_) {
    std::stable_sort(tl.requests.begin(), tl.requests.end(),
                     [](const Request& a, const Request& b) { return a.time_s < b.time_s; });
    std::stable_sort(tl.unmatched.begin(), tl.unmatched.end(),
                     [](const UnmatchedResponse& a, const UnmatchedResponse& b) {
                       return a.time_s < b.time_s;
                     });
  }
  return ds;
}

const AddressTimeline* SurveyDataset::find(net::Ipv4Address addr) const {
  const auto it = index_.find(addr.value());
  if (it == index_.end()) return nullptr;
  return &timelines_[it->second];
}

}  // namespace turtle::analysis
