#include "analysis/dataset.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace turtle::analysis {

namespace {

constexpr auto kByTime = [](const auto& a, const auto& b) { return a.time_s < b.time_s; };

/// `part`, a view into `array`, made writable.
template <typename T>
std::span<T> writable(std::vector<T>& array, std::span<const T> part) {
  return {array.data() + (part.data() - array.data()), part.size()};
}

/// The index in `array` just past `part`, a view into it.
template <typename T>
std::size_t end_index(const std::vector<T>& array, std::span<const T> part) {
  return static_cast<std::size_t>(part.data() - array.data()) + part.size();
}

/// Stable-sorts one timeline's requests by send time, each matched
/// request's RTT moving with it. `scratch` is reused across timelines.
void sort_requests(std::span<Request> requests, std::span<double> rtts_s,
                   std::vector<std::pair<Request, double>>& scratch) {
  scratch.clear();
  std::size_t matched = 0;
  for (const Request& r : requests) {
    scratch.emplace_back(r, r.state == RequestState::kMatched ? rtts_s[matched++] : 0.0);
  }
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const auto& a, const auto& b) { return kByTime(a.first, b.first); });
  matched = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i] = scratch[i].first;
    if (requests[i].state == RequestState::kMatched) rtts_s[matched++] = scratch[i].second;
  }
}

}  // namespace

SurveyDataset SurveyDataset::from_log(const probe::RecordLog& log) {
  return from_records([&log](const auto& visit) {
    for (const probe::SurveyRecord& record : log.records()) visit(record);
  });
}

// First pass: number the addresses in order of first appearance and count
// each one's requests, matched RTTs and unmatched responses.
void SurveyDataset::count(const probe::SurveyRecord& record, std::vector<Fill>& fills) {
  const auto [it, inserted] = index_.try_emplace(record.address.value(), fills.size());
  if (inserted) fills.push_back(Fill{record.address});
  Fill& fill = fills[it->second];
  if (record.type == probe::RecordType::kUnmatched) {
    ++fill.unmatched;
  } else {
    ++fill.requests;
    if (record.type == probe::RecordType::kMatched) ++fill.rtts;
  }
}

// Between the passes: allocate each array once, at its final size, lay the
// timelines' runs end to end, and point each fill at its run's first slots.
void SurveyDataset::allocate(std::vector<Fill>& fills) {
  std::size_t requests = 0;
  std::size_t rtts = 0;
  std::size_t unmatched = 0;
  for (const Fill& fill : fills) {
    requests += fill.requests;
    rtts += fill.rtts;
    unmatched += fill.unmatched;
  }
  requests_.resize(requests);
  rtts_s_.resize(rtts);
  unmatched_.resize(unmatched);

  timelines_.reserve(fills.size());
  requests = rtts = unmatched = 0;
  for (Fill& fill : fills) {
    const Fill counted = fill;
    timelines_.push_back(AddressTimeline{
        counted.address,
        {requests_.data() + requests, counted.requests},
        {rtts_s_.data() + rtts, counted.rtts},
        {unmatched_.data() + unmatched, counted.unmatched},
    });
    fill.requests = requests;
    fill.rtts = rtts;
    fill.unmatched = unmatched;
    requests += counted.requests;
    rtts += counted.rtts;
    unmatched += counted.unmatched;
  }
}

// Second pass: each record goes to the next free slot of its timeline's run.
// The checks keep a source that changed between the passes inside the
// arrays; finish() then reports it.
void SurveyDataset::place(const probe::SurveyRecord& record, std::vector<Fill>& fills) {
  const auto it = index_.find(record.address.value());
  TURTLE_CHECK(it != index_.end()) << "record source changed between grouping's passes";
  Fill& fill = fills[it->second];
  const double time_s = record.probe_time.as_seconds();
  RequestState state = RequestState::kError;
  switch (record.type) {
    case probe::RecordType::kUnmatched:
      TURTLE_CHECK(fill.unmatched < unmatched_.size());
      unmatched_[fill.unmatched++] = UnmatchedResponse{time_s, record.count};
      return;
    case probe::RecordType::kMatched:
      TURTLE_CHECK(fill.rtts < rtts_s_.size());
      rtts_s_[fill.rtts++] = record.rtt.as_seconds();
      state = RequestState::kMatched;
      break;
    case probe::RecordType::kTimeout:
      state = RequestState::kTimedOut;
      break;
    case probe::RecordType::kError:
      break;
  }
  TURTLE_CHECK(fill.requests < requests_.size());
  requests_[fill.requests++] = Request{time_s, record.round, state};
}

void SurveyDataset::finish(const std::vector<Fill>& fills) {
  std::vector<std::pair<Request, double>> scratch;  // reused across timelines
  for (std::size_t i = 0; i < timelines_.size(); ++i) {
    const AddressTimeline& tl = timelines_[i];
    const Fill& fill = fills[i];
    TURTLE_CHECK(fill.requests == end_index(requests_, tl.requests) &&
                 fill.rtts == end_index(rtts_s_, tl.rtts_s) &&
                 fill.unmatched == end_index(unmatched_, tl.unmatched))
        << "record source changed between grouping's passes";

    // Timeout records are emitted 3 s after their probe, so a timed-out
    // request can appear *after* a matched request that was actually sent
    // later. Restore per-address send-time order. Unmatched responses are
    // sorted too: log order is arrival order on clean data, but a
    // silently-corrupted timestamp (or a crash/resume splice) can break
    // monotonicity, and the attribution cursor walk requires it. A
    // timeline already in order is left as it is, which is what a stable
    // sort would leave.
    if (!std::is_sorted(tl.requests.begin(), tl.requests.end(), kByTime)) {
      sort_requests(writable(requests_, tl.requests), writable(rtts_s_, tl.rtts_s), scratch);
    }
    if (!std::is_sorted(tl.unmatched.begin(), tl.unmatched.end(), kByTime)) {
      const std::span<UnmatchedResponse> unmatched = writable(unmatched_, tl.unmatched);
      std::stable_sort(unmatched.begin(), unmatched.end(), kByTime);
    }
  }
}

const AddressTimeline* SurveyDataset::find(net::Ipv4Address addr) const {
  const auto it = index_.find(addr.value());
  if (it == index_.end()) return nullptr;
  return &timelines_[it->second];
}

}  // namespace turtle::analysis
