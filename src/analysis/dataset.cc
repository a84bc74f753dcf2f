#include "analysis/dataset.h"

#include <algorithm>
#include <bit>
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

std::size_t SurveyDataset::Index::home(std::uint32_t address) const {
  return static_cast<std::size_t>((std::uint64_t{address} * 0x9E3779B97F4A7C15ull) >> shift_);
}

void SurveyDataset::Index::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.number == kNone) continue;
    std::size_t i = home(slot.address);
    while (slots_[i].number != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::pair<std::uint32_t, bool> SurveyDataset::Index::try_emplace(std::uint32_t address,
                                                                 std::uint32_t next) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(address);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.number == kNone) {
      slot = Slot{address, next};
      ++size_;
      return {next, true};
    }
    if (slot.address == address) return {slot.number, false};
  }
}

std::uint32_t SurveyDataset::Index::find(std::uint32_t address) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(address);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.number == kNone || slot.address == address) return slot.number;
  }
}

SurveyDataset SurveyDataset::from_log(const probe::RecordLog& log) {
  return from_records([&log](const auto& visit) {
    for (const probe::SurveyRecord& record : log.records()) visit(record);
  });
}

// First pass: number the addresses in order of first appearance, count
// each one's requests, matched RTTs and unmatched responses, and mark the
// ones that answered for a timeline.
void SurveyDataset::count(const probe::SurveyRecord& record, std::vector<Fill>& fills) {
  TURTLE_CHECK_LT(fills.size(), Index::kNone);
  const auto [number, inserted] =
      index_.try_emplace(record.address.value(), static_cast<std::uint32_t>(fills.size()));
  if (inserted) fills.push_back(Fill{record.address});
  Fill& fill = fills[number];
  if (answered(record.type)) fill.timeline = 0;  // numbered by allocate()
  if (record.type == probe::RecordType::kUnmatched) {
    ++fill.unmatched;
  } else {
    ++fill.requests;
    if (record.type == probe::RecordType::kMatched) ++fill.rtts;
  }
}

// Between the passes: number the answering addresses' timelines, allocate
// each array once, at its final size, lay their runs end to end, and point
// each fill at its run's first slots. A silent address gets no timeline
// and no slots.
void SurveyDataset::allocate(std::vector<Fill>& fills) {
  std::size_t requests = 0;
  std::size_t rtts = 0;
  std::size_t unmatched = 0;
  std::uint32_t timelines = 0;
  for (Fill& fill : fills) {
    if (fill.timeline == kNoTimeline) continue;
    fill.timeline = timelines++;
    requests += fill.requests;
    rtts += fill.rtts;
    unmatched += fill.unmatched;
  }
  requests_.resize(requests);
  rtts_s_.resize(rtts);
  unmatched_.resize(unmatched);

  timelines_.reserve(timelines);
  requests = rtts = unmatched = 0;
  for (Fill& fill : fills) {
    if (fill.timeline == kNoTimeline) continue;
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

// Second pass: each record goes to the next free slot of its timeline's run;
// a silent address's record goes nowhere but is counted down. The checks
// keep a source that changed between the passes inside the arrays; finish()
// then reports it.
void SurveyDataset::place(const probe::SurveyRecord& record, std::vector<Fill>& fills) {
  const std::uint32_t number = index_.find(record.address.value());
  TURTLE_CHECK(number != Index::kNone) << "record source changed between grouping's passes";
  Fill& fill = fills[number];
  if (fill.timeline == kNoTimeline) {
    TURTLE_CHECK(!answered(record.type) && fill.requests > 0)
        << "record source changed between grouping's passes";
    --fill.requests;
    return;
  }
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
  for (const Fill& fill : fills) {
    if (fill.timeline == kNoTimeline) {
      TURTLE_CHECK(fill.requests == 0) << "record source changed between grouping's passes";
      continue;
    }
    const AddressTimeline& tl = timelines_[fill.timeline];
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

  // The index now names timelines, and a silent address has none.
  index_ = Index{};
  for (std::uint32_t i = 0; i < timelines_.size(); ++i) {
    index_.try_emplace(timelines_[i].address.value(), i);
  }
}

const AddressTimeline* SurveyDataset::find(net::Ipv4Address addr) const {
  const std::uint32_t timeline = index_.find(addr.value());
  return timeline == Index::kNone ? nullptr : &timelines_[timeline];
}

}  // namespace turtle::analysis
