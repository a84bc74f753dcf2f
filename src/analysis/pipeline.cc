#include "analysis/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace turtle::analysis {

namespace {

/// The pipeline's working state for one request, kept beside the timeline
/// rather than in it, so the dataset stays read-only and a Request small.
struct RequestScratch {
  /// Total responses attributed to the request (matched + unmatched
  /// arriving before the next request).
  std::uint32_t responses = 0;
  /// A delayed (unmatched) response was paired with the request.
  bool consumed_by_delayed = false;
};

/// Attribution pass for one address: walks requests and unmatched
/// responses together, attributing each unmatched response to the most
/// recent request at or before it. Returns the delayed-response samples
/// (latency in seconds) and fills `scratch`, one entry per request, with
/// per-request response counts.
struct Attribution {
  std::vector<double> delayed_rtts;
  /// (round index of the last request, latency since that request) for
  /// every unmatched response — the broadcast filter's raw material.
  struct SinceLast {
    std::uint32_t round;
    double latency_s;
  };
  std::vector<SinceLast> since_last;
  std::uint64_t attributed_responses = 0;  ///< unmatched packets with a prior request
  /// Responses discarded as structurally impossible (negative latency
  /// against every candidate request). Zero on clean data; nonzero only
  /// when silently-corrupted records slip past the loader's structural
  /// checks. Counted, skipped, never fatal.
  std::uint64_t dropped_responses = 0;
};

Attribution attribute(const AddressTimeline& tl, std::vector<RequestScratch>& scratch) {
  scratch.clear();
  for (const Request& r : tl.requests) {
    scratch.push_back({r.state == RequestState::kMatched ? 1u : 0u, false});
  }
  Attribution out;
  std::size_t req = 0;  // index of the first request *after* the cursor
  for (const UnmatchedResponse& um : tl.unmatched) {
    // Unmatched timestamps carry only 1 s precision, so the comparison
    // must be at second granularity too: a response logged in the same
    // second as a µs-precise request belongs to that request, not to the
    // previous round's (which would manufacture a ~660 s false latency).
    while (req < tl.requests.size() && std::floor(tl.requests[req].time_s) <= um.time_s) {
      ++req;
    }
    if (req == 0) continue;  // response before any request: ignore entirely
    const Request& last = tl.requests[req - 1];
    RequestScratch& last_scratch = scratch[req - 1];
    TURTLE_DCHECK_GT(um.count, 0u);
    const double latency = um.time_s - std::floor(last.time_s);  // 1 s precision
    if (latency < 0.0) {
      // The cursor walk guarantees the attributed request precedes the
      // response on clean data; a negative latency can only come from a
      // silently-corrupted timestamp and would fabricate tail mass.
      // Graceful degradation: count it and move on — one bad record must
      // not abort a whole survey analysis.
      out.dropped_responses += um.count;
      continue;
    }
    last_scratch.responses += um.count;
    out.attributed_responses += um.count;
    out.since_last.push_back({last.round, latency});
    if (last.state == RequestState::kTimedOut && !last_scratch.consumed_by_delayed) {
      last_scratch.consumed_by_delayed = true;
      out.delayed_rtts.push_back(latency);
    }
  }
  return out;
}

bool flags_broadcast(const std::vector<Attribution::SinceLast>& since_last,
                     const PipelineConfig& cfg) {
  // EWMA over rounds: x = 1 when this round has a >= 10 s unmatched
  // response of similar latency to one in the previous round, else 0.
  // Flag when the running average (starting from zero) ever exceeds the
  // threshold — intermittent responders are caught via the max.
  util::Ewma ewma{cfg.broadcast_alpha, 0.0};
  bool have_prev = false;
  std::uint32_t prev_round = 0;
  double prev_latency = 0;
  bool flagged = false;

  for (const auto& s : since_last) {
    if (s.latency_s < cfg.broadcast_min_latency_s) continue;
    if (have_prev && s.round == prev_round) continue;  // one observation per round
    const bool similar = have_prev && s.round == prev_round + 1 &&
                         std::abs(s.latency_s - prev_latency) <= cfg.broadcast_similarity_s;
    ewma.update(similar ? 1.0 : 0.0);
    if (ewma.max_value() > cfg.broadcast_flag_threshold) flagged = true;
    have_prev = true;
    prev_round = s.round;
    prev_latency = s.latency_s;
  }
  return flagged;
}

}  // namespace

PipelineResult run_pipeline(const SurveyDataset& dataset, const PipelineConfig& config) {
  TURTLE_CHECK_GT(config.broadcast_alpha, 0.0);
  TURTLE_CHECK_LE(config.broadcast_alpha, 1.0);
  TURTLE_CHECK_GT(config.broadcast_flag_threshold, 0.0);
  TURTLE_CHECK_GE(config.broadcast_min_latency_s, 0.0);
  TURTLE_CHECK_GE(config.broadcast_similarity_s, 0.0);
  TURTLE_CHECK_GT(config.round_interval_s, 0.0);

  // turtlint: allow(D2) span_wall input; wall track never enters deterministic output
  const auto wall_start = std::chrono::steady_clock::now();

  PipelineResult result;
  PipelineCounters& c = result.counters;

  std::vector<RequestScratch> scratch;  // reused across addresses
  for (const AddressTimeline& tl : dataset.timelines()) {
    const Attribution attr = attribute(tl, scratch);
    c.dropped_packets += attr.dropped_responses;

    const auto survey_detected = static_cast<std::uint32_t>(tl.rtts_s.size());
    std::uint32_t timeouts = 0;
    std::uint32_t max_responses = 0;
    for (const Request& r : tl.requests) {
      if (r.state == RequestState::kTimedOut) ++timeouts;
    }
    for (const RequestScratch& r : scratch) max_responses = std::max(max_responses, r.responses);

    if (survey_detected > 0) {
      c.survey_detected_packets += survey_detected;
      ++c.survey_detected_addresses;
    }
    const std::uint64_t naive_here = survey_detected + attr.attributed_responses;
    if (naive_here > 0) {
      c.naive_packets += naive_here;
      ++c.naive_addresses;
    }
    if (naive_here == 0) continue;  // never responded: not an address in any row

    const bool bc = config.filter_broadcast && flags_broadcast(attr.since_last, config);
    if (bc) {
      c.broadcast_packets += naive_here;
      ++c.broadcast_addresses;
      result.broadcast_flagged.push_back(tl.address);
      continue;
    }
    const bool dup =
        config.filter_duplicates && max_responses > config.max_responses_per_request;
    if (dup) {
      c.duplicate_packets += naive_here;
      ++c.duplicate_addresses;
      result.duplicate_flagged.push_back(tl.address);
      continue;
    }

    AddressReport report;
    report.address = tl.address;
    report.survey_detected = survey_detected;
    report.delayed = static_cast<std::uint32_t>(attr.delayed_rtts.size());
    report.requests = static_cast<std::uint32_t>(tl.requests.size());
    report.timeouts = timeouts;
    report.max_responses_single_request = max_responses;

    report.rtts_s.reserve(survey_detected + attr.delayed_rtts.size());
    report.rtts_s.assign(tl.rtts_s.begin(), tl.rtts_s.end());
    report.rtts_s.insert(report.rtts_s.end(), attr.delayed_rtts.begin(),
                         attr.delayed_rtts.end());

    if (!report.rtts_s.empty()) {
      c.combined_packets += report.rtts_s.size();
      ++c.combined_addresses;
      result.addresses.push_back(std::move(report));
    }
  }

  // Publish Table 1 as live metrics, bit-equal to the returned counters.
  // Done once after the loop, so a registry never perturbs the analysis.
  if (config.registry != nullptr) {
    obs::Registry& reg = *config.registry;
    reg.counter("pipeline.survey_detected.packets").inc(c.survey_detected_packets);
    reg.counter("pipeline.survey_detected.addresses").inc(c.survey_detected_addresses);
    reg.counter("pipeline.naive.packets").inc(c.naive_packets);
    reg.counter("pipeline.naive.addresses").inc(c.naive_addresses);
    reg.counter("pipeline.broadcast.packets").inc(c.broadcast_packets);
    reg.counter("pipeline.broadcast.addresses").inc(c.broadcast_addresses);
    reg.counter("pipeline.duplicate.packets").inc(c.duplicate_packets);
    reg.counter("pipeline.duplicate.addresses").inc(c.duplicate_addresses);
    reg.counter("pipeline.combined.packets").inc(c.combined_packets);
    reg.counter("pipeline.combined.addresses").inc(c.combined_addresses);
    // Created only when nonzero: a clean run's metrics dump must stay
    // byte-identical to one produced before the fault layer existed.
    if (c.dropped_packets > 0) {
      reg.counter("pipeline.dropped.packets").inc(c.dropped_packets);
    }
  }
  TURTLE_TRACE(config.trace,
               span_wall("analysis.pipeline", "pipeline",
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             // turtlint: allow(D2) span_wall input; separate wall track
                             std::chrono::steady_clock::now() - wall_start)
                             .count()));
  return result;
}

}  // namespace turtle::analysis
