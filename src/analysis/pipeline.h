// The paper's matching-and-filtering pipeline (Sections 3.3 and 4.1).
//
// Input: per-address timelines. Output: per-address latency sample sets
// combining survey-detected responses with re-matched delayed responses,
// after discarding broadcast responders and duplicate/DoS responders —
// plus the counters of Table 1.
//
// Stages, in the paper's order:
//  1. Attribution: each unmatched response is attributed to the most
//     recent request to the same source; a timed-out, not-yet-consumed
//     request yields a *delayed response* with 1 s-precision latency.
//  2. Broadcast filter: a source whose unmatched responses show stable
//     >= 10 s "latency since last request" round after round is flagged
//     via an EWMA (alpha = 0.01, flag when the running average ever
//     exceeds 0.2) and all its responses are discarded.
//  3. Duplicate filter: an address that ever produced more than 4
//     responses to a single request is discarded entirely.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/dataset.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace turtle::analysis {

struct PipelineConfig {
  /// Broadcast filter (paper Section 3.3.1).
  double broadcast_min_latency_s = 10.0;
  double broadcast_alpha = 0.01;
  double broadcast_flag_threshold = 0.2;
  /// "Similar latency" tolerance between consecutive rounds, seconds.
  double broadcast_similarity_s = 5.0;
  /// Survey round interval, used to decide what "the previous round" is.
  double round_interval_s = 660.0;

  /// Duplicate filter (Section 3.3.2): discard an address that ever sent
  /// more than this many responses to one request.
  std::uint32_t max_responses_per_request = 4;

  /// Apply the filters (disabled for the "naive matching" row of Table 1
  /// and the before/after comparison of Figure 6).
  bool filter_broadcast = true;
  bool filter_duplicates = true;

  /// Optional metrics sink: run_pipeline publishes the Table 1 counters
  /// under "pipeline.<row>.packets" / "pipeline.<row>.addresses" (rows:
  /// survey_detected, naive, broadcast, duplicate, combined), exactly
  /// equal to the returned PipelineCounters.
  obs::Registry* registry = nullptr;
  /// Optional trace sink: one wall-clock span per run_pipeline call on the
  /// analysis track (pid 1 — the pipeline runs outside simulated time).
  obs::TraceSink* trace = nullptr;
};

/// Final per-address latency report.
struct AddressReport {
  net::Ipv4Address address;
  /// Combined latency samples, seconds: µs-precision survey-detected plus
  /// 1 s-precision delayed responses, in time order.
  std::vector<double> rtts_s;
  std::uint32_t survey_detected = 0;
  std::uint32_t delayed = 0;
  std::uint32_t requests = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t max_responses_single_request = 0;
};

/// Table 1 counters.
struct PipelineCounters {
  std::uint64_t survey_detected_packets = 0;
  std::uint64_t survey_detected_addresses = 0;
  std::uint64_t naive_packets = 0;  ///< survey-detected + every attribution
  std::uint64_t naive_addresses = 0;
  std::uint64_t broadcast_packets = 0;   ///< responses from flagged sources
  std::uint64_t broadcast_addresses = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t duplicate_addresses = 0;
  std::uint64_t combined_packets = 0;  ///< survey-detected + delayed, kept
  std::uint64_t combined_addresses = 0;
  /// Responses discarded as structurally impossible (negative attribution
  /// latency). Always zero on clean data; nonzero only when
  /// silently-corrupted records survive the loader. Published as
  /// "pipeline.dropped.packets" only when nonzero.
  std::uint64_t dropped_packets = 0;
};

struct PipelineResult {
  std::vector<AddressReport> addresses;
  PipelineCounters counters;
  /// Addresses the broadcast filter flagged (for validation against the
  /// population's ground truth / the Zmap cross-check of Section 3.3.1).
  std::vector<net::Ipv4Address> broadcast_flagged;
  std::vector<net::Ipv4Address> duplicate_flagged;
};

/// Runs the full pipeline.
[[nodiscard]] PipelineResult run_pipeline(const SurveyDataset& dataset,
                                          const PipelineConfig& config);

}  // namespace turtle::analysis
