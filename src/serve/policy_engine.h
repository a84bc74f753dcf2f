// PolicyEngine: scores adaptive timeout policies, and the static Table-2
// oracle beside them, against ground-truth observations.
//
// Each registered core::OnlinePolicy gets a bounded per-/24 working set of
// estimator state (LRU with counted eviction — the same prober-state-cost
// argument the snapshot makes, Section 2.1). Ground-truth observations
// extracted from a survey log flow in through observe(), the one entry
// point: for every observation the engine first asks each policy what it
// *would have* decided, scores that decision, and only then lets the
// estimator learn — a decision must never see its own outcome.
//
// Ledger contract, in the injected == observed spirit of the fault and
// serving ledgers: for the aggregate and for every policy (the static
// baseline included),
//
//   <prefix>[.<name>].decisions ==
//       <prefix>[.<name>].timeouts + <prefix>[.<name>].correct_waits
//
// with false_timeouts <= timeouts (a false timeout is a timeout whose
// response did eventually arrive). wait_us accumulates what the policy
// actually waited (the rtt on a correct wait, the full give-up on a
// timeout); excess_wait_us accumulates give_up - rtt on correct waits —
// the state the policy was prepared to hold beyond the response, the
// paper's cost of listening longer. scripts/validate_obs.py --policy
// asserts all of it.
//
// Thread contract: an engine is used only on the thread that built it,
// and holds no lock. In the sharded tournament each shard builds and
// drives a private engine over its private registry (merged in shard
// order), so every counter is byte-identical across --jobs. Debug builds
// check the contract with a TURTLE_DCHECK in each public entry point.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/online_policy.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probe/records.h"
#include "serve/oracle_snapshot.h"
#include "util/sim_time.h"

namespace turtle::serve {

struct PolicyEngineConfig {
  /// Bound on tracked /24 estimator entries per policy (LRU; evictions
  /// are counted under <prefix>.<name>.evictions, never silent).
  std::size_t max_tracked_blocks = 4096;

  /// Counter namespace, e.g. "policy" or "policy.loss_burst" — the
  /// tournament runs one engine per scenario, disjoint by prefix.
  std::string metric_prefix = "policy";

  /// Coverage targets for the static baseline's snapshot lookups (same
  /// semantics as serve::Request).
  double addr_coverage = 95.0;
  double ping_coverage = 95.0;

  /// Metrics sink; required.
  obs::Registry* registry = nullptr;
};

/// One ground-truth observation: what actually happened to one probe of
/// `addr`, against which every policy's decision is scored.
struct PolicyObservation {
  net::Ipv4Address addr;
  /// True when any response arrived, however late.
  bool responded = false;
  /// Response latency measured from the first probe: µs precision for
  /// in-window matches, 1 s precision for re-attributed delayed responses.
  SimTime rtt;
  /// The response was re-attributed after the survey's match window
  /// expired, i.e. a retransmission was outstanding when it arrived —
  /// Karn-aware estimators treat the sample as ambiguous.
  bool retransmitted = false;
};

class PolicyEngine {
 public:
  /// The static snapshot baseline ("static_table2") is always scored;
  /// adaptive policies join it through register_policy().
  PolicyEngine(PolicyEngineConfig config,
               std::shared_ptr<const OracleSnapshot> snapshot);

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Registers an adaptive policy. Register everything before the first
  /// observation.
  void register_policy(std::unique_ptr<core::OnlinePolicy> policy);

  /// Scores every policy (static baseline included) against one
  /// observation, then lets the adaptive estimators learn from it.
  void observe(const PolicyObservation& observation);

 private:
  /// Per-policy ledger counters, created eagerly so every tournament run
  /// shows the full accounting series (zeros included).
  struct Tally {
    obs::Counter* decisions = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* false_timeouts = nullptr;
    obs::Counter* correct_waits = nullptr;
    obs::Counter* wait_us = nullptr;
    obs::Counter* excess_wait_us = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* estimator_resets = nullptr;
  };

  struct Entry {
    std::unique_ptr<core::OnlineEstimator> estimator;
    std::list<std::uint32_t>::iterator lru_it;
    std::uint64_t seen_level_shifts = 0;
  };

  struct PolicyState {
    std::unique_ptr<core::OnlinePolicy> policy;
    Tally tally;
    /// /24 network -> estimator state; std::map so any iteration order is
    /// deterministic (turtlint D1).
    std::map<std::uint32_t, Entry> entries;
    /// Most-recently-observed block at the front.
    std::list<std::uint32_t> lru;
  };

  [[nodiscard]] Tally make_tally(const std::string& name);
  /// Find-or-create `network`'s estimator for `state`, front of the LRU;
  /// evicts (counted) when the working set overflows.
  Entry& touch(PolicyState& state, std::uint32_t network);
  /// Scores one decision's give-up bound against the observation.
  void score(const Tally& tally, SimTime give_up, const PolicyObservation& observation);

  PolicyEngineConfig config_;
  std::shared_ptr<const OracleSnapshot> snapshot_;
  /// The thread that built the engine, the only one that may use it.
  std::thread::id owner_;

  std::vector<PolicyState> policies_;
  Tally static_tally_;

  // Aggregate ledger across every policy: <prefix>.decisions ==
  // <prefix>.timeouts + <prefix>.correct_waits.
  obs::Counter* decisions_;
  obs::Counter* timeouts_;
  obs::Counter* correct_waits_;
};

/// Extracts per-probe ground truth from a (possibly faulted) survey log:
///   * kMatched   -> responded, µs-precision rtt;
///   * kTimeout   -> responded at 1 s precision when a later kUnmatched
///     arrival from the same address lands within `max_delay` (the same
///     delayed-response re-attribution the analysis pipeline performs,
///     consuming the unmatched record's coalesced count), marked
///     `retransmitted`; otherwise a loss;
///   * kUnmatched beyond every timeout's window and kError are dropped,
///     exactly as the pipeline's filters would.
/// Observations come back in log (i.e. probe) order. The default window
/// matches the pipeline's 660 s round interval.
[[nodiscard]] std::vector<PolicyObservation> observations_from_log(
    const probe::RecordLog& log, SimTime max_delay = SimTime::seconds(660));

}  // namespace turtle::serve
