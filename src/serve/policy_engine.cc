#include "serve/policy_engine.h"

#include <thread>
#include <utility>

#include "util/check.h"

namespace turtle::serve {

PolicyEngine::PolicyEngine(PolicyEngineConfig config,
                           std::shared_ptr<const OracleSnapshot> snapshot)
    : config_{std::move(config)},
      snapshot_{std::move(snapshot)},
      owner_{std::this_thread::get_id()} {
  TURTLE_CHECK_GT(config_.max_tracked_blocks, 0u);
  TURTLE_CHECK(config_.registry != nullptr);
  obs::Registry& registry = *config_.registry;
  decisions_ = &registry.counter(config_.metric_prefix + ".decisions");
  timeouts_ = &registry.counter(config_.metric_prefix + ".timeouts");
  correct_waits_ = &registry.counter(config_.metric_prefix + ".correct_waits");
  static_tally_ = make_tally("static_table2");
}

PolicyEngine::Tally PolicyEngine::make_tally(const std::string& name) {
  obs::Registry& registry = *config_.registry;
  const std::string base = config_.metric_prefix + "." + name + ".";
  Tally tally;
  tally.decisions = &registry.counter(base + "decisions");
  tally.timeouts = &registry.counter(base + "timeouts");
  tally.false_timeouts = &registry.counter(base + "false_timeouts");
  tally.correct_waits = &registry.counter(base + "correct_waits");
  tally.wait_us = &registry.counter(base + "wait_us");
  tally.excess_wait_us = &registry.counter(base + "excess_wait_us");
  tally.evictions = &registry.counter(base + "evictions");
  tally.estimator_resets = &registry.counter(base + "estimator_resets");
  return tally;
}

void PolicyEngine::register_policy(std::unique_ptr<core::OnlinePolicy> policy) {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "PolicyEngine used off its thread";
  TURTLE_CHECK(policy != nullptr);
  PolicyState state;
  state.tally = make_tally(policy->name());
  state.policy = std::move(policy);
  policies_.push_back(std::move(state));
}

void PolicyEngine::score(const Tally& tally, SimTime give_up,
                         const PolicyObservation& observation) {
  tally.decisions->inc();
  decisions_->inc();
  if (observation.responded && observation.rtt <= give_up) {
    tally.correct_waits->inc();
    correct_waits_->inc();
    tally.wait_us->inc(static_cast<std::uint64_t>(observation.rtt.as_micros()));
    tally.excess_wait_us->inc(
        static_cast<std::uint64_t>((give_up - observation.rtt).as_micros()));
  } else {
    tally.timeouts->inc();
    timeouts_->inc();
    tally.wait_us->inc(static_cast<std::uint64_t>(give_up.as_micros()));
    // A timeout whose response did arrive — just beyond the policy's
    // give-up bound — is the paper's false timeout.
    if (observation.responded) tally.false_timeouts->inc();
  }
}

void PolicyEngine::observe(const PolicyObservation& observation) {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "PolicyEngine used off its thread";
  // The static baseline gives up at the frozen snapshot's answer, or at
  // once when there is no snapshot.
  SimTime static_give_up;
  if (snapshot_ != nullptr) {
    static_give_up =
        snapshot_->lookup(observation.addr, config_.addr_coverage, config_.ping_coverage)
            .timeout;
  }
  score(static_tally_, static_give_up, observation);
  const std::uint32_t network = net::Prefix24::containing(observation.addr).network();
  for (PolicyState& state : policies_) {
    Entry& entry = touch(state, network);
    // Decide first, learn second: the scored decision is what the policy
    // prescribed *before* this observation existed.
    score(state.tally, entry.estimator->decide().give_up_after, observation);
    if (observation.responded) {
      entry.estimator->on_rtt(observation.rtt, observation.retransmitted);
    } else {
      entry.estimator->on_timeout();
    }
    if (const std::uint64_t shifts = entry.estimator->level_shifts();
        shifts > entry.seen_level_shifts) {
      state.tally.estimator_resets->inc(shifts - entry.seen_level_shifts);
      entry.seen_level_shifts = shifts;
    }
  }
}

PolicyEngine::Entry& PolicyEngine::touch(PolicyState& state, std::uint32_t network) {
  if (const auto it = state.entries.find(network); it != state.entries.end()) {
    state.lru.splice(state.lru.begin(), state.lru, it->second.lru_it);
    return it->second;
  }
  state.lru.push_front(network);
  Entry entry;
  entry.estimator = state.policy->make_estimator();
  entry.lru_it = state.lru.begin();
  const auto [it, inserted] = state.entries.emplace(network, std::move(entry));
  TURTLE_DCHECK(inserted);
  if (state.entries.size() > config_.max_tracked_blocks) {
    // max_tracked_blocks >= 1, so the LRU tail is never the entry just
    // inserted at the front.
    const std::uint32_t victim = state.lru.back();
    state.lru.pop_back();
    state.entries.erase(victim);
    state.tally.evictions->inc();
  }
  return it->second;
}

std::vector<PolicyObservation> observations_from_log(const probe::RecordLog& log,
                                                     SimTime max_delay) {
  // Unmatched arrivals per source address, in log (= arrival) order, with
  // the coalesced count still to consume.
  struct Arrival {
    SimTime time;
    std::uint32_t remaining;
  };
  std::map<std::uint32_t, std::vector<Arrival>> unmatched;
  for (const probe::SurveyRecord& record : log.records()) {
    if (record.type == probe::RecordType::kUnmatched) {
      unmatched[record.address.value()].push_back({record.probe_time, record.count});
    }
  }

  std::vector<PolicyObservation> observations;
  for (const probe::SurveyRecord& record : log.records()) {
    switch (record.type) {
      case probe::RecordType::kMatched: {
        PolicyObservation o;
        o.addr = record.address;
        o.responded = true;
        o.rtt = record.rtt;
        observations.push_back(o);
        break;
      }
      case probe::RecordType::kTimeout: {
        PolicyObservation o;
        o.addr = record.address;
        if (const auto it = unmatched.find(record.address.value());
            it != unmatched.end()) {
          for (Arrival& arrival : it->second) {
            if (arrival.remaining == 0 || arrival.time < record.probe_time) continue;
            // Arrivals are time-ordered: past the window, every later one
            // is too.
            if (arrival.time - record.probe_time > max_delay) break;
            --arrival.remaining;
            o.responded = true;
            o.rtt = arrival.time - record.probe_time;
            o.retransmitted = true;
            break;
          }
        }
        observations.push_back(o);
        break;
      }
      case probe::RecordType::kUnmatched:
      case probe::RecordType::kError:
        break;
    }
  }
  return observations;
}

}  // namespace turtle::serve
