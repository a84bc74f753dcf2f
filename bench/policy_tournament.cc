// Adaptive-timeout tournament: the static Table-2 oracle vs three online
// estimator policies, scored on the paper's own trade-off (false-timeout
// rate vs mean wait) under clean and adversarial conditions.
//
// Per shard, (1) a clean survey builds the snapshot — the frozen "Table 2"
// answer — once for every scenario. Then per scenario (2) the same seeded
// world reruns under the scenario's fault plan, and the faulted record
// log becomes the ground-truth observation stream (matched responses,
// re-attributed delayed responses, losses — see
// serve::observations_from_log); (3) a PolicyEngine observes the stream
// in probe order, scoring every policy (static baseline included) against
// each observation and then letting the estimators learn from it.
// Decide-before-learn ordering means each policy is judged on what it
// would have prescribed *before* seeing the outcome.
//
// Scenarios: clean, faults_loss_burst, faults_delay_spike,
// faults_block_outage, and the combined faults_policy_mix adversarial
// round. Per-policy ledgers land under policy.<scenario>.<name>.* (see
// scripts/validate_obs.py --policy); the false-timeout-rate vs mean-wait
// matrix lands in the JSON report for BENCH_results.json. Everything runs
// on per-shard private sinks merged in shard order, so stdout and
// --metrics-out are byte-identical across --jobs values (CI cmp-gates it).
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/online_policy.h"
#include "harness.h"
#include "report.h"
#include "serve/oracle_snapshot.h"
#include "serve/policy_engine.h"
#include "util/table.h"

using namespace turtle;

namespace {

struct Scenario {
  std::string name;
  std::string plan_file;  ///< empty = clean
  std::shared_ptr<const fault::FaultPlan> plan;
};

/// The static baseline, then the three adaptive policies in registration
/// order.
constexpr const char* kPolicyNames[] = {"static_table2", "jacobson_karn", "ewma",
                                        "cusum_p99"};

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "policy_tournament"};
  const int blocks = static_cast<int>(flags.get_int("blocks", 40));
  const int rounds = static_cast<int>(flags.get_int("rounds", 8));
  const int shards = static_cast<int>(flags.get_int("shards", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  const std::string plans_dir = flags.get_string("plans-dir", "examples");
  const auto max_tracked =
      static_cast<std::size_t>(flags.get_int("max-tracked", 4096));
  const double addr_coverage = flags.get_double("addr-coverage", 95.0);
  const double ping_coverage = flags.get_double("ping-coverage", 95.0);

  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", "", nullptr});
  scenarios.push_back({"loss_burst", "faults_loss_burst.json", nullptr});
  scenarios.push_back({"delay_spike", "faults_delay_spike.json", nullptr});
  scenarios.push_back({"block_outage", "faults_block_outage.json", nullptr});
  scenarios.push_back({"mix", "faults_policy_mix.json", nullptr});
  for (Scenario& scenario : scenarios) {
    if (scenario.plan_file.empty()) continue;
    scenario.plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::load_file(plans_dir + "/" + scenario.plan_file));
  }

  std::printf("# policy_tournament: %d shards x %zu scenarios x (%d blocks x %d "
              "rounds), %zu policies\n",
              shards, scenarios.size(), blocks, rounds, std::size(kPolicyNames));

  struct ShardResult {
    std::uint64_t events = 0;
    std::uint64_t probes = 0;
  };

  sim::ShardOptions shard_options;
  shard_options.jobs = static_cast<int>(flags.get_int("jobs", 0));
  shard_options.seed = seed;
  bench::wire_obs(shard_options, report);
  sim::ShardRunner runner{shard_options};
  report.set_jobs(runner.jobs());

  const auto results = runner.run(
      static_cast<std::size_t>(shards), [&](sim::ShardContext& ctx) {
        ShardResult result;
        // Phase 1, once per shard: a clean survey of this shard's world
        // builds the static oracle, what Table 2 would have recommended.
        // Its seed depends on the shard alone, so every scenario shares it.
        bench::WorldOptions options;
        options.num_blocks = blocks;
        options.seed = seed + ctx.shard_index;
        options.registry = ctx.registry;
        options.trace = ctx.trace;
        const auto clean_world = bench::make_world(options);
        const auto clean_prober = bench::run_survey(*clean_world, rounds);
        result.events += clean_world->sim.events_processed();
        result.probes += clean_prober.probes_sent();
        const auto snapshot = std::make_shared<const serve::OracleSnapshot>(
            serve::OracleSnapshot::build(clean_prober.log(), {},
                                         &clean_world->population->geo()));

        for (const Scenario& scenario : scenarios) {
          // Phase 2: the same seeded world re-surveyed under the
          // scenario's fault plan; its log is the adversarial ground
          // truth. Clean scenario: the observations are the clean log's.
          std::vector<serve::PolicyObservation> observations;
          if (scenario.plan != nullptr) {
            bench::WorldOptions faulted_options = options;
            faulted_options.fault_plan = scenario.plan;
            faulted_options.fault_seed = fault_seed;
            const auto faulted_world = bench::make_world(faulted_options);
            const auto faulted_prober = bench::run_survey(*faulted_world, rounds);
            result.events += faulted_world->sim.events_processed();
            result.probes += faulted_prober.probes_sent();
            observations = serve::observations_from_log(faulted_prober.log());
          } else {
            observations = serve::observations_from_log(clean_prober.log());
          }

          // Phase 3: the engine scores every policy against each
          // observation, in probe order.
          serve::PolicyEngineConfig engine_config;
          engine_config.max_tracked_blocks = max_tracked;
          engine_config.metric_prefix = "policy." + scenario.name;
          engine_config.addr_coverage = addr_coverage;
          engine_config.ping_coverage = ping_coverage;
          engine_config.registry = ctx.registry;
          serve::PolicyEngine engine{engine_config, snapshot};
          engine.register_policy(std::make_unique<core::JacobsonKarnPolicy>());
          engine.register_policy(std::make_unique<core::EwmaVariancePolicy>());
          engine.register_policy(std::make_unique<core::CusumQuantilePolicy>());
          for (const serve::PolicyObservation& observation : observations) {
            engine.observe(observation);
          }
        }
        return result;
      });

  for (const ShardResult& result : results) {
    report.add_events(result.events);
    report.add_probes(result.probes);
  }

  const auto& counters = report.registry().counters();
  const auto counter = [&counters](const std::string& name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
  };

  // The tournament matrix: per scenario and policy, false-timeout rate vs
  // mean wait — the static oracle is the baseline row of each block.
  for (const Scenario& scenario : scenarios) {
    std::printf("\n## scenario: %s\n", scenario.name.c_str());
    util::TextTable table({"policy", "decisions", "timeouts", "false-timeout rate",
                           "mean wait", "mean excess wait", "evictions", "resets"});
    for (const char* policy : kPolicyNames) {
      const std::string base = "policy." + scenario.name + "." + policy + ".";
      const std::uint64_t decisions = counter(base + "decisions");
      const std::uint64_t timeouts = counter(base + "timeouts");
      const std::uint64_t false_timeouts = counter(base + "false_timeouts");
      const std::uint64_t correct = counter(base + "correct_waits");
      const std::uint64_t wait_us = counter(base + "wait_us");
      const std::uint64_t excess_us = counter(base + "excess_wait_us");
      const double false_rate =
          decisions > 0 ? static_cast<double>(false_timeouts) /
                              static_cast<double>(decisions)
                        : 0.0;
      const double mean_wait_us =
          decisions > 0 ? static_cast<double>(wait_us) / static_cast<double>(decisions)
                        : 0.0;
      const double mean_excess_us =
          correct > 0 ? static_cast<double>(excess_us) / static_cast<double>(correct)
                      : 0.0;
      table.add_row(
          {policy, std::to_string(decisions), std::to_string(timeouts),
           util::format_percent(false_rate),
           SimTime::micros(static_cast<std::int64_t>(mean_wait_us)).to_string(),
           SimTime::micros(static_cast<std::int64_t>(mean_excess_us)).to_string(),
           std::to_string(counter(base + "evictions")),
           std::to_string(counter(base + "estimator_resets"))});
      report.set_metric(scenario.name + "." + policy + ".false_timeout_rate",
                        false_rate);
      report.set_metric(scenario.name + "." + policy + ".mean_wait_us", mean_wait_us);
    }
    table.print(std::cout);
  }

  std::printf("\n# policy ledger: %llu decisions == %llu timeouts + %llu correct "
              "waits (all scenarios)\n",
              static_cast<unsigned long long>(
                  counter("policy.clean.decisions") + counter("policy.loss_burst.decisions") +
                  counter("policy.delay_spike.decisions") +
                  counter("policy.block_outage.decisions") + counter("policy.mix.decisions")),
              static_cast<unsigned long long>(
                  counter("policy.clean.timeouts") + counter("policy.loss_burst.timeouts") +
                  counter("policy.delay_spike.timeouts") +
                  counter("policy.block_outage.timeouts") + counter("policy.mix.timeouts")),
              static_cast<unsigned long long>(
                  counter("policy.clean.correct_waits") +
                  counter("policy.loss_burst.correct_waits") +
                  counter("policy.delay_spike.correct_waits") +
                  counter("policy.block_outage.correct_waits") +
                  counter("policy.mix.correct_waits")));
  return 0;
}
