// Ablation: the paper's closing recommendation, quantified. Five timeout
// policies drive the outage detector against the same (never actually
// offline) population, so every declared outage is false. Expected shape:
//  * fixed 1-3 s timeouts falsely flag a noticeable fraction of cellular
//    checks (wake-up latency mistaken for loss);
//  * the same fixed budget with a 60 s listening window ("listen-longer",
//    the paper's recommendation) eliminates most false outages at modest
//    extra state, with late saves accounting for the difference;
//  * per-destination adaptive timeouts reduce retransmissions too.
#include <iostream>

#include "core/outage_detector.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "ablation_timeout_policy"};
  auto options = bench::world_options_from_flags(flags, 120);
  bench::wire_obs(options, report);
  const int rounds = static_cast<int>(flags.get_int("rounds", 12));

  // Independent identical worlds per policy (policies must not share host
  // radio state, or earlier probes would warm later policies' targets).
  struct PolicyRun {
    std::string name;
    core::DetectorStats stats;
    std::uint64_t cellular_checks = 0;
    std::uint64_t cellular_false = 0;
  };
  std::vector<PolicyRun> runs;
  std::uint64_t total_events = 0;
  std::uint64_t total_probes = 0;
  const int max_probes = static_cast<int>(flags.get_int("max-probes", 3));

  const auto run_policy = [&](const char* label, const core::OnlinePolicy& policy) {
    auto world = bench::make_world(options);
    core::OutageDetectorConfig config;
    config.rounds = rounds;
    config.max_probes = max_probes;
    core::OutageDetector detector{world->sim, *world->net, config, policy};
    detector.start(world->population->responsive_addresses());
    world->sim.run();

    total_events += world->sim.events_processed();
    total_probes += detector.stats().probes_sent;
    PolicyRun run{label, detector.stats(), 0, 0};
    // Cellular-only breakdown via population ground truth: the wake-up
    // population is where timeout policy actually matters.
    for (const auto& outcome : detector.outcomes()) {
      const hosts::Host* host = world->population->host_at(outcome.target);
      if (host == nullptr || host->profile().type != hosts::HostType::kCellular) continue;
      ++run.cellular_checks;
      if (outcome.declared_outage) ++run.cellular_false;
    }
    runs.push_back(std::move(run));
  };

  run_policy("fixed(1.000s)", core::StaticPolicy{SimTime::seconds(1), SimTime::seconds(1)});
  run_policy("fixed(3.000s)", core::StaticPolicy{SimTime::seconds(3), SimTime::seconds(3)});
  run_policy("listen-longer(3.000s/60.000s)",
             core::StaticPolicy{SimTime::seconds(3), SimTime::seconds(60)});
  run_policy("quantile-adaptive(p99 x 1.5)", core::QuantileAdaptivePolicy{});
  run_policy("rfc6298", core::JacobsonKarnPolicy{/*karn=*/true, SimTime::seconds(60)});

  std::printf("# ablation_timeout_policy: %d blocks, %d check rounds, every target alive "
              "(all declared outages are FALSE)\n",
              options.num_blocks, rounds);

  util::TextTable table({"policy", "checks", "false outages", "false %", "cellular false %",
                         "late saves", "probes/check", "state (probe-s/check)"});
  for (const auto& run : runs) {
    const auto& s = run.stats;
    table.add_row({run.name, std::to_string(s.checks), std::to_string(s.outages_declared),
                   util::format_percent(s.checks ? static_cast<double>(s.outages_declared) /
                                                       s.checks
                                                 : 0),
                   util::format_percent(run.cellular_checks
                                            ? static_cast<double>(run.cellular_false) /
                                                  run.cellular_checks
                                            : 0),
                   std::to_string(s.late_saves),
                   util::format_double(s.checks ? static_cast<double>(s.probes_sent) / s.checks
                                                : 0,
                                       2),
                   util::format_double(s.checks ? s.state_probe_seconds / s.checks : 0, 2)});
  }
  table.print(std::cout);

  // The paper's quantitative claim, restated: listening longer converts
  // false outages into late saves.
  const auto& f3 = runs[1].stats;
  const auto& ll = runs[2].stats;
  std::printf("\n# fixed-3s false-outage rate %.2f%% -> listen-longer %.2f%% "
              "(%.1fx reduction; %llu checks saved by late responses)\n",
              f3.checks ? 100.0 * f3.outages_declared / f3.checks : 0,
              ll.checks ? 100.0 * ll.outages_declared / ll.checks : 0,
              ll.outages_declared ? static_cast<double>(f3.outages_declared) /
                                        ll.outages_declared
                                  : 0,
              static_cast<unsigned long long>(ll.late_saves));
  report.add_events(total_events);
  report.add_probes(total_probes);
  return 0;
}
