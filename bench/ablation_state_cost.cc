// Ablation: the memory cost of waiting longer (Section 2.1's caveat about
// probing hardware, e.g. RIPE Atlas's 1 s timeout). Sweeps the give-up
// timeout and prints (a) the Little's-law state model and (b) measured
// state from the detector, alongside the false-loss rate the timeout
// implies per the Table 2 matrix — the actual engineering trade-off the
// paper asks researchers to make.
#include <iostream>

#include "analysis/percentiles.h"
#include "core/recommendations.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "ablation_state_cost"};
  auto options = bench::world_options_from_flags(flags, 150);
  bench::wire_obs(options, report);
  const int survey_rounds = static_cast<int>(flags.get_int("rounds", 40));
  const double probe_rate = flags.get_double("probe-rate", 1000.0);

  // Table 2 matrix from a survey of this world, for the false-loss column.
  auto world = bench::make_world(options);
  const auto prober = bench::run_survey(*world, survey_rounds);
  const auto result = bench::analyze_survey(*world, prober);
  const auto pap = analysis::PerAddressPercentiles::compute(
      result.addresses, util::kPaperPercentiles, 10);
  const auto matrix = analysis::TimeoutMatrix::compute(pap, util::kPaperPercentiles);

  std::printf("# ablation_state_cost: prober at %.0f probes/s, 48 B/outstanding entry; "
              "false-loss rates for the 95th-percentile address\n",
              probe_rate);

  util::TextTable table({"give-up timeout", "outstanding entries", "state (KiB)",
                         "false loss @95th-pct addr"});
  for (const std::int64_t seconds : {1, 3, 5, 10, 30, 60, 120}) {
    const SimTime timeout = SimTime::seconds(seconds);
    const auto cost = core::prober_state_cost(probe_rate, timeout);
    table.add_row({timeout.to_string(),
                   util::format_double(cost.outstanding_entries, 0),
                   util::format_double(cost.bytes / 1024.0, 1),
                   util::format_percent(core::false_loss_rate(matrix, 95, timeout))});
  }
  table.print(std::cout);

  std::printf("\n# the paper's conclusion in one row: 60 s of listening costs %.0f KiB at "
              "this rate and covers 98%%+ of pings to 98%% of addresses\n",
              core::prober_state_cost(probe_rate, SimTime::seconds(60)).bytes / 1024.0);
  report.add_events(world->sim.events_processed());
  report.add_probes(prober.probes_sent());
  return 0;
}
