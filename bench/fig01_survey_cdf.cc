// Figure 1: CDF of per-address percentile latency over *survey-detected*
// responses only. The paper's point: the distribution is visibly clipped
// at the 3-second match timeout, because later responses were never
// matched. Reproduced shape: each percentile curve rises smoothly, then
// jumps to 1.0 at the timeout; ~95% of addresses' 95th percentiles fall
// below 3 s with the remainder invisible.
#include <iostream>

#include "analysis/percentiles.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig01_survey_cdf"};
  const auto csv = bench::csv_from_flags(flags);
  auto options = bench::world_options_from_flags(flags, 300);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int rounds = static_cast<int>(flags.get_int("rounds", 40));

  const auto prober = bench::run_survey(*world, rounds);
  std::printf("# fig01_survey_cdf: %zu blocks, %d rounds, %llu probes\n",
              world->population->blocks().size(), rounds,
              static_cast<unsigned long long>(prober.probes_sent()));

  // Survey-detected only: build reports from matched records alone by
  // running the pipeline, then stripping delayed samples. Simpler and
  // exactly equivalent: each timeline's matched RTTs, in request order.
  const auto dataset = analysis::SurveyDataset::from_log(prober.log());
  std::vector<analysis::AddressReport> reports;
  for (const auto& tl : dataset.timelines()) {
    if (tl.rtts_s.empty()) continue;
    analysis::AddressReport report;
    report.address = tl.address;
    report.rtts_s.assign(tl.rtts_s.begin(), tl.rtts_s.end());
    reports.push_back(std::move(report));
  }

  const auto pap =
      analysis::PerAddressPercentiles::compute(reports, util::kPaperPercentiles, 10);
  std::printf("# %zu addresses with >= 10 survey-detected responses\n", pap.address_count());

  for (std::size_t p = 0; p < pap.percentiles.size(); ++p) {
    char title[64];
    std::snprintf(title, sizeof title, "CDF of per-address p%g latency (s), survey-detected",
                  pap.percentiles[p]);
    bench::print_cdf(std::cout, title, pap.cdf_for(p), 25, csv);
  }

  // The clipping statistic the paper reads off this figure.
  const auto& p95 = pap.values[4];
  std::printf("\n# fraction of addresses with p95 < 3 s (the match timeout): %s\n",
              util::format_percent(1.0 - util::fraction_above(p95, 3.0)).c_str());
  std::printf("# maximum per-address p99 visible despite the 3 s matcher: %.2f s\n",
              pap.values[6].empty() ? 0.0
                                    : *std::max_element(pap.values[6].begin(),
                                                        pap.values[6].end()));
  report.add_events(world->sim.events_processed());
  report.add_probes(prober.probes_sent());
  return 0;
}
