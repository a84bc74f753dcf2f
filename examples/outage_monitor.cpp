// Outage monitoring the paper's way: a Trinocular/Thunderping-style
// reachability monitor that decouples "when to retransmit" from "when to
// give up". Runs the same monitoring workload under a conventional fixed
// 3-second timeout and under the paper's listen-longer recommendation,
// then injects real outages to show both detectors still catch them —
// listen-longer trades nothing for its lower false-positive rate except
// prober state.
//
//   $ ./build/examples/outage_monitor
#include <cstdio>
#include <iostream>
#include <set>

#include "core/outage_detector.h"
#include "hosts/asdb.h"
#include "hosts/population.h"
#include "util/table.h"

using namespace turtle;

namespace {

struct RunResult {
  std::string policy;
  std::uint64_t checks = 0;
  std::uint64_t false_outages = 0;   // declared while the target was alive
  std::uint64_t missed_outages = 0;  // target offline but not declared
  std::uint64_t caught_outages = 0;  // target offline and declared
  std::uint64_t late_saves = 0;
};

RunResult monitor(const char* label, const core::OnlinePolicy& policy, std::uint64_t seed) {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::Network::Config{}, util::Prng{seed}};
  hosts::HostContext context{simulator, network};
  const hosts::AsCatalog catalog = hosts::AsCatalog::standard();
  hosts::PopulationConfig population_config;
  population_config.num_blocks = 80;
  hosts::Population population{context, catalog, population_config, util::Prng{seed + 1}};
  network.set_host_resolver(&population);

  const auto targets = population.responsive_addresses();

  // Inject ground-truth outages: 2% of targets go dark for rounds 4-7.
  // (Outages are modeled by detaching the hosts from the fabric via an
  // overriding resolver.)
  struct OutageResolver : sim::AddressResolver {
    hosts::Population* population = nullptr;
    std::set<std::uint32_t>* dark = nullptr;
    bool* outage_window = nullptr;
    sim::PacketSink* resolve(const net::Packet& packet) override {
      if (*outage_window && dark->count(packet.dst.value())) return nullptr;
      return population->resolve(packet);
    }
  };
  static bool outage_window = false;
  static std::set<std::uint32_t> dark;
  outage_window = false;
  dark.clear();
  for (std::size_t i = 0; i < targets.size(); i += 50) dark.insert(targets[i].value());

  OutageResolver resolver;
  resolver.population = &population;
  resolver.dark = &dark;
  resolver.outage_window = &outage_window;
  network.set_host_resolver(&resolver);

  core::OutageDetectorConfig config;
  config.rounds = 10;
  config.max_probes = 3;
  core::OutageDetector detector{simulator, network, config, policy};
  detector.start(targets);

  simulator.schedule_at(config.check_interval * 4, [] { outage_window = true; });
  simulator.schedule_at(config.check_interval * 8, [] { outage_window = false; });
  simulator.run();

  RunResult result;
  result.policy = label;
  result.late_saves = detector.stats().late_saves;
  for (const auto& outcome : detector.outcomes()) {
    ++result.checks;
    const bool was_dark =
        dark.count(outcome.target.value()) && outcome.round >= 4 && outcome.round < 8;
    if (outcome.declared_outage && !was_dark) ++result.false_outages;
    if (outcome.declared_outage && was_dark) ++result.caught_outages;
    if (!outcome.declared_outage && was_dark) ++result.missed_outages;
  }
  return result;
}

}  // namespace

int main() {
  const core::StaticPolicy fixed1{SimTime::seconds(1), SimTime::seconds(1)};
  const core::StaticPolicy fixed3{SimTime::seconds(3), SimTime::seconds(3)};
  const core::StaticPolicy listen{SimTime::seconds(3), SimTime::seconds(60)};
  const core::QuantileAdaptivePolicy adaptive;
  const struct {
    const char* label;
    const core::OnlinePolicy* policy;
  } roster[] = {{"fixed(1.000s)", &fixed1},
                {"fixed(3.000s)", &fixed3},
                {"listen-longer(3.000s/60.000s)", &listen},
                {"quantile-adaptive(p99 x 1.5)", &adaptive}};

  util::TextTable table({"policy", "checks", "real outages caught", "real outages missed",
                         "FALSE outages", "late saves"});
  for (const auto& [label, policy] : roster) {
    const auto r = monitor(label, *policy, 11);
    table.add_row({r.policy, std::to_string(r.checks), std::to_string(r.caught_outages),
                   std::to_string(r.missed_outages), std::to_string(r.false_outages),
                   std::to_string(r.late_saves)});
  }

  std::printf("outage monitoring, 10 rounds x ~5k targets; 2%% of targets actually go dark "
              "for rounds 4-7:\n\n");
  table.print(std::cout);
  std::printf("\nreal outages are caught identically; only the false-positive column "
              "changes.\nThat asymmetry is the paper's argument for listening longer.\n");
  return 0;
}
