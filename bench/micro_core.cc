// Microbenchmarks (google-benchmark) for the hot paths of the simulator
// and core library: event-queue throughput, survey matcher, ICMP
// serialization, P2 quantile updates, population generation, and the
// end-to-end survey rate (probes simulated per wall second).
//
// Accepts --json-out=PATH like the other bench binaries; it is rewritten
// into google-benchmark's own JSON output flags, so scripts/bench_report.sh
// can collect microbenchmark numbers alongside the harness reports. Also
// accepts --metrics-out=PATH / --trace-out=PATH: after the benchmarks it
// runs one small instrumented survey + pipeline and dumps the registry /
// Chrome trace, so the obs layer is exercised from this binary too.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "core/p2_quantile.h"
#include "core/rtt_estimator.h"
#include "hosts/asdb.h"
#include "hosts/population.h"
#include "net/icmp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe/survey.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/inline_function.h"
#include "util/prng.h"

using namespace turtle;

namespace {

void BM_EventQueue(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  util::Prng rng{1};
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(1'000'000))),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue)->Arg(1'000)->Arg(100'000);

// The survey's shape of load: N block chains at one fixed cadence, phased
// apart, each firing pushing the next link and a fixed-delay timer — the
// slot cadence and match timeout SurveyProber declares as lanes. One
// round (256 links per chain) per iteration; BM_EventQueue's random
// absolute times exercise the heap alone.
class FixedDelayChains {
 public:
  static constexpr int kLinks = 256;

  FixedDelayChains(sim::Simulator& sim, std::int64_t chains, util::Prng& rng) : sim_{sim} {
    sim_.declare_fixed_delay(kSlot);
    sim_.declare_fixed_delay(kTimeout);
    for (std::int64_t c = 0; c < chains; ++c) {
      const auto phase_us = rng.uniform_int(static_cast<std::uint64_t>(kSlot.as_micros()));
      const SimTime phase = SimTime::micros(static_cast<std::int64_t>(phase_us));
      sim_.schedule_at(phase, [this] { link(kLinks); });
    }
  }

  [[nodiscard]] std::int64_t timers_fired() const { return timers_fired_; }

 private:
  static constexpr SimTime kSlot = SimTime::micros(660'000'000 / 256);
  static constexpr SimTime kTimeout = SimTime::micros(3'000'000);

  void link(int left) {
    sim_.schedule_after(kTimeout, [this] { ++timers_fired_; });
    if (left > 1) sim_.schedule_after(kSlot, [this, left] { link(left - 1); });
  }

  sim::Simulator& sim_;
  std::int64_t timers_fired_ = 0;
};

void BM_EventQueueFixedDelay(benchmark::State& state) {
  const std::int64_t chains = state.range(0);
  util::Prng rng{1};
  for (auto _ : state) {
    sim::Simulator sim;
    FixedDelayChains load{sim, chains, rng};
    sim.run();
    benchmark::DoNotOptimize(load.timers_fired());
  }
  state.SetItemsProcessed(state.iterations() * chains * FixedDelayChains::kLinks * 2);
}
BENCHMARK(BM_EventQueueFixedDelay)->Arg(400)->Arg(4'000);

// Dispatch cost of the callback type alone: construct + invoke a callable
// whose capture (24 bytes) exceeds std::function's inline buffer but fits
// InlineFunction's 48 — the common shape of survey timeout lambdas.
void BM_StdFunctionDispatch(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t a = 1, b = 2, c = 3;
  for (auto _ : state) {
    std::function<void()> fn{[&sink, a, b, c] { sink += a + b + c; }};
    fn();
    benchmark::DoNotOptimize(fn);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionDispatch);

void BM_InlineFunctionDispatch(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t a = 1, b = 2, c = 3;
  for (auto _ : state) {
    util::InlineFunction<void(), 48> fn{[&sink, a, b, c] { sink += a + b + c; }};
    fn();
    benchmark::DoNotOptimize(fn);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineFunctionDispatch);

void BM_IcmpSerializeParse(benchmark::State& state) {
  net::IcmpMessage msg;
  msg.type = net::IcmpType::kEchoRequest;
  msg.id = 77;
  msg.seq = 1;
  net::TimingPayload tp;
  tp.probed_destination = net::Ipv4Address::from_octets(10, 0, 0, 1);
  tp.send_time = SimTime::seconds(1);
  tp.encode(msg.payload);
  for (auto _ : state) {
    const auto wire = net::serialize_icmp(msg);
    auto parsed = net::parse_icmp(wire.view());
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IcmpSerializeParse);

void BM_P2Quantile(benchmark::State& state) {
  util::Prng rng{2};
  core::P2Quantile q{0.99};
  for (auto _ : state) {
    q.add(rng.uniform());
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_P2Quantile);

void BM_RttEstimator(benchmark::State& state) {
  util::Prng rng{3};
  core::RttEstimator est;
  for (auto _ : state) {
    est.add_sample(SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(1'000'000))));
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttEstimator);

void BM_PopulationBuild(benchmark::State& state) {
  const auto blocks = static_cast<int>(state.range(0));
  const auto catalog = hosts::AsCatalog::standard();
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net{sim, {}, util::Prng{1}};
    hosts::HostContext ctx{sim, net};
    hosts::PopulationConfig config;
    config.num_blocks = blocks;
    hosts::Population population{ctx, catalog, config, util::Prng{2}};
    benchmark::DoNotOptimize(population.stats());
  }
  state.SetItemsProcessed(state.iterations() * blocks * 256);
}
BENCHMARK(BM_PopulationBuild)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SurveyEndToEnd(benchmark::State& state) {
  const auto blocks = static_cast<int>(state.range(0));
  const auto catalog = hosts::AsCatalog::standard();
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net{sim, {}, util::Prng{1}};
    hosts::HostContext ctx{sim, net};
    hosts::PopulationConfig config;
    config.num_blocks = blocks;
    hosts::Population population{ctx, catalog, config, util::Prng{2}};
    net.set_host_resolver(&population);

    probe::SurveyConfig survey_config;
    survey_config.rounds = 4;
    probe::SurveyProber prober{sim, net, survey_config, population.blocks(), util::Prng{3}};
    prober.start();
    sim.run();
    benchmark::DoNotOptimize(prober.log().size());
    state.counters["probes/s"] = benchmark::Counter(
        static_cast<double>(prober.probes_sent()), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_SurveyEndToEnd)->Arg(50)->Unit(benchmark::kMillisecond);

// One small instrumented survey world + analysis pipeline, purely to
// populate a registry/trace for --metrics-out / --trace-out.
void run_instrumented_sample(obs::Registry& registry, obs::TraceSink* trace) {
  sim::Simulator sim{&registry, trace};
  sim::Network::Config net_config;
  net_config.registry = &registry;
  sim::Network net{sim, net_config, util::Prng{1}};
  hosts::HostContext ctx{sim, net};
  hosts::PopulationConfig config;
  config.num_blocks = 20;
  const auto catalog = hosts::AsCatalog::standard();
  hosts::Population population{ctx, catalog, config, util::Prng{2}};
  net.set_host_resolver(&population);

  probe::SurveyConfig survey_config;
  survey_config.rounds = 4;
  survey_config.registry = &registry;
  survey_config.trace = trace;
  probe::SurveyProber prober{sim, net, survey_config, population.blocks(), util::Prng{3}};
  prober.start();
  sim.run();

  auto dataset = analysis::SurveyDataset::from_log(prober.log());
  analysis::PipelineConfig pipeline_config;
  pipeline_config.registry = &registry;
  pipeline_config.trace = trace;
  (void)analysis::run_pipeline(dataset, pipeline_config);
}

}  // namespace

// BENCHMARK_MAIN(), plus translation of the repo-wide --json-out=PATH
// convention into google-benchmark's native JSON output flags, and the
// repo-wide --metrics-out/--trace-out observability outputs.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<char*> rewritten;
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  std::string metrics_path;
  std::string trace_path;
  for (auto& arg : args) {
    constexpr const char* kJsonOut = "--json-out=";
    constexpr const char* kMetricsOut = "--metrics-out=";
    constexpr const char* kTraceOut = "--trace-out=";
    if (arg.rfind(kJsonOut, 0) == 0) {
      out_flag = "--benchmark_out=" + arg.substr(std::strlen(kJsonOut));
      rewritten.push_back(out_flag.data());
      rewritten.push_back(format_flag.data());
    } else if (arg.rfind(kMetricsOut, 0) == 0) {
      metrics_path = arg.substr(std::strlen(kMetricsOut));
    } else if (arg.rfind(kTraceOut, 0) == 0) {
      trace_path = arg.substr(std::strlen(kTraceOut));
    } else {
      rewritten.push_back(arg.data());
    }
  }
  int rewritten_argc = static_cast<int>(rewritten.size());
  benchmark::Initialize(&rewritten_argc, rewritten.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, rewritten.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!metrics_path.empty() || !trace_path.empty()) {
    obs::Registry registry;
    obs::TraceSink trace;
    run_instrumented_sample(registry, trace_path.empty() ? nullptr : &trace);
    if (!metrics_path.empty()) {
      std::ofstream out{metrics_path};
      registry.write_json(out, /*include_wall_clock=*/false);
      std::fprintf(stderr, "# metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out{trace_path};
      trace.write_chrome_json(out);
      std::fprintf(stderr, "# trace written to %s\n", trace_path.c_str());
    }
  }
  return 0;
}
