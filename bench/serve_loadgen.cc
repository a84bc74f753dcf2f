// Serving experiment: survey -> OracleSnapshot -> OracleServer under an
// open-loop Poisson load, sharded like every other bench.
//
// Each shard is an independent pipeline: run a clean survey world, freeze
// its record log (the server's "checkpoint"), build snapshot v1, then run
// a second simulator hosting the OracleServer and a LoadGenerator. Half
// way through the serving window a v2 snapshot built from the full log
// hot-swaps in (--swap). A --fault-plan applies to the *serving* phase —
// delay_spike/dup_storm stress admission control, prober_crash crashes the
// server, which recovers by rebuilding from the frozen log via
// set_rebuild. Per-shard latencies merge in shard order, so exact p50/p99
// and the --metrics-out dump are byte-identical across --jobs values.
//
// Snapshot-file round trip: --snapshot-out=PATH writes shard 0's serving
// snapshot as a snapshot-v1 file; --snapshot-in=PATH serves every shard
// from one load of that file instead of building one, and wires
// the path into crash recovery so a crashed server *reloads* the file
// (serve.snapshot_reloads) rather than rebuilding from the frozen log.
//
// Observability extras (all deterministic, all byte-identical across
// --jobs): --flight-out=PATH rolls the serving phase up into windowed
// flight-recorder frames (--flight-window seconds each); --slo=FILE
// evaluates watchdog rules against every window (see
// examples/serve_slo.json); --trace-sample=F tags that fraction of
// requests with trace ids, emitting per-request admission/queue/exec
// spans into --trace-out and pinning latency exemplars to histogram
// buckets; --prom-out=PATH writes a Prometheus exposition with those
// exemplars and the last window's deltas.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "harness.h"
#include "obs/exemplar.h"
#include "obs/flight.h"
#include "obs/watchdog.h"
#include "report.h"
#include "serve/load_generator.h"
#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"
#include "util/check.h"
#include "util/table.h"

using namespace turtle;

namespace {

/// Exact percentile over merged latencies (sorted copy; nearest-rank on
/// the same convention as util::percentile_sorted but kept integer).
std::int64_t exact_percentile_us(std::vector<std::int64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      (p / 100.0) * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Records from the first `rounds` survey rounds only (the v1 snapshot's
/// view; unmatched responses carry no round and stay in).
probe::RecordLog truncate_log(const probe::RecordLog& log, std::uint32_t rounds) {
  probe::RecordLog out;
  for (const probe::SurveyRecord& record : log.records()) {
    if (record.type == probe::RecordType::kUnmatched || record.round < rounds) {
      out.append(record);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  // SLO rules load before the report on purpose: watchdog trace instants
  // store pointers into the rules' name strings, and the report's
  // destructor is what writes the trace out (see obs/watchdog.h).
  std::shared_ptr<const obs::WatchdogRules> slo_rules;
  const std::string slo_path = flags.get_string("slo", "");
  if (!slo_path.empty()) {
    slo_rules = std::make_shared<const obs::WatchdogRules>(
        obs::WatchdogRules::load_file(slo_path));
  }
  bench::JsonReport report{flags, "serve_loadgen"};
  const int blocks = static_cast<int>(flags.get_int("blocks", 80));
  const int rounds = static_cast<int>(flags.get_int("rounds", 10));
  const int shards = static_cast<int>(flags.get_int("shards", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double rate = flags.get_double("rate", 2000.0);
  const double duration_s = flags.get_double("duration", 30.0);
  const SimTime duration = SimTime::from_seconds(duration_s);
  const bool swap = flags.get_bool("swap", true);
  const auto queue_cap = static_cast<std::size_t>(flags.get_int("queue-cap", 512));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 8));
  const auto cache_cap = static_cast<std::size_t>(flags.get_int("cache-cap", 1024));
  const auto fault_plan = bench::fault_plan_from_flags(flags);
  const auto fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  const std::string snapshot_out = flags.get_string("snapshot-out", "");
  const std::string snapshot_in = flags.get_string("snapshot-in", "");
  TURTLE_CHECK(snapshot_out.empty() || snapshot_in.empty())
      << "--snapshot-out and --snapshot-in are mutually exclusive";
  const std::string flight_out = flags.get_string("flight-out", "");
  const std::string prom_out = flags.get_string("prom-out", "");
  const double flight_window_s = flags.get_double("flight-window", 5.0);
  TURTLE_CHECK_GT(flight_window_s, 0.0) << "--flight-window must be positive";
  const SimTime flight_window = SimTime::from_seconds(flight_window_s);
  const double trace_sample = flags.get_double("trace-sample", 0.0);
  TURTLE_CHECK(trace_sample >= 0.0 && trace_sample <= 1.0)
      << "--trace-sample must be in [0, 1]";
  // The recorder runs whenever anything consumes its frames: the flight
  // dump, the windowed Prometheus view, or watchdog rules.
  const bool flight_enabled =
      !flight_out.empty() || !prom_out.empty() || slo_rules != nullptr;

  // A loaded snapshot is immutable and lock-free, so one load can serve
  // every shard concurrently.
  std::shared_ptr<const serve::OracleSnapshot> loaded_snapshot;
  if (!snapshot_in.empty()) {
    std::string error;
    loaded_snapshot = serve::OracleSnapshot::map(snapshot_in, &error, &report.registry());
    TURTLE_CHECK(loaded_snapshot != nullptr)
        << "--snapshot-in " << snapshot_in << ": " << error;
  }

  std::printf("# serve_loadgen: %d shards x (%d blocks x %d rounds survey -> "
              "%.0f req/s for %.0f s)\n",
              shards, blocks, rounds, rate, duration_s);

  struct ShardResult {
    std::vector<std::int64_t> latencies_us;
    std::uint64_t events = 0;
    std::uint64_t probes = 0;
    obs::FlightData flight;
    obs::ExemplarStore exemplars;
  };

  sim::ShardOptions shard_options;
  shard_options.jobs = static_cast<int>(flags.get_int("jobs", 0));
  shard_options.seed = seed;
  bench::wire_obs(shard_options, report);
  sim::ShardRunner runner{shard_options};
  report.set_jobs(runner.jobs());

  const auto results = runner.run(
      static_cast<std::size_t>(shards), [&](sim::ShardContext& ctx) {
        // Phase 1: a clean survey builds the oracle's data. The fault plan
        // is *not* wired here — it stresses the serving phase below.
        bench::WorldOptions options;
        options.num_blocks = blocks;
        options.seed = seed + ctx.shard_index;
        options.registry = ctx.registry;
        options.trace = ctx.trace;
        auto world = bench::make_world(options);
        const auto prober = bench::run_survey(*world, rounds);

        // Freeze the record log: this is the checkpoint the crashed server
        // rebuilds from.
        std::ostringstream frozen;
        prober.log().save(frozen);
        const std::string log_bytes = frozen.str();

        const hosts::GeoDatabase* geo = &world->population->geo();
        serve::SnapshotConfig snap_config;
        snap_config.version = 1;
        auto snapshot_v1 =
            loaded_snapshot != nullptr
                ? loaded_snapshot
                : std::make_shared<const serve::OracleSnapshot>(
                      swap ? serve::OracleSnapshot::build(
                                 truncate_log(prober.log(),
                                              static_cast<std::uint32_t>(
                                                  std::max(rounds / 2, 1))),
                                 snap_config, geo)
                           : serve::OracleSnapshot::build(prober.log(), snap_config, geo));
        if (!snapshot_out.empty() && ctx.shard_index == 0) {
          snapshot_v1->write(snapshot_out);
          std::fprintf(stderr, "# snapshot: %s\n", snapshot_out.c_str());
        }

        // Phase 2: the serving simulator. Shares the shard's sinks, so
        // sim.* and serve.* metrics merge deterministically.
        sim::Simulator serve_sim{ctx.registry, ctx.trace};

        obs::ExemplarStore exemplars;

        serve::ServerConfig server_config;
        server_config.queue_capacity = queue_cap;
        server_config.batch_size = batch;
        server_config.cache_capacity = cache_cap;
        server_config.registry = ctx.registry;
        server_config.trace = ctx.trace;
        server_config.exemplars = &exemplars;
        // Crash recovery prefers reloading the snapshot file when one was
        // supplied; the set_rebuild hook below stays as the fallback.
        server_config.snapshot_path = snapshot_in;
        serve::OracleServer server{serve_sim, server_config, snapshot_v1};
        server.set_rebuild([&log_bytes, geo]() {
          std::istringstream in{log_bytes};
          serve::SnapshotConfig rebuilt_config;
          rebuilt_config.version = 3;
          return std::make_shared<const serve::OracleSnapshot>(
              serve::OracleSnapshot::build(probe::RecordLog::load(in), rebuilt_config, geo));
        });

        std::unique_ptr<fault::FaultInjector> injector;
        if (fault_plan != nullptr && !fault_plan->empty()) {
          injector = std::make_unique<fault::FaultInjector>(
              serve_sim, *fault_plan, util::Prng{fault_seed}.fork(options.seed),
              ctx.registry);
          server.set_fault_hook(injector.get());
          injector->arm([&server](SimTime restart) { server.crash(restart); });
        }

        if (swap) {
          serve_sim.schedule_at(duration / 2, [&server, &prober, geo] {
            serve::SnapshotConfig v2_config;
            v2_config.version = 2;
            server.swap_snapshot(std::make_shared<const serve::OracleSnapshot>(
                serve::OracleSnapshot::build(prober.log(), v2_config, geo)));
          });
        }

        serve::LoadGenConfig gen_config;
        gen_config.rate_per_s = rate;
        gen_config.duration = duration;
        gen_config.blocks = world->population->blocks();
        gen_config.registry = ctx.registry;
        gen_config.trace_sample = trace_sample;
        // Shard s ids start at (s + 1) << 32: globally unique, shard
        // recoverable from the id, 0 reserved for "untraced".
        gen_config.trace_id_base = (static_cast<std::uint64_t>(ctx.shard_index) + 1)
                                   << 32;
        // Stream 4: make_world forked 1 (net), 2 (population), 3 (prober)
        // from the same seed.
        serve::LoadGenerator generator{serve_sim, server, gen_config,
                                       util::Prng{options.seed}.fork(4)};

        // The flight recorder attaches after the survey phase: everything
        // the survey counted becomes its baseline frame, and the serving
        // phase lands in per-window deltas. Window ticks are pre-scheduled
        // sim events (never a wall clock), one per boundary inside the
        // load window; finalize() closes the trailing partial window after
        // the drain.
        std::optional<obs::FlightRecorder> recorder;
        std::optional<obs::Watchdog> watchdog;
        if (flight_enabled) {
          obs::FlightRecorder::Config flight_config;
          flight_config.window = flight_window;
          recorder.emplace(*ctx.registry, flight_config);
          if (slo_rules != nullptr && !slo_rules->empty()) {
            watchdog.emplace(slo_rules, *ctx.registry, ctx.trace);
            recorder->set_observer(
                [&watchdog](obs::FlightFrame& frame) { watchdog->on_frame(frame); });
          }
          for (SimTime tick = flight_window; tick <= duration;
               tick = tick + flight_window) {
            serve_sim.schedule_at(
                tick, [&recorder, &serve_sim] { recorder->advance(serve_sim.now()); });
          }
        }

        generator.start();
        serve_sim.run();
        server.finalize();

        ShardResult result;
        if (recorder.has_value()) result.flight = recorder->finalize(serve_sim.now());
        result.exemplars = std::move(exemplars);
        result.latencies_us = generator.latencies_us();
        result.events = world->sim.events_processed() + serve_sim.events_processed();
        result.probes = prober.probes_sent();
        return result;
      });

  std::vector<std::int64_t> merged;
  obs::FlightData merged_flight;
  obs::ExemplarStore merged_exemplars;
  for (const auto& result : results) {
    merged.insert(merged.end(), result.latencies_us.begin(), result.latencies_us.end());
    report.add_events(result.events);
    report.add_probes(result.probes);
    // Shard order: flight frames align by window index, exemplars keep the
    // lowest shard's pick — both byte-identical across --jobs.
    if (flight_enabled) merged_flight.merge_from(result.flight);
    merged_exemplars.merge_from(result.exemplars);
  }
  std::sort(merged.begin(), merged.end());

  if (!flight_out.empty()) {
    std::ofstream out{flight_out};
    TURTLE_CHECK(out.good()) << "cannot open --flight-out " << flight_out;
    obs::write_flight_json(out, merged_flight,
                           merged_exemplars.empty() ? nullptr : &merged_exemplars);
    std::fprintf(stderr, "# flight: %s\n", flight_out.c_str());
  }
  if (!prom_out.empty()) {
    std::ofstream out{prom_out};
    TURTLE_CHECK(out.good()) << "cannot open --prom-out " << prom_out;
    obs::write_prometheus(out, report.registry(),
                          merged_exemplars.empty() ? nullptr : &merged_exemplars,
                          flight_enabled ? &merged_flight : nullptr);
    std::fprintf(stderr, "# prometheus: %s\n", prom_out.c_str());
  }

  const auto& counters = report.registry().counters();
  const auto counter = [&counters](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
  };
  const std::uint64_t offered = counter("serve.offered");
  const std::uint64_t served = counter("serve.served");
  const std::uint64_t shed = counter("serve.shed");
  const std::uint64_t hits = counter("serve.cache_hits");
  const std::uint64_t misses = counter("serve.cache_misses");

  const std::int64_t p50 = exact_percentile_us(merged, 50);
  const std::int64_t p99 = exact_percentile_us(merged, 99);
  const std::int64_t p999 = exact_percentile_us(merged, 99.9);

  util::TextTable table({"metric", "value"});
  table.add_row({"offered", std::to_string(offered)});
  table.add_row({"served", std::to_string(served)});
  table.add_row({"shed", std::to_string(shed)});
  table.add_row({"shed overload", std::to_string(counter("serve.shed_overload"))});
  table.add_row({"shed down", std::to_string(counter("serve.shed_down"))});
  table.add_row({"shed net", std::to_string(counter("serve.shed_net"))});
  table.add_row({"snapshot swaps", std::to_string(counter("serve.snapshot_swaps"))});
  table.add_row({"snapshot rebuilds", std::to_string(counter("serve.snapshot_rebuilds"))});
  table.add_row({"snapshot reloads", std::to_string(counter("serve.snapshot_reloads"))});
  table.add_row({"cache hit rate",
                 util::format_percent(hits + misses > 0
                                          ? static_cast<double>(hits) /
                                                static_cast<double>(hits + misses)
                                          : 0.0)});
  table.add_row({"latency p50", SimTime::micros(p50).to_string()});
  table.add_row({"latency p99", SimTime::micros(p99).to_string()});
  table.add_row({"latency p99.9", SimTime::micros(p999).to_string()});
  if (slo_rules != nullptr) {
    std::uint64_t watchdog_fires = 0;
    for (const auto& [name, value] : counters) {
      if (name.rfind("watchdog.", 0) == 0) watchdog_fires += value.value();
    }
    table.add_row({"watchdog fires", std::to_string(watchdog_fires)});
  }
  if (trace_sample > 0.0) {
    table.add_row({"traced requests", std::to_string(counter("serve.gen.traced"))});
  }
  table.print(std::cout);

  const double shed_rate =
      offered > 0 ? static_cast<double>(shed) / static_cast<double>(offered) : 0.0;
  report.set_metric("serve_qps",
                    duration_s > 0 ? static_cast<double>(served) / (duration_s * shards) : 0.0);
  report.set_metric("latency_p50_us", p50);
  report.set_metric("latency_p99_us", p99);
  report.set_metric("shed_rate", shed_rate);
  report.set_metric("cache_hit_rate",
                    hits + misses > 0
                        ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0);
  std::printf("\n# served %llu of %llu offered (shed %.1f%%), p99 %s\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(offered), shed_rate * 100.0,
              SimTime::micros(p99).to_string().c_str());
  return 0;
}
