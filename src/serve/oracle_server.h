// A sim-hosted timeout-oracle server: bounded queue, admission control
// with counted load-shedding, batched execution, an LRU working set over
// block aggregates, and atomic snapshot hot-swap.
//
// The server runs entirely inside the simulator so a serving experiment is
// as deterministic and fault-injectable as a survey: requests arrive as
// events, service time is simulated time, and the same sim::FaultHook the
// network fabric consults decides whether a request is dropped, delayed,
// or duplicated on its way in. Accounting discipline: every offered
// request ends in exactly one of served / shed / still-queued-at-finalize,
// and sheds are attributed (overload vs server-down vs network fault) —
// nothing is ever silently dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/oracle_snapshot.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/inline_function.h"
#include "util/mutex.h"
#include "util/sim_time.h"
#include "util/thread_annotations.h"

namespace turtle::serve {

class PolicyEngine;

struct ServerConfig {
  /// Bounded request queue; arrivals beyond this are shed (counted under
  /// serve.shed_overload). Sized so the default load-gen rate fits but a
  /// dup_storm amplification overflows — that is the experiment.
  std::size_t queue_capacity = 512;

  /// Requests executed per batch, and the fixed per-batch overhead paid
  /// once regardless of batch size (the batching win).
  std::size_t batch_size = 8;
  SimTime batch_overhead = SimTime::micros(500);

  /// Per-request service time depending on whether the request's /24
  /// aggregate is in the LRU working set. A miss models paging the block
  /// aggregate in from the snapshot's backing store.
  SimTime service_time_hit = SimTime::micros(100);
  SimTime service_time_miss = SimTime::micros(400);

  /// LRU working-set capacity, in /24 block aggregates.
  std::size_t cache_capacity = 1024;

  /// Addresses used for the synthetic packet shown to the FaultHook (the
  /// hook scopes faults by prefix, so the request path needs a stable
  /// identity on the wire).
  net::Ipv4Address client_addr = net::Ipv4Address::from_octets(198, 51, 100, 1);
  net::Ipv4Address server_addr = net::Ipv4Address::from_octets(198, 51, 100, 2);

  /// When set, crash recovery first tries OracleSnapshot::map(path) — a
  /// zero-copy reload of the snapshot-v1 file, orders of magnitude
  /// cheaper than rebuilding from the record log (micro_snapshot measures
  /// the ratio). A reload counts under serve.snapshot_reloads; on any
  /// validation failure (counted fault.snapshot.load_rejected) recovery
  /// falls back to the set_rebuild hook, exactly as before.
  std::string snapshot_path;

  /// When set, lookups route through the policy engine: a request's
  /// policy_id selects which registered adaptive policy (or the static
  /// snapshot baseline, id 0) answers it. The engine holds its own
  /// snapshot reference, so a server crash does not blind it; it must
  /// outlive the server. Null keeps the plain snapshot path.
  PolicyEngine* policy_engine = nullptr;

  /// Metrics/trace sinks (usually the owning shard's).
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace = nullptr;

  /// When set, completions of traced requests pin an exemplar (trace id +
  /// observed latency) to the serve.latency bucket the observation filled.
  obs::ExemplarStore* exemplars = nullptr;
};

/// One oracle query.
struct Request {
  net::Ipv4Address addr;
  double addr_coverage = 95.0;
  double ping_coverage = 95.0;
  /// Nonzero: this request was sampled by the load generator's trace
  /// sampler. The server emits admission/queue/exec/end-to-end spans
  /// tagged with this id, and its completion latency becomes an exemplar
  /// candidate. 0 (the default) means untraced — zero extra work.
  std::uint64_t trace_id = 0;
  /// Which policy answers this request when ServerConfig::policy_engine
  /// is set: 0 = the static snapshot baseline, 1.. = register_policy ids.
  /// Ignored without an engine.
  std::uint32_t policy_id = 0;
  /// Coarsest-tier forcing for snapshot-path lookups (the wire protocol's
  /// `scope=` selector): kAs skips the per-/24 probe, kGlobal answers
  /// straight from the Table 2 matrix. Requests routed through a policy
  /// engine ignore this — an adaptive policy decides its own scope.
  LookupScope min_scope = LookupScope::kBlock;
};

class OracleServer {
 public:
  /// Response callback: the lookup answer plus the request's sim-time
  /// latency (completion minus submit, including any fault-injected entry
  /// delay and all queueing/service time).
  using Callback = util::InlineFunction<void(const LookupResult&, SimTime), 48>;

  /// The server starts serving `snapshot` (may be null: a server with no
  /// snapshot answers zero-confidence global defaults until one arrives).
  OracleServer(sim::Simulator& sim, ServerConfig config,
               std::shared_ptr<const OracleSnapshot> snapshot);

  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Submits one request at the current sim time. The callback fires when
  /// the request completes; shed requests never fire it (the shed is
  /// counted instead). Fault-injected duplicates of the request are
  /// admitted as independent requests with no callback.
  ///
  /// Returns false iff the request was shed synchronously (server down,
  /// queue full, or fault-injected drop); the serve.shed_* accounting is
  /// the single source of truth. True means the request was admitted (or
  /// deferred by a fault-injected entry delay, in which case it may still
  /// shed later without firing the callback).
  bool submit(const Request& request, Callback callback) TURTLE_EXCLUDES(mu_);

  /// Atomically replaces the serving snapshot. Requests already dispatched
  /// keep the results computed against the old snapshot; the working-set
  /// cache is invalidated (its contents described the old aggregates).
  /// The swap happens under mu_, the same lock the dispatch path holds.
  void swap_snapshot(std::shared_ptr<const OracleSnapshot> snapshot)
      TURTLE_EXCLUDES(mu_);

  /// Crash: the live snapshot and working set are lost, queued and
  /// in-flight requests are shed (counted under serve.shed_down), and the
  /// server restarts after `restart_delay`, rebuilding a snapshot via the
  /// set_rebuild callback — the checkpointed-record-log recovery path.
  /// Wire this to fault::FaultInjector::arm.
  void crash(SimTime restart_delay) TURTLE_EXCLUDES(mu_);

  /// Rebuild hook used by crash recovery. Typically loads the checkpointed
  /// record log and builds a fresh snapshot from it.
  void set_rebuild(std::function<std::shared_ptr<const OracleSnapshot>()> rebuild) {
    rebuild_ = std::move(rebuild);
  }

  /// Installs (or clears) the admission-path fault hook. Consulted once
  /// per submit with a synthetic client->server packet; drops shed the
  /// request (serve.shed_net), delays defer its arrival, extra copies
  /// admit duplicates. Observed-side effects are recorded under the same
  /// fault.net.* counters the network fabric uses, so the injected ==
  /// observed reconciliation holds for serving runs too.
  void set_fault_hook(sim::FaultHook* hook) { fault_hook_ = hook; }

  /// Call after the simulation drains: folds still-pending requests into
  /// serve.queued so offered == served + shed + queued closes exactly.
  void finalize() TURTLE_EXCLUDES(mu_);

  [[nodiscard]] bool down() const TURTLE_EXCLUDES(mu_) {
    const util::MutexLock lock{mu_};
    return down_;
  }
  [[nodiscard]] std::size_t queue_depth() const TURTLE_EXCLUDES(mu_) {
    const util::MutexLock lock{mu_};
    return queue_.size();
  }
  [[nodiscard]] const OracleSnapshot* snapshot() const TURTLE_EXCLUDES(mu_) {
    const util::MutexLock lock{mu_};
    return snapshot_.get();
  }

 private:
  struct Pending {
    Request request;
    SimTime submit_time;
    Callback callback;
    /// When the request passed the admission gate (queue-wait span start;
    /// differs from submit_time by any fault-injected entry delay).
    SimTime arrive_time;
  };
  struct InFlight {
    Pending pending;
    LookupResult result;
  };

  enum class ShedReason : std::uint8_t { kOverload, kDown, kNet };

  /// Arrival at the admission gate (after any fault-injected entry delay).
  /// Returns false when the arrival was shed instead of enqueued.
  bool arrive(Pending pending) TURTLE_REQUIRES(mu_);
  /// Lock-taking wrapper for arrivals scheduled as simulator events.
  void arrive_entry(Pending pending) TURTLE_EXCLUDES(mu_);
  void shed(ShedReason reason);
  /// Terminates a traced request's trace visibly when it is shed.
  void shed_traced(const Pending& pending);
  void start_batch() TURTLE_REQUIRES(mu_);
  void complete_batch(std::uint64_t epoch) TURTLE_EXCLUDES(mu_);
  void restart() TURTLE_EXCLUDES(mu_);
  /// LRU working-set consult; returns the per-request service time.
  SimTime touch_cache(net::Ipv4Address addr) TURTLE_REQUIRES(mu_);

  sim::Simulator& sim_;
  ServerConfig config_;
  std::function<std::shared_ptr<const OracleSnapshot>()> rebuild_;
  sim::FaultHook* fault_hook_ = nullptr;

  /// Guards every piece of serving state below: the queue, the dispatch
  /// batch, the LRU working set, the snapshot pointer the swap path
  /// replaces, and the crash-epoch guard. In-sim use is single-threaded,
  /// so every acquisition is uncontended.
  mutable util::Mutex mu_;
  std::shared_ptr<const OracleSnapshot> snapshot_ TURTLE_GUARDED_BY(mu_);
  std::deque<Pending> queue_ TURTLE_GUARDED_BY(mu_);
  std::vector<InFlight> in_flight_ TURTLE_GUARDED_BY(mu_);
  bool busy_ TURTLE_GUARDED_BY(mu_) = false;
  bool down_ TURTLE_GUARDED_BY(mu_) = false;
  /// Bumped on crash; a scheduled batch completion whose epoch is stale
  /// belongs to a crashed server incarnation and must not run.
  std::uint64_t epoch_ TURTLE_GUARDED_BY(mu_) = 0;

  /// LRU working set: most-recent block at the front.
  std::list<std::uint32_t> lru_ TURTLE_GUARDED_BY(mu_);
  std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> lru_index_
      TURTLE_GUARDED_BY(mu_);

  /// Private registry used when the config has none, so the accounting
  /// pointers below are always live (accessor-style uses in tests).
  std::unique_ptr<obs::Registry> owned_registry_;

  // serve.* metrics, created eagerly so every serving run shows the full
  // accounting series (zeros included).
  obs::Counter* offered_;           ///< "serve.offered"
  obs::Counter* served_;            ///< "serve.served"
  obs::Counter* shed_;              ///< "serve.shed"
  obs::Counter* shed_overload_;     ///< "serve.shed_overload"
  obs::Counter* shed_down_;         ///< "serve.shed_down"
  obs::Counter* shed_net_;          ///< "serve.shed_net"
  obs::Counter* queued_;            ///< "serve.queued" (finalize leftovers)
  obs::Counter* lookups_;           ///< "serve.lookups"
  obs::Counter* cache_hits_;        ///< "serve.cache_hits"
  obs::Counter* cache_misses_;      ///< "serve.cache_misses"
  obs::Counter* batches_;           ///< "serve.batches"
  obs::Counter* snapshot_swaps_;    ///< "serve.snapshot_swaps"
  obs::Counter* snapshot_rebuilds_; ///< "serve.snapshot_rebuilds"
  obs::Counter* snapshot_reloads_;  ///< "serve.snapshot_reloads"
  obs::Counter* scope_block_;       ///< "serve.scope_block"
  obs::Counter* scope_as_;          ///< "serve.scope_as"
  obs::Counter* scope_global_;      ///< "serve.scope_global"
  obs::Gauge* queue_high_water_;    ///< "serve.queue_high_water"
  obs::Gauge* snapshot_version_;    ///< "serve.snapshot_version"
  obs::Histogram* latency_;         ///< "serve.latency"

  // Fault-observation counters, created lazily on first use so faultless
  // runs keep their metrics dumps unchanged. fault.net.* names are shared
  // with sim::Network on purpose: both are "what the fault actually did",
  // the observed side of the injector's fault.injected.* ledger.
  obs::Counter* fault_dropped_ = nullptr;   ///< "fault.net.dropped_packets"
  obs::Counter* fault_delayed_ = nullptr;   ///< "fault.net.delayed_packets"
  obs::Counter* fault_copies_ = nullptr;    ///< "fault.net.extra_copies"
  obs::Counter* fault_crashes_ = nullptr;   ///< "fault.serve.crashes"
};

}  // namespace turtle::serve
