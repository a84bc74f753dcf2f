#include "serve/oracle_server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "net/packet.h"
#include "util/check.h"

namespace turtle::serve {

OracleServer::OracleServer(sim::Simulator& sim, ServerConfig config,
                           std::shared_ptr<const OracleSnapshot> snapshot)
    : sim_{sim},
      config_{std::move(config)},
      owner_{std::this_thread::get_id()},
      snapshot_{std::move(snapshot)} {
  TURTLE_CHECK_GT(config_.queue_capacity, 0u);
  TURTLE_CHECK_GT(config_.batch_size, 0u);
  if (config_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    config_.registry = owned_registry_.get();
  }
  obs::Registry& registry = *config_.registry;
  offered_ = &registry.counter("serve.offered");
  served_ = &registry.counter("serve.served");
  shed_ = &registry.counter("serve.shed");
  shed_overload_ = &registry.counter("serve.shed_overload");
  shed_down_ = &registry.counter("serve.shed_down");
  shed_net_ = &registry.counter("serve.shed_net");
  queued_ = &registry.counter("serve.queued");
  lookups_ = &registry.counter("serve.lookups");
  cache_hits_ = &registry.counter("serve.cache_hits");
  cache_misses_ = &registry.counter("serve.cache_misses");
  batches_ = &registry.counter("serve.batches");
  snapshot_swaps_ = &registry.counter("serve.snapshot_swaps");
  snapshot_rebuilds_ = &registry.counter("serve.snapshot_rebuilds");
  snapshot_reloads_ = &registry.counter("serve.snapshot_reloads");
  scope_block_ = &registry.counter("serve.scope_block");
  scope_as_ = &registry.counter("serve.scope_as");
  scope_global_ = &registry.counter("serve.scope_global");
  queue_high_water_ = &registry.gauge("serve.queue_high_water");
  snapshot_version_ = &registry.gauge("serve.snapshot_version");
  latency_ = &registry.histogram("serve.latency");
  if (snapshot_ != nullptr) {
    snapshot_version_->set_max(static_cast<std::int64_t>(snapshot_->version()));
  }
}

bool OracleServer::submit(const Request& request, Callback callback) {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "OracleServer used off its thread";
  offered_->inc();
  Pending pending{request, sim_.now(), std::move(callback), SimTime{}};
  if (request.trace_id != 0) {
    TURTLE_TRACE(config_.trace,
                 instant("serve.admit", "serve", sim_.now(), request.trace_id));
  }

  if (fault_hook_ != nullptr) {
    // Show the admission path to the injector as a client -> server
    // datagram so prefix-scoped plans (delay_spike on the server's /24,
    // dup_storm on the client's) apply to serving traffic naturally.
    net::Packet packet;
    packet.src = config_.client_addr;
    packet.dst = config_.server_addr;
    packet.protocol = net::Protocol::kUdp;
    const sim::FaultHook::Action action = fault_hook_->on_send(packet, 1);
    if (action.drop) {
      if (fault_dropped_ == nullptr) {
        fault_dropped_ = &config_.registry->counter("fault.net.dropped_packets");
      }
      fault_dropped_->inc();
      shed_traced(pending);
      shed(ShedReason::kNet);
      return false;
    }
    if (action.extra_copies > 0) {
      if (fault_copies_ == nullptr) {
        fault_copies_ = &config_.registry->counter("fault.net.extra_copies");
      }
      fault_copies_->inc(action.extra_copies);
      // Duplicates are spurious wire-level copies: full requests for
      // accounting and load, but nobody is waiting on their answers.
      offered_->inc(action.extra_copies);
    }
    // Copies are untraced even when the original was sampled: one sampled
    // request means exactly one end-to-end span and one exemplar candidate.
    Request copy_request = request;
    copy_request.trace_id = 0;
    if (action.extra_delay > SimTime{}) {
      if (fault_delayed_ == nullptr) {
        fault_delayed_ = &config_.registry->counter("fault.net.delayed_packets");
      }
      fault_delayed_->inc();
      for (std::uint32_t i = 0; i < action.extra_copies; ++i) {
        sim_.schedule_after(action.extra_delay,
                            [this, copy = Pending{copy_request, pending.submit_time, nullptr, SimTime{}}]() mutable {
                              arrive(std::move(copy));
                            });
      }
      sim_.schedule_after(action.extra_delay, [this, p = std::move(pending)]() mutable {
        arrive(std::move(p));
      });
      return true;  // deferred: admission is decided on arrival
    }
    for (std::uint32_t i = 0; i < action.extra_copies; ++i) {
      arrive(Pending{copy_request, pending.submit_time, nullptr, SimTime{}});
    }
    return arrive(std::move(pending));
  }
  return arrive(std::move(pending));
}

bool OracleServer::arrive(Pending pending) {
  if (down_) {
    shed_traced(pending);
    shed(ShedReason::kDown);
    return false;
  }
  if (queue_.size() >= config_.queue_capacity) {
    shed_traced(pending);
    shed(ShedReason::kOverload);
    return false;
  }
  pending.arrive_time = sim_.now();
  queue_.push_back(std::move(pending));
  queue_high_water_->set_max(static_cast<std::int64_t>(queue_.size()));
  if (!busy_) start_batch();
  return true;
}

void OracleServer::shed_traced(const Pending& pending) {
  if (pending.request.trace_id == 0) return;
  TURTLE_TRACE(config_.trace,
               instant("serve.shed", "serve", sim_.now(), pending.request.trace_id));
}

void OracleServer::shed(ShedReason reason) {
  shed_->inc();
  switch (reason) {
    case ShedReason::kOverload:
      shed_overload_->inc();
      break;
    case ShedReason::kDown:
      shed_down_->inc();
      break;
    case ShedReason::kNet:
      shed_net_->inc();
      break;
  }
}

void OracleServer::start_batch() {
  TURTLE_DCHECK(!busy_);
  TURTLE_DCHECK(!down_);
  TURTLE_DCHECK(!queue_.empty());
  busy_ = true;
  batches_->inc();

  const SimTime batch_start = sim_.now();
  SimTime cost = config_.batch_overhead;
  const std::size_t take = std::min(config_.batch_size, queue_.size());
  in_flight_.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    const SimTime exec_start = batch_start + cost;
    cost = cost + touch_cache(pending.request.addr);
    // Results are computed at dispatch against the snapshot serving *now*;
    // a swap landing before the batch completes does not retroactively
    // change answers already in flight.
    LookupResult result;
    if (snapshot_ != nullptr) {
      result = snapshot_->lookup(pending.request.addr, pending.request.addr_coverage,
                                 pending.request.ping_coverage, pending.request.min_scope);
    }
    lookups_->inc();
    switch (result.scope) {
      case LookupScope::kBlock:
        scope_block_->inc();
        break;
      case LookupScope::kAs:
        scope_as_->inc();
        break;
      case LookupScope::kGlobal:
        scope_global_->inc();
        break;
    }
    if (pending.request.trace_id != 0) {
      // Queue wait, then this request's slice of the batch: the overhead
      // plus every earlier request's service time precedes exec_start, so
      // the carved spans tile the serve.batch span exactly.
      TURTLE_TRACE(config_.trace, complete("serve.queue", "serve", pending.arrive_time,
                                           batch_start, pending.request.trace_id));
      TURTLE_TRACE(config_.trace, complete("serve.exec", "serve", exec_start,
                                           batch_start + cost, pending.request.trace_id));
      const char* tier = result.scope == LookupScope::kBlock ? "serve.tier.block"
                         : result.scope == LookupScope::kAs  ? "serve.tier.as"
                                                             : "serve.tier.global";
      TURTLE_TRACE(config_.trace,
                   instant(tier, "serve", batch_start + cost, pending.request.trace_id));
    }
    in_flight_.push_back(InFlight{std::move(pending), result});
  }
  const SimTime batch_end = batch_start + cost;
  TURTLE_TRACE(config_.trace, complete("serve.batch", "serve", batch_start, batch_end));
  sim_.schedule_at(batch_end, [this, epoch = epoch_] { complete_batch(epoch); });
}

void OracleServer::complete_batch(std::uint64_t epoch) {
  // A stale epoch means the server crashed while this batch was in
  // flight; its requests were already shed by crash().
  if (epoch != epoch_) return;
  std::vector<InFlight> completed;
  completed.swap(in_flight_);
  // A callback is user code and may re-enter submit() (or crash()).
  // busy_ stays true until after they all fire, so re-entrant submissions
  // queue behind this batch instead of starting a nested one.
  for (InFlight& entry : completed) {
    const SimTime latency = sim_.now() - entry.pending.submit_time;
    latency_->observe(latency);
    served_->inc();
    if (const std::uint64_t trace_id = entry.pending.request.trace_id; trace_id != 0) {
      TURTLE_TRACE(config_.trace, complete("serve.req", "serve",
                                           entry.pending.submit_time, sim_.now(),
                                           trace_id));
      if (config_.exemplars != nullptr) {
        config_.exemplars->record(
            "serve.latency", obs::Histogram::bucket_for_us(latency.as_micros()),
            obs::ExemplarStore::Exemplar{trace_id, latency.as_micros(),
                                         sim_.now().as_micros()});
      }
    }
    if (entry.pending.callback) entry.pending.callback(entry.result, latency);
  }
  if (epoch != epoch_) return;  // crashed while callbacks ran
  busy_ = false;
  if (!down_ && !queue_.empty()) start_batch();
}

void OracleServer::swap_snapshot(std::shared_ptr<const OracleSnapshot> snapshot) {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "OracleServer used off its thread";
  snapshot_ = std::move(snapshot);
  snapshot_swaps_->inc();
  // The working set described the old snapshot's aggregates; a swapped-in
  // snapshot starts cold.
  lru_.clear();
  lru_index_.clear();
  if (snapshot_ != nullptr) {
    snapshot_version_->set_max(static_cast<std::int64_t>(snapshot_->version()));
  }
  TURTLE_TRACE(config_.trace, instant("serve.snapshot_swap", "serve", sim_.now()));
}

void OracleServer::crash(SimTime restart_delay) {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "OracleServer used off its thread";
  if (fault_crashes_ == nullptr) {
    fault_crashes_ = &config_.registry->counter("fault.serve.crashes");
  }
  fault_crashes_->inc();
  down_ = true;
  ++epoch_;  // orphan any scheduled batch completion
  // Everything the dead process held is shed — counted, never silent.
  for (std::size_t i = 0; i < in_flight_.size(); ++i) shed(ShedReason::kDown);
  in_flight_.clear();
  for (std::size_t i = 0; i < queue_.size(); ++i) shed(ShedReason::kDown);
  queue_.clear();
  busy_ = false;
  snapshot_.reset();
  lru_.clear();
  lru_index_.clear();
  TURTLE_TRACE(config_.trace, instant("serve.crash", "serve", sim_.now()));
  sim_.schedule_after(restart_delay, [this] { restart(); });
}

void OracleServer::restart() {
  // Recovery ladder: (1) reload of the snapshot file — O(read +
  // checksum) instead of O(rebuild); (2) the rebuild hook (checkpointed
  // record log); (3) serve global defaults snapshotless.
  // A rejected file is counted (fault.snapshot.load_rejected inside map())
  // and falls through — recovery degrades, never wedges.
  std::shared_ptr<const OracleSnapshot> next;
  bool install = false;
  if (!config_.snapshot_path.empty()) {
    next = OracleSnapshot::map(config_.snapshot_path, nullptr, config_.registry);
    if (next != nullptr) {
      snapshot_reloads_->inc();
      install = true;
    }
  }
  if (next == nullptr && rebuild_) {
    next = rebuild_();
    snapshot_rebuilds_->inc();
    install = true;
  }
  if (next != nullptr) {
    snapshot_version_->set_max(static_cast<std::int64_t>(next->version()));
  }
  if (install) snapshot_ = std::move(next);
  down_ = false;
  TURTLE_TRACE(config_.trace, instant("serve.restart", "serve", sim_.now()));
  if (!busy_ && !queue_.empty()) start_batch();
}

void OracleServer::finalize() {
  TURTLE_DCHECK(std::this_thread::get_id() == owner_) << "OracleServer used off its thread";
  const std::size_t leftover = queue_.size() + in_flight_.size();
  queued_->inc(leftover);
}

SimTime OracleServer::touch_cache(net::Ipv4Address addr) {
  const std::uint32_t network = net::Prefix24::containing(addr).network();
  if (const auto it = lru_index_.find(network); it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    cache_hits_->inc();
    return config_.service_time_hit;
  }
  cache_misses_->inc();
  lru_.push_front(network);
  lru_index_[network] = lru_.begin();
  if (lru_.size() > config_.cache_capacity) {
    lru_index_.erase(lru_.back());
    lru_.pop_back();
  }
  return config_.service_time_miss;
}

}  // namespace turtle::serve
