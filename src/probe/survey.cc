#include "probe/survey.h"

#include <algorithm>

#include "util/check.h"

namespace turtle::probe {

SurveyProber::SurveyProber(sim::Simulator& sim, sim::Network& net, SurveyConfig config,
                           std::vector<net::Prefix24> blocks, util::Prng rng)
    : sim_{sim},
      net_{net},
      config_{config},
      blocks_{std::move(blocks)},
      rng_{rng},
      probes_sent_{config.registry ? &config.registry->counter("survey.probes_sent")
                                   : &fallback_sent_},
      responses_received_{config.registry
                              ? &config.registry->counter("survey.responses_received")
                              : &fallback_responses_},
      matched_{config.registry ? &config.registry->counter("survey.matched")
                               : &fallback_matched_},
      timeouts_{config.registry ? &config.registry->counter("survey.timeouts")
                                : &fallback_timeouts_},
      unmatched_packets_{config.registry
                             ? &config.registry->counter("survey.unmatched_packets")
                             : &fallback_unmatched_},
      errors_{config.registry ? &config.registry->counter("survey.errors")
                              : &fallback_errors_},
      rtt_{config.registry ? &config.registry->histogram("survey.rtt")
                           : &fallback_rtt_},
      trace_{config.trace} {
  TURTLE_CHECK_GT(config_.rounds, 0);
  TURTLE_CHECK_GT(config_.round_interval, SimTime{});
  TURTLE_CHECK_GT(config_.match_timeout, SimTime{});
  TURTLE_CHECK_LE(config_.match_timeout, config_.round_interval)
      << "a probe must expire before its target's next round";
  // Each block gets a fixed sub-slot phase so probes from different blocks
  // do not all fire at the same instant; the within-block 2.58 s cadence
  // (and hence the 330 s off-by-one octet spacing) is preserved.
  const SimTime slot = config_.round_interval / 256;
  block_phase_.reserve(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    block_phase_.push_back(
        SimTime::micros(static_cast<std::int64_t>(rng_.uniform_int(
            static_cast<std::uint64_t>(std::max<std::int64_t>(slot.as_micros(), 1))))));
  }
}

void SurveyProber::start() {
  net_.attach_endpoint(config_.vantage, this);
  // Nearly every event a survey schedules is a block's next probe or a
  // probe's match timeout, each a fixed delay after the clock.
  sim_.declare_fixed_delay(config_.round_interval / 256);
  sim_.declare_fixed_delay(config_.match_timeout);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    schedule_slot(b, /*round=*/0, /*slot=*/0);
  }
  // The boundary-0 checkpoint makes a crash before the first round
  // boundary recoverable: resume restarts from an empty log.
  if (config_.checkpoints) take_checkpoint(0);
}

SimTime SurveyProber::end_time() const {
  return config_.round_interval * config_.rounds;
}

void SurveyProber::probe_slot(std::size_t block_index, int round, int slot) {
  const std::uint8_t octet = octet_for_slot(slot);
  const net::Ipv4Address target = blocks_[block_index].address(octet);
  const SimTime now = sim_.now();

  // One round marker per round, from the first block's first slot; the
  // round boundaries frame every probe span in the trace timeline.
  TURTLE_TRACE(block_index == 0 && slot == 0 ? trace_ : nullptr,
               instant("survey.round", "survey", now));

  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = config_.icmp_id;
  echo.seq = static_cast<std::uint16_t>(round);

  net::Packet packet;
  packet.src = config_.vantage;
  packet.dst = target;
  packet.protocol = net::Protocol::kIcmp;
  packet.payload = net::serialize_icmp(echo);

  // Source-address-only matching: one outstanding probe per target.
  outstanding_.put(target.value(), now, static_cast<std::uint32_t>(round));
  pending_fifo_.emplace_back(target.value(), now);
  evict_excess_pending();
  probes_sent_->inc();
  net_.send(packet);

  // Timer: if the probe is still outstanding when it fires, the probe is
  // recorded as timed out (1 s precision) and any later response will be
  // unmatched. FIFO tie-breaking means a response arriving exactly at the
  // deadline counts as late, like a real timer firing first.
  const SimTime sent_at = now;
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(config_.match_timeout, [this, epoch, target, sent_at, round] {
    if (epoch != epoch_) return;
    expire_probe(target, sent_at, static_cast<std::uint32_t>(round));
  });

  // Chain the next probe of this block.
  int next_round = round;
  int next_slot = slot + 1;
  if (next_slot == 256) {
    next_slot = 0;
    ++next_round;
    if (next_round >= config_.rounds) return;
  }
  schedule_slot(block_index, next_round, next_slot);
}

SimTime SurveyProber::slot_time(std::size_t block_index, int round, int slot) const {
  return config_.round_interval * round + block_phase_[block_index] +
         (config_.round_interval / 256) * slot;
}

void SurveyProber::schedule_slot(std::size_t block_index, int round, int slot) {
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(slot_time(block_index, round, slot),
                   [this, epoch, block_index, round, slot] {
                     if (epoch != epoch_) return;
                     probe_slot(block_index, round, slot);
                   });
}

void SurveyProber::expire_probe(net::Ipv4Address target, SimTime sent_at,
                                std::uint32_t round) {
  const PendingTable::Entry* probe = outstanding_.find(target.value());
  if (probe == nullptr || probe->send_time != sent_at) return;
  outstanding_.erase(probe);
  timeouts_->inc();
  TURTLE_TRACE(trace_, complete("probe.timeout", "survey", sent_at, sim_.now()));
  SurveyRecord rec;
  rec.type = RecordType::kTimeout;
  rec.address = target;
  rec.probe_time = sent_at.truncate_to_seconds();
  rec.round = round;
  log_.append(rec);
}

void SurveyProber::evict_excess_pending() {
  while (pending_fifo_head_ < pending_fifo_.size()) {
    const auto [addr, sent] = pending_fifo_[pending_fifo_head_];
    const PendingTable::Entry* probe = outstanding_.find(addr);
    // Stale shadow entry: the probe already matched, errored or expired.
    // Eviction would skip it, so dropping it now changes no eviction.
    const bool stale = probe == nullptr || probe->send_time != sent;
    if (!stale && outstanding_.size() <= config_.max_pending) break;
    ++pending_fifo_head_;
    if (stale) continue;
    fault_counter(pending_evicted_, "fault.survey.pending_evicted").inc();
    timeouts_->inc();
    SurveyRecord rec;
    rec.type = RecordType::kTimeout;
    rec.address = net::Ipv4Address{addr};
    rec.probe_time = sent.truncate_to_seconds();
    rec.round = probe->round;
    log_.append(rec);
    outstanding_.erase(probe);
  }
  if (pending_fifo_head_ > pending_fifo_.size() / 2) {
    pending_fifo_.erase(pending_fifo_.begin(),
                        pending_fifo_.begin() + static_cast<std::ptrdiff_t>(pending_fifo_head_));
    pending_fifo_head_ = 0;
  }
}

obs::Counter& SurveyProber::fault_counter(obs::Counter*& slot, const char* name) {
  if (slot == nullptr) {
    slot = config_.registry != nullptr ? &config_.registry->counter(name)
                                       : &fallback_fault_;
  }
  return *slot;
}

void SurveyProber::take_checkpoint(std::uint32_t completed_rounds) {
  SurveyCheckpoint cp;
  cp.round = completed_rounds;
  cp.taken_at = sim_.now();
  cp.rng = rng_.state();
  cp.pending.reserve(outstanding_.size());
  outstanding_.for_each([&cp](const PendingTable::Entry& probe) {
    cp.pending.push_back(
        SurveyCheckpoint::PendingProbe{probe.address, probe.send_time, probe.round});
  });
  // Hash-table iteration order is an implementation detail; sorting makes
  // the serialized checkpoint — and hence everything a resume derives from
  // it — independent of it.
  std::sort(cp.pending.begin(), cp.pending.end(),
            [](const SurveyCheckpoint::PendingProbe& a,
               const SurveyCheckpoint::PendingProbe& b) {
              return a.send_time != b.send_time ? a.send_time < b.send_time
                                                : a.address < b.address;
            });
  cp.write_bytes(log_, checkpoint_bytes_);
  checkpoint_log_size_ = log_.size();
  fault_counter(checkpoints_taken_, "fault.survey.checkpoints").inc();
  // Chain the next boundary. The chain event is created here — before any
  // of the next round's slot events exist — so FIFO tie-breaking runs the
  // checkpoint ahead of probes firing exactly at the boundary.
  if (completed_rounds < static_cast<std::uint32_t>(config_.rounds)) {
    const std::uint32_t next = completed_rounds + 1;
    const std::uint64_t epoch = epoch_;
    sim_.schedule_at(config_.round_interval * static_cast<int>(next),
                     [this, epoch, next] {
                       if (epoch != epoch_) return;
                       take_checkpoint(next);
                     });
  }
}

void SurveyProber::crash(SimTime restart_delay) {
  TURTLE_CHECK(config_.checkpoints)
      << "SurveyProber::crash requires SurveyConfig::checkpoints";
  TURTLE_CHECK(!checkpoint_bytes_.empty()) << "crash before start()";
  TURTLE_CHECK(!restart_delay.is_negative());
  ++epoch_;  // orphan every scheduled slot, timer and checkpoint event
  crashed_ = true;
  fault_counter(crashes_, "fault.survey.crashes").inc();
  // Everything since the last checkpoint is gone. These counters record
  // how much, so an analysis of a crashed run can quantify the loss.
  fault_counter(records_lost_, "fault.survey.records_lost")
      .inc(log_.size() - checkpoint_log_size_);
  fault_counter(pending_lost_, "fault.survey.pending_lost").inc(outstanding_.size());
  outstanding_.clear();
  last_unmatched_.clear();
  pending_fifo_.clear();
  pending_fifo_head_ = 0;
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(restart_delay, [this, epoch] {
    if (epoch != epoch_) return;
    resume_from_checkpoint();
  });
}

void SurveyProber::resume_from_checkpoint() {
  SurveyCheckpoint cp = SurveyCheckpoint::from_bytes(checkpoint_bytes_);
  crashed_ = false;
  rng_ = util::Prng::from_state(cp.rng);
  log_ = std::move(cp.log);
  checkpoint_log_size_ = log_.size();
  const SimTime now = sim_.now();

  // Restored pending probes: the crash window swallowed whatever became of
  // them. Ones past their deadline are re-expired as TIMEOUT records so
  // the resumed stream stays self-consistent; the rest get fresh timers.
  for (const SurveyCheckpoint::PendingProbe& p : cp.pending) {
    const net::Ipv4Address target{p.address};
    const SimTime deadline = p.send_time + config_.match_timeout;
    if (deadline <= now) {
      timeouts_->inc();
      SurveyRecord rec;
      rec.type = RecordType::kTimeout;
      rec.address = target;
      rec.probe_time = p.send_time.truncate_to_seconds();
      rec.round = p.round;
      log_.append(rec);
      continue;
    }
    outstanding_.put(p.address, p.send_time, p.round);
    pending_fifo_.emplace_back(p.address, p.send_time);
    const std::uint64_t epoch = epoch_;
    const SimTime sent_at = p.send_time;
    const std::uint32_t round = p.round;
    sim_.schedule_at(deadline, [this, epoch, target, sent_at, round] {
      if (epoch != epoch_) return;
      expire_probe(target, sent_at, round);
    });
  }

  // Each block resumes at its next not-yet-passed slot. Slots the crash
  // window covered are skipped, not replayed: their outcomes (if the
  // probes were ever sent) rolled back with the log.
  std::uint64_t missed = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    int round = static_cast<int>(cp.round);
    int slot = 0;
    while (round < config_.rounds && slot_time(b, round, slot) < now) {
      ++missed;
      if (++slot == 256) {
        slot = 0;
        ++round;
      }
    }
    if (round < config_.rounds) schedule_slot(b, round, slot);
  }
  fault_counter(slots_missed_, "fault.survey.slots_missed").inc(missed);

  // Restart the checkpoint chain at the next boundary still ahead of us.
  std::uint32_t next = cp.round + 1;
  while (next <= static_cast<std::uint32_t>(config_.rounds) &&
         config_.round_interval * static_cast<int>(next) < now) {
    ++next;
  }
  if (next <= static_cast<std::uint32_t>(config_.rounds)) {
    const std::uint64_t epoch = epoch_;
    sim_.schedule_at(config_.round_interval * static_cast<int>(next),
                     [this, epoch, next] {
                       if (epoch != epoch_) return;
                       take_checkpoint(next);
                     });
  }
}

void SurveyProber::deliver(const net::Packet& packet, std::uint32_t copies) {
  if (crashed_) {
    // The process is down; the address still exists but nobody is
    // listening. Responses arriving inside the crash window vanish.
    fault_counter(recv_while_down_, "fault.survey.recv_while_down").inc(copies);
    return;
  }
  const auto msg = net::parse_icmp(packet.payload.view());
  if (!msg.has_value()) return;

  if (msg->is_echo_reply()) {
    responses_received_->inc(copies);
    handle_echo_reply(packet, copies);
    return;
  }

  if (msg->type == net::IcmpType::kDestinationUnreachable) {
    // Error responses: record and drop the outstanding probe; the latency
    // analysis ignores these, as ISI's does.
    const auto up = net::UnreachablePayload::decode(msg->payload.view());
    if (!up.has_value()) return;
    const PendingTable::Entry* probe = outstanding_.find(up->original_dst.value());
    if (probe == nullptr) return;
    SurveyRecord rec;
    rec.type = RecordType::kError;
    rec.address = up->original_dst;
    rec.probe_time = probe->send_time.truncate_to_seconds();
    rec.round = probe->round;
    log_.append(rec);
    outstanding_.erase(probe);
    errors_->inc();
  }
}

void SurveyProber::handle_echo_reply(const net::Packet& packet, std::uint32_t copies) {
  const net::Ipv4Address src = packet.src;
  const PendingTable::Entry* probe = outstanding_.find(src.value());
  if (probe != nullptr) {
    SurveyRecord rec;
    rec.type = RecordType::kMatched;
    rec.address = src;
    rec.probe_time = probe->send_time;
    rec.rtt = sim_.now() - probe->send_time;  // µs precision
    // A matched RTT is bounded by the timeout window: the probe was sent at
    // send_time and its expiry timer has not fired yet. Negative would mean
    // the simulator clock ran backwards under us.
    TURTLE_DCHECK(!rec.rtt.is_negative()) << "negative RTT for " << src.value();
    TURTLE_DCHECK_LE(rec.rtt, config_.match_timeout);
    rec.round = probe->round;
    log_.append(rec);
    outstanding_.erase(probe);
    matched_->inc();
    rtt_->observe(rec.rtt);
    TURTLE_TRACE(trace_, complete("probe.matched", "survey", rec.probe_time, sim_.now()));
    if (copies > 1) record_unmatched(src, copies - 1);
    return;
  }
  record_unmatched(src, copies);
}

void SurveyProber::record_unmatched(net::Ipv4Address src, std::uint32_t copies) {
  unmatched_packets_->inc(copies);
  TURTLE_TRACE(trace_, instant("response.unmatched", "survey", sim_.now()));
  const std::int64_t second = sim_.now().truncate_to_seconds().as_micros();
  const auto it = last_unmatched_.find(src.value());
  if (it != last_unmatched_.end() && it->second.second == second) {
    log_.add_count(it->second.record_index, copies);
    return;
  }
  if (last_unmatched_.size() >= config_.max_unmatched_slots) {
    // Bounded coalescing index: a flood from many distinct sources cannot
    // grow it without limit. Flushing restarts coalescing — subsequent
    // responses open fresh records — so only log compactness is lost.
    last_unmatched_.clear();
    fault_counter(unmatched_flushed_, "fault.survey.unmatched_flushed").inc();
  }
  SurveyRecord rec;
  rec.type = RecordType::kUnmatched;
  rec.address = src;
  rec.probe_time = sim_.now().truncate_to_seconds();
  rec.count = copies;
  log_.append(rec);
  last_unmatched_[src.value()] = UnmatchedSlot{second, log_.size() - 1};
}

}  // namespace turtle::probe
