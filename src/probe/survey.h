// ISI-style Internet survey prober (Section 3.1 of the paper).
//
// Probes every address of its /24 target blocks once per round (default
// 11 minutes), pacing probes so a block receives one probe every
// interval/256 ≈ 2.58 s, in the characteristic even-octets-then-odd-octets
// order — which is why last octets that differ by one are probed 330 s
// apart, the spacing that makes broadcast responses produce the 165/330/
// 495 s artifacts the analysis must filter.
//
// Matching reproduces the dataset's information loss: responses are paired
// to outstanding probes by source address only; a response beating the
// 3-second timer becomes a µs-precision MATCHED record, a later one a
// 1 s-precision UNMATCHED record plus a TIMEOUT record for the probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/icmp.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe/checkpoint.h"
#include "probe/pending_table.h"
#include "probe/records.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/prng.h"

namespace turtle::probe {

struct SurveyConfig {
  net::Ipv4Address vantage = net::Ipv4Address::from_octets(203, 0, 113, 1);
  SimTime round_interval = SimTime::minutes(11);
  SimTime match_timeout = SimTime::seconds(3);
  int rounds = 20;
  std::uint16_t icmp_id = 0x5153;
  /// Optional metrics sink ("survey.*" counters and the "survey.rtt"
  /// matched-RTT histogram). Usually the owning World's registry.
  obs::Registry* registry = nullptr;
  /// Optional trace sink: probe lifecycle spans (matched / timed-out) and
  /// per-round instants, all on the simulated clock.
  obs::TraceSink* trace = nullptr;

  // --- Resilience knobs (turtle::fault) ---------------------------------
  /// Bound on outstanding probes. A duplicate/DoS storm cannot grow the
  /// pending table without limit: past the bound the *oldest* outstanding
  /// probe is written off as a TIMEOUT record and evicted (counted under
  /// "fault.survey.pending_evicted"). FIFO order keeps eviction
  /// deterministic — hash-table iteration order is not.
  std::size_t max_pending = std::size_t{1} << 20;
  /// Bound on the unmatched-coalescing index. Overflow flushes the index
  /// ("fault.survey.unmatched_flushed"); coalescing restarts, so a flush
  /// only costs log compactness, never correctness.
  std::size_t max_unmatched_slots = std::size_t{1} << 20;
  /// Serialize a checkpoint at start and at every round boundary.
  /// Required by crash(); off by default so faultless runs are unchanged.
  bool checkpoints = false;
};

/// Runs one survey. Construct, `start()`, then run the simulator; the
/// record log is complete once the simulator drains (or after
/// `end_time()` plus the longest delay of interest).
class SurveyProber : public sim::PacketSink {
 public:
  SurveyProber(sim::Simulator& sim, sim::Network& net, SurveyConfig config,
               std::vector<net::Prefix24> blocks, util::Prng rng);

  /// Attaches the vantage endpoint and schedules round 0.
  void start();

  /// First instant with no more probes scheduled.
  [[nodiscard]] SimTime end_time() const;

  void deliver(const net::Packet& packet, std::uint32_t copies) override;

  /// Fault layer: simulated process crash. All in-memory state is lost and
  /// every scheduled callback of this prober is orphaned; `restart_delay`
  /// later the prober reloads its last round-boundary checkpoint and
  /// resumes each block at its next not-yet-passed slot. Restored pending
  /// probes past their deadline are re-expired as TIMEOUT records, so the
  /// resumed record stream stays self-consistent. Requires
  /// SurveyConfig::checkpoints and may only be called after start().
  void crash(SimTime restart_delay);

  /// Last serialized checkpoint (SurveyCheckpoint::from_bytes decodes it).
  /// Non-empty once start() ran with checkpoints enabled; a driver that
  /// wants durable restarts can persist exactly these bytes.
  [[nodiscard]] const std::string& checkpoint_bytes() const { return checkpoint_bytes_; }

  [[nodiscard]] const RecordLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_->value(); }
  /// Echo replies received, including duplicates and broadcast responses.
  [[nodiscard]] std::uint64_t responses_received() const {
    return responses_received_->value();
  }
  /// Entries in the eviction FIFO. Settled probes leave it as soon as they
  /// reach its front, so it holds about one match_timeout of probes.
  [[nodiscard]] std::size_t pending_fifo_size() const {
    return pending_fifo_.size() - pending_fifo_head_;
  }
  /// Fraction of probes matched within the timeout — the "response rate"
  /// the paper reports per survey (Figure 9's bottom panel), immune to
  /// duplicate floods inflating the raw response count.
  [[nodiscard]] double match_rate() const {
    return probes_sent() ? static_cast<double>(log_.count_of(RecordType::kMatched)) /
                               static_cast<double>(probes_sent())
                         : 0.0;
  }

 private:
  /// Octet probed at within-round slot `i`: evens ascending, then odds.
  [[nodiscard]] static std::uint8_t octet_for_slot(int slot) {
    return static_cast<std::uint8_t>(slot < 128 ? 2 * slot : 2 * (slot - 128) + 1);
  }

  void probe_slot(std::size_t block_index, int round, int slot);
  void handle_echo_reply(const net::Packet& packet, std::uint32_t copies);
  void record_unmatched(net::Ipv4Address src, std::uint32_t copies);

  /// Absolute sim time of a (round, slot) for a block, phase included.
  [[nodiscard]] SimTime slot_time(std::size_t block_index, int round, int slot) const;
  /// schedule_at(slot_time(...)) with the current-epoch guard attached.
  void schedule_slot(std::size_t block_index, int round, int slot);
  /// Shared body of the match-timeout timer and resume-time re-expiry.
  void expire_probe(net::Ipv4Address target, SimTime sent_at, std::uint32_t round);
  void take_checkpoint(std::uint32_t completed_rounds);
  void resume_from_checkpoint();
  /// Pops settled probes off the FIFO's front and, while more than
  /// max_pending probes are outstanding, evicts the oldest of them.
  void evict_excess_pending();
  /// Lazily binds a fault counter: registry-backed when a registry is
  /// attached, shared fallback otherwise. Lazy so a faultless run never
  /// creates "fault.*" series and its metrics dump is byte-identical to
  /// builds without this layer.
  obs::Counter& fault_counter(obs::Counter*& slot, const char* name);

  /// Coalescing state: the last unmatched record per source.
  struct UnmatchedSlot {
    std::int64_t second;
    std::size_t record_index;
  };

  sim::Simulator& sim_;
  sim::Network& net_;
  SurveyConfig config_;
  std::vector<net::Prefix24> blocks_;
  std::vector<SimTime> block_phase_;  ///< per-block de-synchronization
  util::Prng rng_;

  PendingTable outstanding_;
  std::unordered_map<std::uint32_t, UnmatchedSlot> last_unmatched_;
  RecordLog log_;

  /// Insertion-ordered (address, send_time) shadow of outstanding_; the
  /// deterministic eviction order for max_pending. Entries go stale when a
  /// probe is matched, errored or expired; each push pops the stale ones
  /// off the front, so the FIFO spans one match_timeout, not the survey.
  /// Its front is pending_fifo_[pending_fifo_head_]: a pop advances the
  /// head, and the popped prefix is erased once it passes half the vector,
  /// so the buffer settles at its working size and allocates no more.
  std::vector<std::pair<std::uint32_t, SimTime>> pending_fifo_;
  std::size_t pending_fifo_head_ = 0;
  /// Bumped by crash(): every scheduled lambda captures the epoch it was
  /// created under and no-ops if the prober crashed since.
  std::uint64_t epoch_ = 0;
  bool crashed_ = false;
  std::string checkpoint_bytes_;
  std::size_t checkpoint_log_size_ = 0;  ///< log_.size() at last checkpoint

  // Registry-backed counters with private fallbacks so the hot paths never
  // branch on "is a registry attached".
  obs::Counter fallback_sent_;
  obs::Counter fallback_responses_;
  obs::Counter fallback_matched_;
  obs::Counter fallback_timeouts_;
  obs::Counter fallback_unmatched_;
  obs::Counter fallback_errors_;
  obs::Histogram fallback_rtt_;
  obs::Counter* probes_sent_;         ///< "survey.probes_sent"
  obs::Counter* responses_received_;  ///< "survey.responses_received"
  obs::Counter* matched_;             ///< "survey.matched"
  obs::Counter* timeouts_;            ///< "survey.timeouts"
  obs::Counter* unmatched_packets_;   ///< "survey.unmatched_packets"
  obs::Counter* errors_;              ///< "survey.errors"
  obs::Histogram* rtt_;               ///< "survey.rtt" (matched only)
  obs::TraceSink* trace_;

  // Fault-path counters, bound lazily on first use (see fault_counter).
  obs::Counter fallback_fault_;
  obs::Counter* crashes_ = nullptr;            ///< "fault.survey.crashes"
  obs::Counter* records_lost_ = nullptr;       ///< "fault.survey.records_lost"
  obs::Counter* pending_lost_ = nullptr;       ///< "fault.survey.pending_lost"
  obs::Counter* slots_missed_ = nullptr;       ///< "fault.survey.slots_missed"
  obs::Counter* pending_evicted_ = nullptr;    ///< "fault.survey.pending_evicted"
  obs::Counter* unmatched_flushed_ = nullptr;  ///< "fault.survey.unmatched_flushed"
  obs::Counter* recv_while_down_ = nullptr;    ///< "fault.survey.recv_while_down"
  obs::Counter* checkpoints_taken_ = nullptr;  ///< "fault.survey.checkpoints"
};

}  // namespace turtle::probe
