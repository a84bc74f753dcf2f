// Survey checkpoint: the prober state serialized at a round boundary.
//
// The resilience contract (DESIGN § 12): a survey prober can crash at any
// simulated instant and restart from its last round-boundary checkpoint,
// losing only the records and pending probes accumulated since. The
// checkpoint is a byte string — really serialized, not just an in-memory
// snapshot — so the same mechanism covers a real on-disk checkpoint file.
//
// Contents: the completed-round index, the record log up to the boundary,
// the PRNG stream state, and every pending (outstanding) probe with its
// send time. Pending probes whose match timer would have expired during
// the crash window are re-expired as TIMEOUT records on resume, so the
// record stream stays consistent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "probe/records.h"
#include "util/prng.h"
#include "util/sim_time.h"

namespace turtle::probe {

struct SurveyCheckpoint {
  /// Rounds [0, round) are fully recorded in `log`.
  std::uint32_t round = 0;
  /// Simulated instant the checkpoint was taken (the round boundary).
  SimTime taken_at;
  /// The prober's PRNG stream at the boundary.
  util::Prng::State rng;
  /// All records emitted before the boundary.
  RecordLog log;

  /// One outstanding probe at the boundary (sent, not yet matched or
  /// timed out). Sorted by (send_time, address) so a checkpoint is
  /// byte-identical regardless of hash-map iteration order.
  struct PendingProbe {
    std::uint32_t address = 0;
    SimTime send_time;
    std::uint32_t round = 0;
  };
  std::vector<PendingProbe> pending;

  /// Binary round trip. from_bytes throws std::runtime_error on a corrupt
  /// checkpoint (a checkpoint the prober cannot trust is fatal by design —
  /// unlike record streams, there is no way to degrade gracefully past a
  /// bad resume point).
  [[nodiscard]] std::string to_bytes() const;
  static SurveyCheckpoint from_bytes(const std::string& bytes);

  /// The bytes to_bytes() would give with `records` in place of `log`,
  /// written over `out`'s contents into its buffer. The prober checkpoints
  /// its live log this way: no record is copied, and every boundary of a
  /// survey reuses one buffer.
  void write_bytes(const RecordLog& records, std::string& out) const;
};

}  // namespace turtle::probe
