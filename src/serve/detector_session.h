#ifndef WICLEAN_SERVE_DETECTOR_SESSION_H_
#define WICLEAN_SERVE_DETECTOR_SESSION_H_

#include <cstdint>
#include <vector>

#include "serve/online_detector.h"

namespace wiclean {

/// Deterministic serving fault plan — the fault-injection hooks the serving
/// tests use to exercise failure paths without relying on timing luck.
/// kNoShard (the default) disables a fault. Counts are in events *consumed
/// by that shard*, so a plan replays identically at any queue capacity or
/// thread schedule.
struct ShardFaultPlan {
  static constexpr size_t kNoShard = static_cast<size_t>(-1);

  /// Shard whose detector "panics": its Observe is replaced by an injected
  /// Internal error once the shard has consumed `poison_after` events.
  size_t poison_shard = kNoShard;
  uint64_t poison_after = 0;

  /// Shard whose worker wedges: after consuming `stall_after` events it
  /// parks *before* the next Pop (backlog visibly piles up, the consumed
  /// counter freezes) until the tenant is quarantined. Models a stuck
  /// consumer the watchdog must detect — the shard never errors on its own.
  size_t stall_shard = kNoShard;
  uint64_t stall_after = 0;
};

/// End-of-session summary of one tenant (DetectorService::CloseSession):
/// merged alerts plus per-stage counters and timings.
struct SessionReport {
  /// Alerts of all shards, ordered by pattern id (deterministic across
  /// shard counts).
  std::vector<OnlineAlert> alerts;
  /// Shard stats summed. events_observed counts every (event, shard) pair —
  /// it is events_fed * shards when nothing was dropped.
  OnlineDetectorStats stats;
  uint64_t events_fed = 0;
  /// Feeds rejected with kOverloaded (delivered nowhere, not counted in
  /// events_fed).
  uint64_t events_shed = 0;
  /// Producer-side wall time spent pushing into the shard queues (includes
  /// backpressure).
  double feed_seconds = 0;
  /// Per-shard wall time spent observing events (excludes queue waits).
  std::vector<double> shard_busy_seconds;
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_DETECTOR_SESSION_H_
