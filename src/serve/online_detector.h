#ifndef WICLEAN_SERVE_ONLINE_DETECTOR_H_
#define WICLEAN_SERVE_ONLINE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "core/assist.h"
#include "core/partial.h"
#include "graph/entity_registry.h"
#include "serve/pattern_index.h"
#include "serve/pattern_store.h"

namespace wiclean {

/// Options of one incremental detector.
struct OnlineDetectorOptions {
  /// Bounded out-of-orderness the stream is allowed: the event-time
  /// watermark trails the maximum observed event time by this much, so an
  /// event may arrive up to `allowed_skew` seconds after a later-stamped one
  /// without being dropped. 0 = the stream is promised in-order.
  Timestamp allowed_skew = 0;

  /// Join/abstraction options; max_abstraction_lift must match the snapshot
  /// provenance or realization routing will not line up with mining.
  PartialDetectorOptions detector;

  /// Pattern partition owned by this detector: patterns whose snapshot index
  /// satisfies id % num_shards == shard_index. Every shard must observe the
  /// whole event stream; per-pattern processing stays sequential inside one
  /// shard, which is why sharding cannot perturb the alert set.
  size_t shard_index = 0;
  size_t num_shards = 1;
};

/// One finalized pattern: emitted exactly once, when the watermark passes the
/// pattern's window end (or at FinishStream). Carries the full
/// batch-equivalent detection report plus EditAssistant-style completion
/// suggestions for each partial realization.
struct OnlineAlert {
  uint32_t pattern_id = 0;
  PartialUpdateReport report;
  std::vector<EditSuggestion> suggestions;
  /// Watermark at emission time (kMaxTimestamp-ish for FinishStream flushes).
  Timestamp watermark = 0;
  /// Wall-clock cost of realizing this pattern's state into the report.
  double finalize_seconds = 0;
};

/// Counters over the lifetime of one detector.
struct OnlineDetectorStats {
  uint64_t events_observed = 0;
  /// Events buffered into at least one owned pattern's state.
  uint64_t events_matched = 0;
  /// Total (event, pattern-action) index hits — the dispatch volume an
  /// unindexed detector would pay for every pattern on every event.
  uint64_t slot_hits = 0;
  /// Pattern hits that arrived after the pattern had already finalized; only
  /// possible when the stream's disorder exceeds allowed_skew.
  uint64_t late_events = 0;
  uint64_t patterns_finalized = 0;
  /// Finalizations that produced at least one partial realization.
  uint64_t alerts_with_partials = 0;
  double finalize_seconds = 0;
};

/// Incremental Algorithm 3 over a pattern snapshot. Events arrive one at a
/// time (Observe); per-pattern state accumulates the raw edits of every edge
/// that can realize one of the pattern's abstract actions (op-agnostic, so
/// inverse edits cancel during reduction exactly as in the batch path). When
/// the event-time watermark (max observed time − allowed_skew) passes a
/// pattern's window end, the pattern is *finalized*: per-edge buffers are
/// reduced with the same ReduceActions as batch ingestion, realization
/// tables are assembled, and the shared DetectPartialsFromRealizations fold
/// (core/partial.h) produces the report — which is why replaying any action
/// log online yields exactly the batch PartialUpdateDetector's alert set.
///
/// Not thread-safe: one instance is one shard, and DetectorService gives
/// each shard of a tenant its own instance, driven by one worker thread.
class OnlineDetector {
 public:
  /// `registry` must outlive the detector.
  OnlineDetector(const EntityRegistry* registry,
                 OnlineDetectorOptions options);

  /// Registers this shard's partition of the snapshot's patterns. Call once
  /// before the first Observe. The detector *borrows* the shared snapshot
  /// (per-pattern state holds pointers into it) — this is what lets thousands
  /// of sessions serve one immutable epoch without copying it; the epoch's
  /// refcount (serve/snapshot_registry.h) keeps the snapshot alive for as
  /// long as any detector references it.
  [[nodiscard]] Status LoadPatterns(
      std::shared_ptr<const PatternSnapshot> snapshot);

  /// Feeds one event. `sequence` is the event's rank in the canonical stream
  /// order (e.g. revision id) and breaks timestamp ties during reduction the
  /// same way log order does in the batch store; feeders that deliver
  /// in-order can simply pass an incrementing counter. Alerts for patterns
  /// whose windows the new watermark closes are appended to `alerts`.
  [[nodiscard]] Status Observe(const Action& action, uint64_t sequence,
                               std::vector<OnlineAlert>* alerts);

  /// Finalizes every remaining pattern regardless of watermark. The detector
  /// rejects further Observe calls afterwards.
  [[nodiscard]] Status FinishStream(std::vector<OnlineAlert>* alerts);

  Timestamp watermark() const { return watermark_; }
  size_t num_patterns() const { return patterns_.size(); }
  const OnlineDetectorStats& stats() const { return stats_; }
  const PatternIndex& index() const { return index_; }

 private:
  struct SeqAction {
    Action action;
    uint64_t sequence = 0;
  };
  /// Edge identity within a pattern's buffered state; Relation's < orders by
  /// name, so iteration order does not depend on relation ids.
  using EdgeKey = std::tuple<EntityId, Relation, EntityId>;

  struct PatternState {
    uint32_t id = 0;  // index into the snapshot's pattern list
    /// Borrowed from snapshot_ — immutable, shared by every session pinned
    /// to the same epoch.
    const StoredPattern* stored = nullptr;
    bool finalized = false;
    /// Raw in-window edits of every routed edge, in arrival order; sorted by
    /// (time, sequence) and reduced at finalization. std::map keeps
    /// iteration deterministic.
    std::map<EdgeKey, std::vector<SeqAction>> edges;
  };

  [[nodiscard]] Status Finalize(PatternState* state,
                                std::vector<OnlineAlert>* alerts);
  [[nodiscard]] Status ExpireUpTo(Timestamp watermark,
                                  std::vector<OnlineAlert>* alerts);
  bool TypeWithinLift(TypeId concrete, TypeId general) const;

  const EntityRegistry* registry_;
  OnlineDetectorOptions options_;
  PatternIndex index_;
  /// Keeps the borrowed pattern state alive (epoch pin or private copy).
  std::shared_ptr<const PatternSnapshot> snapshot_;
  std::vector<PatternState> patterns_;  // this shard's partition only
  /// Local pattern positions ordered by (window end, id); expiry_cursor_
  /// marks the first not-yet-finalized one.
  std::vector<size_t> expiry_order_;
  size_t expiry_cursor_ = 0;
  Timestamp max_event_time_ = 0;
  bool saw_event_ = false;
  bool finished_ = false;
  Timestamp watermark_ = 0;
  OnlineDetectorStats stats_;
  /// Reused per Observe so the hot path does not allocate.
  std::vector<PatternSlot> lookup_scratch_;
  std::vector<uint32_t> routed_scratch_;
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_ONLINE_DETECTOR_H_
