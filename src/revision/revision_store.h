#ifndef WICLEAN_REVISION_REVISION_STORE_H_
#define WICLEAN_REVISION_REVISION_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "revision/action.h"
#include "revision/window.h"

namespace wiclean {

/// Per-entity revision logs — the "structured revisions database" the paper
/// wishes Wikipedia provided (§6.2). Each entity's log holds the link-edit
/// actions recorded on its own page (i.e., edits to its outgoing links),
/// ordered by timestamp.
///
/// The miner deliberately reads this store *incrementally*, entity set by
/// entity set, instead of materializing one big edits graph — that asymmetry
/// is the PM vs PM−inc experiment.
///
/// Logs sit in one vector in first-touch order, found through a flat
/// open-addressing table from entity id to log index. Nothing is sized by an
/// id's value, so any int64 subject, negative or huge, costs one log.
///
/// Thread-safety: build-then-read. Add is not synchronized — the parallel
/// ingestion pipeline (dump/pipeline.h) and the parallel WCAL replay
/// (log/replay.h) serialize all Add/AddBatch calls through their ordered
/// merge, and the mining side only reads. Concurrent const queries are safe
/// once building is done.
class RevisionStore {
 public:
  RevisionStore() = default;

  /// Records an action in the log of action.subject. Out-of-order inserts
  /// are allowed; logs are kept sorted by timestamp (stable for ties).
  void Add(Action action);

  /// Bulk append: records every action of `actions`, producing a store
  /// identical to calling Add() once per action in order, ties included.
  /// Each maximal same-subject run costs one lookup and one append; a run
  /// that is time-sorted and starts no earlier than its log's last action
  /// is then done. Other runs are stable-sorted and merged into their log
  /// once per log, after the whole batch is appended. This is the append
  /// path of the WCAL replay (log/replay.h) and the pipeline's
  /// RevisionStoreSink, where actions arrive in large page/block batches.
  void AddBatch(std::span<const Action> actions);

  /// Total number of recorded actions across all logs.
  size_t num_actions() const { return num_actions_; }

  /// The full log of one entity (empty vector if it has no edits), valid
  /// until the store next changes.
  const std::vector<Action>& LogOf(EntityId entity) const;

  /// All actions of `entity` with time in `window`: a slice of its
  /// time-sorted log, valid until the store next changes.
  std::span<const Action> ActionsInWindow(EntityId entity,
                                          const TimeWindow& window) const;

  /// Earliest and latest timestamps present in the store; returns false when
  /// the store is empty.
  bool TimeSpan(Timestamp* begin, Timestamp* end) const;

 private:
  static constexpr uint32_t kAbsent = ~uint32_t{0};

  struct Log {
    EntityId entity = kInvalidEntityId;
    std::vector<Action> actions;
  };

  /// The index of `entity`'s log, or kAbsent.
  uint32_t Find(EntityId entity) const;
  /// The index of `entity`'s log, appending an empty one when absent.
  uint32_t FindOrInsert(EntityId entity);
  void Grow();

  std::vector<Log> logs_;        // first-touch order
  std::vector<uint32_t> slots_;  // log indices or kAbsent; power of two,
                                 // at most half full
  int shift_ = 64;               // 64 - log2(slots_.size())
  size_t num_actions_ = 0;
};

/// Reduces an action multiset to its unique net effect (§3, "reduced set of
/// actions"): for every edge (subject, relation, object), the chronological
/// edit sequence is collapsed — an action and a later inverse cancel — and at
/// most one action survives, carrying the timestamp of the last edit of that
/// edge. Output order follows first appearance of each edge in `actions`.
///
/// This also tolerates noisy logs (duplicate adds, deletes of absent edges):
/// initial edge presence is inferred from the first recorded op, and only a
/// net presence change emits an action.
///
/// One stable sort of action indices groups the edges; no per-action key is
/// built. The string-keyed original is the test oracle
/// tests/support/reference_reduce.h.
std::vector<Action> ReduceActions(std::span<const Action> actions);

/// Order-sensitive fingerprint of every log of entities [0, num_entities):
/// two stores digest equal iff each entity's log holds the same actions in
/// the same order. The differential backbone of the WCAL replay tests and
/// the end-to-end benchmark's "replay-of-log == direct XML ingest" checks.
uint64_t StoreDigest(const RevisionStore& store, EntityId num_entities);

}  // namespace wiclean

#endif  // WICLEAN_REVISION_REVISION_STORE_H_
