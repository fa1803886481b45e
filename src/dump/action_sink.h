#ifndef WICLEAN_DUMP_ACTION_SINK_H_
#define WICLEAN_DUMP_ACTION_SINK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dump/quarantine.h"
#include "revision/action.h"
#include "revision/revision_store.h"

namespace wiclean {

/// The parse/diff stage's output for one page: the recovered actions plus the
/// per-page counter deltas that roll up into IngestStats. Produced by
/// ParsePageActions (a pure function, safe to run concurrently across pages)
/// and merged into an ActionSink strictly in `sequence` order.
///
/// Degraded-mode ingests (IngestOptions::on_error != kStrict) also use this
/// struct as the skip channel: a page- or region-level fault produces a batch
/// with `skipped = true` and no actions, and revision-level faults leave the
/// page alive but bump `revisions_skipped`. Skip batches flow through the
/// same ordered merge as real ones, which is what keeps counters and
/// quarantine-record order deterministic at any worker count.
struct PageActions {
  uint64_t sequence = 0;  // 0-based index of the page in its PageSource
  std::vector<Action> actions;  // page-chronological, diff order preserved

  bool known_page = false;      // title resolved against the registry
  size_t revisions = 0;         // revisions diffed on this page
  size_t unresolved_links = 0;  // link targets skipped as unregistered

  bool skipped = false;          // page/region dropped whole (policy skip)
  bool region_skip = false;      // skip is a raw byte region, not a parsed page
  size_t revisions_skipped = 0;  // individual revisions dropped on this page
  SkipCounts skipped_by_reason{};  // per-reason deltas (page + revision level)
  std::vector<QuarantineRecord> quarantine;  // kQuarantine payloads, in order
};

/// Last stage of the ingestion pipeline. The pipeline guarantees Append is
/// called from one thread at a time and in strictly increasing sequence
/// order regardless of how parse workers finish — so implementations need
/// no locking and observe exactly the order a sequential ingest would have
/// produced.
class ActionSink {
 public:
  virtual ~ActionSink() = default;

  /// Consumes one page's batch. A non-OK status aborts the pipeline.
  [[nodiscard]] virtual Status Append(PageActions&& batch) = 0;
};

/// The standard sink: appends every action to a RevisionStore.
class RevisionStoreSink : public ActionSink {
 public:
  /// The store must outlive this object.
  explicit RevisionStoreSink(RevisionStore* store) : store_(store) {}

  [[nodiscard]] Status Append(PageActions&& batch) override {
    store_->AddBatch(batch.actions);
    return Status::OK();
  }

 private:
  RevisionStore* store_;
};

}  // namespace wiclean

#endif  // WICLEAN_DUMP_ACTION_SINK_H_
