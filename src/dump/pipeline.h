#ifndef WICLEAN_DUMP_PIPELINE_H_
#define WICLEAN_DUMP_PIPELINE_H_

#include <cstddef>

#include "common/result.h"
#include "dump/action_sink.h"
#include "dump/ingest.h"
#include "dump/page_source.h"
#include "graph/entity_registry.h"

namespace wiclean {

/// Pages per reader-to-worker hand-off in the parallel pipeline: the reader
/// pushes consecutive pages to the queue in batches of this many, and a
/// worker parses a whole batch before merging it.
inline constexpr size_t kIngestHandoffPages = 8;

/// The staged ingestion pipeline — the paper's preprocessing step decomposed
/// into three composable stages:
///
///   PageSource ──► bounded queue ──► parse/diff workers ──► ordered merge
///    (1 thread)    (backpressure)     (ThreadPool, N)        ──► ActionSink
///
/// Stage 1 pulls pages from `source` and pushes batches of up to
/// kIngestHandoffPages (sequence, page) items into a BoundedQueue holding
/// ⌈options.queue_capacity / kIngestHandoffPages⌉ batches. The reader also
/// starts a batch only while pages read but not yet merged stay within
/// queue_capacity + num_threads × kIngestHandoffPages, so it can never race
/// further ahead of slow workers, and the reorder buffer stays bounded too.
/// Stage 2 runs ParsePageActions on each page of a batch — pure per-page
/// work (infobox extraction + revision diffing + title resolution), which is
/// why pages parallelize with no locking. Stage 3 reorders finished batches
/// by sequence number and feeds `sink` page by page in exact source order,
/// so the output is deterministic — a RevisionStore built with 8 workers is
/// identical to one built with 1.
///
/// Error handling: the parallel run returns the status the sequential one
/// would. A failure (malformed XML in the source, Corruption from a worker,
/// a sink error) takes the sequence slot of the page it struck, and the
/// lowest slot wins, whichever stage reported first: the reader can run a
/// page budget ahead of the workers, so a later page's read error may come
/// in before an earlier page's parse error. Any failure stops the reader.
/// The pages before the winning slot still parse and merge, as they would
/// sequentially; then the queue is cancelled, which unblocks the reader and
/// drains every worker — no hang, no leaked tasks.
///
/// options.num_threads <= 1 runs all three stages synchronously on the
/// calling thread (no queue, no pool): exactly the historical IngestDump
/// behavior.
[[nodiscard]] Result<IngestStats> RunIngestPipeline(PageSource* source,
                                      const EntityRegistry& registry,
                                      ActionSink* sink,
                                      const IngestOptions& options = {});

}  // namespace wiclean

#endif  // WICLEAN_DUMP_PIPELINE_H_
