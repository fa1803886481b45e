#ifndef WICLEAN_DUMP_INGEST_H_
#define WICLEAN_DUMP_INGEST_H_

#include <cstdint>
#include <istream>
#include <string>

#include "common/result.h"
#include "dump/action_sink.h"
#include "dump/dump.h"
#include "dump/quarantine.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"

namespace wiclean {

/// Counters describing one ingestion run; the preprocessing half of the
/// Fig 4 timing columns comes from timing this step.
struct IngestStats {
  size_t pages = 0;
  size_t revisions = 0;
  size_t actions = 0;           // link edits recovered by diffing
  size_t unknown_pages = 0;     // pages whose title is not registered
  size_t unresolved_links = 0;  // link targets not registered (skipped)

  /// Degraded-mode accounting (all zero under kStrict and on clean dumps).
  /// Counts are merged in page order, so they are deterministic at any
  /// worker count.
  size_t pages_skipped = 0;      // whole pages dropped by the parse stage
  size_t revisions_skipped = 0;  // individual revisions dropped
  size_t regions_skipped = 0;    // raw byte regions the reader resynced past
  size_t quarantined = 0;        // records written to the QuarantineSink
  SkipCounts skipped_by_reason{};  // per-reason breakdown of all of the above

  /// Per-stage wall time, so harnesses can report where preprocessing time
  /// goes. `read_seconds` and `merge_seconds` are wall time spent in the
  /// PageSource and ActionSink stages (always single-threaded);
  /// `parse_seconds` is the *summed* time across parse/diff workers, so with
  /// num_threads > 1 it can exceed the elapsed wall time.
  double read_seconds = 0.0;
  double parse_seconds = 0.0;
  double merge_seconds = 0.0;

  /// WCAL action-log accounting (all zero unless an action log is involved).
  /// On the write side (`wiclean ingest` / a teeing XML ingest),
  /// log_write_seconds is the wall time spent encoding+writing blocks. On the
  /// replay side (log/replay.h), log_read_seconds is wall time in block
  /// decode, log_replay_seconds in the store-append merge, and
  /// log_blocks/log_blocks_skipped count blocks decoded vs dropped by a
  /// skip/quarantine policy.
  double log_write_seconds = 0.0;
  double log_read_seconds = 0.0;
  double log_replay_seconds = 0.0;
  size_t log_blocks = 0;
  size_t log_blocks_skipped = 0;

  std::string ToString() const;
};

/// What to do when a page, revision, or input region cannot be ingested
/// (malformed XML, corrupt wikitext, or a resource guard tripping).
enum class ErrorPolicy {
  /// Fail fast: the first error aborts the whole ingest. The default, and
  /// byte-identical to the historical behavior.
  kStrict = 0,
  /// Drop the offending revision/page/region, count it in IngestStats, and
  /// keep going. The surviving pages' action stream is exactly what a clean
  /// ingest of those pages would have produced, at any thread count.
  kSkip,
  /// Like kSkip, but additionally writes the raw skipped input plus a
  /// structured reason record to IngestOptions::quarantine for offline
  /// triage.
  kQuarantine,
};

/// Per-page/per-revision resource guards, enforced by the parse stage. A
/// breach surfaces as kResourceExhausted and hits the same ErrorPolicy
/// machinery as corrupt input, so an adversarial or degenerate page cannot
/// balloon memory or parse work. Zero means unlimited (the default: clean
/// behavior unchanged).
struct IngestLimits {
  size_t max_revision_bytes = 0;      // longest tolerated revision text
  size_t max_revisions_per_page = 0;  // most revisions on one page
  size_t max_actions_per_page = 0;    // most recovered actions on one page
  int max_infobox_nesting_depth = 0;  // wikitext parser template depth
};

/// Options controlling ingestion strictness and parallelism.
struct IngestOptions {
  /// When true, an unregistered page title aborts with NotFound; when false
  /// (default) the page is skipped and counted in unknown_pages. Link targets
  /// that do not resolve are always skipped and counted — real dumps link to
  /// plenty of articles outside any entity alignment.
  bool strict_pages = false;

  /// Parse/diff workers. 1 (default) ingests synchronously on the calling
  /// thread — exactly the pre-pipeline behavior, no threads spawned. With
  /// N > 1, pages fan out across a ThreadPool of N workers; the resulting
  /// RevisionStore is byte-identical to the sequential one because batches
  /// are merged in page order.
  size_t num_threads = 1;

  /// Bound on buffered pages between the reader and the workers, keeping
  /// memory proportional to the queue, not the dump. Pages travel in
  /// batches of kIngestHandoffPages (dump/pipeline.h); the queue holds
  /// ⌈queue_capacity / kIngestHandoffPages⌉ batches, and pages read but not
  /// yet merged never exceed queue_capacity + num_threads ×
  /// kIngestHandoffPages. Ignored when num_threads <= 1.
  size_t queue_capacity = 64;

  /// Fault tolerance (see DESIGN.md §2c "Degraded-mode ingestion"). Under
  /// kSkip/kQuarantine the ingest additionally rejects revisions that rewind
  /// the page timeline or repeat a revision id — defensive integrity checks
  /// that the historical strict parser never ran (kStrict keeps not running
  /// them, so its behavior is exactly the pre-policy one).
  ErrorPolicy on_error = ErrorPolicy::kStrict;

  /// Resource guards; breaches follow `on_error` like any other fault.
  IngestLimits limits;

  /// Destination for skipped input under kQuarantine; must be non-null then
  /// and outlive the ingest. Ignored under other policies.
  QuarantineSink* quarantine = nullptr;
};

/// The parse/diff stage as a pure function: extracts the infobox-link edits
/// of one page (consecutive revisions diffed, the first against the empty
/// page) and resolves titles against the registry. No shared state is
/// touched — safe to call concurrently for distinct pages, which is what the
/// parallel ingestion pipeline does.
///
/// Errors: Corruption from the wikitext parser, or NotFound for an
/// unregistered page title when options.strict_pages is set (otherwise the
/// batch comes back with known_page = false and no actions).
[[nodiscard]] Result<PageActions> ParsePageActions(const DumpPage& page, uint64_t sequence,
                                     const EntityRegistry& registry,
                                     const IngestOptions& options);

/// Replays a dump into a RevisionStore: for every page, consecutive revision
/// texts are diffed (the first against the empty page) and each added/removed
/// infobox link becomes an Action timestamped with the newer revision.
///
/// This is the paper's crawl-and-parse preprocessing step (§6.1/§6.2): the
/// revision history arrives as full page texts, and the structured edit log
/// must be reconstructed by parsing and diffing. Thin wrapper over
/// RunIngestPipeline (see dump/pipeline.h) with an XmlPageSource and a
/// RevisionStoreSink; options.num_threads parallelizes the parse/diff stage.
[[nodiscard]] Result<IngestStats> IngestDump(std::istream* in,
                               const EntityRegistry& registry,
                               RevisionStore* store,
                               const IngestOptions& options = {});

/// Ingests a single already-parsed page (used directly by tests and simple
/// consumers). Appends recovered actions to `store` and updates `stats`.
[[nodiscard]] Status IngestPage(const DumpPage& page, const EntityRegistry& registry,
                  RevisionStore* store, const IngestOptions& options,
                  IngestStats* stats);

}  // namespace wiclean

#endif  // WICLEAN_DUMP_INGEST_H_
