#ifndef WICLEAN_LOG_REPLAY_H_
#define WICLEAN_LOG_REPLAY_H_

#include <string>

#include "common/result.h"
#include "dump/action_sink.h"
#include "dump/ingest.h"
#include "log/action_log_reader.h"
#include "revision/revision_store.h"

namespace wiclean {

/// Options controlling a WCAL replay (the fast half of ingestion: no XML, no
/// wikitext, no diffing — just block decode + store append).
struct ReplayOptions {
  /// Block-decode workers. 1 (default) replays synchronously; with N > 1
  /// blocks decode in parallel and the calling thread merges them into the
  /// sink in block order, so the resulting store, and the error a strict
  /// replay returns, are identical at any thread count.
  size_t num_threads = 1;

  /// What a corrupt block does. kStrict (default) fails the replay on the
  /// first bad block; kSkip drops exactly that block (counted as
  /// SkipReason::kBlockCorruption) and keeps going; kQuarantine additionally
  /// writes the raw block bytes to `quarantine`. Container-frame damage
  /// (header, index, trailer) is always fatal — without a trusted index
  /// there is no block table to skip over.
  ErrorPolicy on_error = ErrorPolicy::kStrict;
  QuarantineSink* quarantine = nullptr;

  /// Selective ingestion: when set, only blocks whose subject span
  /// intersects [min_subject, max_subject] are decoded — the rest are
  /// skipped by their index entry without touching their payload bytes.
  /// Filtering is block-granular: a decoded block may carry some subjects
  /// outside the range; every action of a decoded block is replayed.
  bool selective = false;
  EntityId min_subject = 0;
  EntityId max_subject = 0;
};

/// Replays `reader`'s blocks into `sink` in block order. Returns stats with
/// actions/log_blocks/log_read_seconds/log_replay_seconds populated (page
/// and revision counters stay zero — WCAL records actions, not pages).
[[nodiscard]] Result<IngestStats> ReplayActionLog(const ActionLogReader& reader,
                                                  ActionSink* sink,
                                                  const ReplayOptions& options = {});

/// Convenience: opens `path` (mmap), replays into `store` via bulk
/// append (RevisionStore::AddBatch).
[[nodiscard]] Result<IngestStats> ReplayActionLogFile(
    const std::string& path, RevisionStore* store,
    const ReplayOptions& options = {});

}  // namespace wiclean

#endif  // WICLEAN_LOG_REPLAY_H_
