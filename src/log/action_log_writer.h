#ifndef WICLEAN_LOG_ACTION_LOG_WRITER_H_
#define WICLEAN_LOG_ACTION_LOG_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dump/action_sink.h"
#include "log/action_log_format.h"

namespace wiclean {

/// Options controlling block formation.
struct ActionLogWriterOptions {
  /// A block is closed once it holds at least this many actions. Page
  /// batches are never split across blocks — a block boundary always
  /// coincides with a page boundary, so replay sees whole pages and the
  /// per-block subject span stays a meaningful page-range key.
  size_t target_block_actions = 4096;
};

/// ActionSink that serializes the ingestion action stream to a WCAL file
/// (log/action_log_format.h). Drop it at the end of the pipeline (`wiclean
/// ingest`) and the expensive XML parse/diff output becomes a replayable
/// artifact.
///
/// Usage: construct over an open binary ostream, check status(), let the
/// pipeline drive Append, then call Finish() exactly once to emit the index
/// and trailer. A file without Finish() is truncated by construction and
/// every reader rejects it.
///
/// Thread-safety: none needed — the pipeline serializes Append calls in
/// sequence order (see ActionSink).
class ActionLogWriter : public ActionSink {
 public:
  /// The stream must be binary, positioned at 0, and outlive the writer.
  explicit ActionLogWriter(std::ostream* out,
                           ActionLogWriterOptions options = {});

  /// Header write outcome; Append/Finish fail fast when this is non-OK.
  [[nodiscard]] const Status& status() const { return status_; }

  /// Buffers the batch's actions, flushing a block when the target size is
  /// reached. Empty batches (skips, unknown pages) are accepted and add
  /// nothing: WCAL records actions, not page bookkeeping.
  [[nodiscard]] Status Append(PageActions&& batch) override;

  /// Flushes the tail block and writes the index section and trailer.
  /// The writer is unusable afterwards.
  [[nodiscard]] Status Finish();

  /// Wall time spent encoding and writing, for IngestStats::log_write_seconds.
  double write_seconds() const { return write_seconds_; }

  uint64_t blocks_written() const { return index_.blocks.size(); }
  uint64_t actions_written() const { return index_.total_actions; }

 private:
  [[nodiscard]] Status FlushBlock();

  std::ostream* out_;
  ActionLogWriterOptions options_;
  Status status_;
  bool finished_ = false;

  std::vector<Action> pending_;
  std::vector<Relation> dictionary_;
  std::unordered_map<Relation, uint32_t> dictionary_ids_;
  ActionLogIndex index_;
  uint64_t offset_ = 0;  // bytes written so far
  double write_seconds_ = 0.0;
};

}  // namespace wiclean

#endif  // WICLEAN_LOG_ACTION_LOG_WRITER_H_
