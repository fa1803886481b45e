#include "dump/pipeline.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace wiclean {
namespace {

/// Folds one merged batch into the run counters. Runs inside the ordered
/// merge, so counts are deterministic regardless of worker scheduling.
void AccumulateStats(const PageActions& batch, IngestStats* stats) {
  stats->quarantined += batch.quarantine.size();
  for (size_t i = 0; i < kNumSkipReasons; ++i) {
    stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
  }
  if (batch.skipped) {
    if (batch.region_skip) {
      ++stats->regions_skipped;
    } else {
      ++stats->pages_skipped;
    }
    return;
  }
  stats->revisions_skipped += batch.revisions_skipped;
  if (!batch.known_page) {
    ++stats->unknown_pages;
    return;
  }
  ++stats->pages;
  stats->revisions += batch.revisions;
  stats->actions += batch.actions.size();
  stats->unresolved_links += batch.unresolved_links;
}

/// The merge stage for one page, run strictly in sequence order: folds its
/// counters into *stats, writes its quarantine records and hands a surviving
/// page to the sink. Skip batches never reach the sink.
Status MergePage(PageActions&& batch, const IngestOptions& options,
                 ActionSink* sink, IngestStats* stats) {
  AccumulateStats(batch, stats);
  for (const QuarantineRecord& record : batch.quarantine) {
    // Losing the quarantine channel is fatal.
    WICLEAN_RETURN_IF_ERROR(options.quarantine->Write(record));
  }
  if (batch.skipped) return Status::OK();
  return sink->Append(std::move(batch));
}

/// Builds the skip batch for a raw input region the reader resynced past.
/// Region skips consume a sequence number like any page, so the ordered
/// merge sees them at the position where the damage sat in the dump.
PageActions MakeRegionSkip(uint64_t sequence, const Status& error,
                           ResyncInfo&& region, bool quarantining) {
  PageActions batch;
  batch.sequence = sequence;
  batch.skipped = true;
  batch.region_skip = true;
  const SkipReason reason = error.code() == StatusCode::kDataLoss
                                ? SkipReason::kTruncation
                                : SkipReason::kXmlCorruption;
  batch.skipped_by_reason[static_cast<size_t>(reason)] = 1;
  if (quarantining) {
    QuarantineRecord record;
    record.reason = reason;
    record.sequence = sequence;
    record.detail = std::string(error.message()) + " (skipped " +
                    std::to_string(region.skipped_bytes) +
                    " bytes at offset " +
                    std::to_string(region.byte_offset) + ")";
    record.raw = std::move(region.raw);
    record.raw_truncated = region.raw_truncated;
    batch.quarantine.push_back(std::move(record));
  }
  return batch;
}

/// Reader-side error handling under a skip policy: asks the source to resync
/// past the damage. Returns the skip batch to merge; sets *at_end when the
/// damage ran to end of input; or an error when the source cannot recover
/// (Unimplemented keeps the original fail-fast status).
Result<PageActions> RecoverRegion(PageSource* source, const Status& error,
                                  uint64_t sequence, bool quarantining,
                                  bool* at_end) {
  ResyncInfo region;
  Result<bool> recovered = source->Recover(&region);
  if (!recovered.ok()) {
    if (recovered.status().code() == StatusCode::kUnimplemented) return error;
    return recovered.status();
  }
  *at_end = !recovered.value();
  return MakeRegionSkip(sequence, error, std::move(region), quarantining);
}

/// num_threads <= 1: all three stages inline on the calling thread. This is
/// the exact historical IngestDump loop, kept separate so the default path
/// spawns no threads and pays no queue or ordering overhead.
Result<IngestStats> RunSequential(PageSource* source,
                                  const EntityRegistry& registry,
                                  ActionSink* sink,
                                  const IngestOptions& options) {
  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  IngestStats stats;
  uint64_t sequence = 0;
  DumpPage page;
  bool at_end = false;
  while (!at_end) {
    Timer read_timer;
    Result<bool> more = source->Next(&page);
    stats.read_seconds += read_timer.ElapsedSeconds();

    PageActions batch;
    if (!more.ok()) {
      if (!degraded) return more.status();
      Timer resync_timer;
      Result<PageActions> skip = RecoverRegion(source, more.status(),
                                               sequence, quarantining,
                                               &at_end);
      stats.read_seconds += resync_timer.ElapsedSeconds();
      if (!skip.ok()) return skip.status();
      ++sequence;
      batch = std::move(skip).value();
    } else if (!*more) {
      break;
    } else {
      Timer parse_timer;
      Result<PageActions> parsed =
          ParsePageActions(page, sequence++, registry, options);
      stats.parse_seconds += parse_timer.ElapsedSeconds();
      if (!parsed.ok()) return parsed.status();
      batch = std::move(parsed).value();
    }

    Timer merge_timer;
    Status status = MergePage(std::move(batch), options, sink, &stats);
    stats.merge_seconds += merge_timer.ElapsedSeconds();
    if (!status.ok()) return status;
  }
  return stats;
}

/// One (sequence, page) unit of work. Reader-side region skips travel
/// through the same queue as pre-resolved batches (`resolved` set), so they
/// hold their sequence slot in the merge without the workers parsing
/// anything.
struct WorkItem {
  uint64_t sequence = 0;
  DumpPage page;
  bool resolved = false;
  PageActions batch;  // final batch when resolved; ignored otherwise
};

/// What the reader hands the workers per queue item: up to
/// kIngestHandoffPages consecutive items, so queue traffic and worker
/// wake-ups are paid per batch, not per page. A parsed batch comes back to
/// the reader as a spare, and the reader parses its next pages into the same
/// items, so page text is allocated and freed on the reader thread only.
using WorkBatch = std::vector<WorkItem>;

/// Shared state of one parallel run: the reorder buffer, the merged
/// counters, and the error of the lowest sequence slot. All of it is
/// WC_GUARDED_BY(mu) — the -Werror=thread-safety build proves every access
/// is locked. Merging into the sink happens under the lock, which
/// serializes Append calls and preserves exact source order (the sink sees
/// sequence 0, 1, 2, ... no matter which worker finished first). The reader
/// thread accumulates its own read_seconds locally and folds it in once at
/// the end, so the only cross-thread traffic is through mu (and the relaxed
/// parse counter).
/// Spent batches travel back through mu as well: a worker parks its parsed
/// batch in `spare` in the critical section that merges it, and the reader
/// takes one when it waits for room in the page budget.
struct MergeState {
  Mutex mu;
  // Signalled when pages merge or the run fails; the reader waits on it for
  // room in the page budget.
  CondVar merged;
  // Finished batches not yet mergeable, keyed by their first sequence.
  std::map<uint64_t, std::vector<PageActions>> pending WC_GUARDED_BY(mu);
  // Next sequence the sink expects; also the number of pages merged.
  uint64_t next_sequence WC_GUARDED_BY(mu) = 0;
  IngestStats stats WC_GUARDED_BY(mu);
  // The failure the sequential run would have met first: an error takes the
  // sequence slot of the page (or read) that failed, and a lower slot
  // replaces a higher one. kNoError while the run is clean.
  static constexpr uint64_t kNoError = UINT64_MAX;
  uint64_t error_sequence WC_GUARDED_BY(mu) = kNoError;
  Status error WC_GUARDED_BY(mu);
  // Parsed batches whose page storage the reader may refill.
  std::vector<WorkBatch> spare WC_GUARDED_BY(mu);
  std::atomic<int64_t> parse_micros{0};
  int64_t merge_micros WC_GUARDED_BY(mu) = 0;
};

Result<IngestStats> RunParallel(PageSource* source,
                                const EntityRegistry& registry,
                                ActionSink* sink,
                                const IngestOptions& options) {
  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  constexpr size_t kBatch = kIngestHandoffPages;
  // queue_capacity counts pages; the queue holds whole batches.
  BoundedQueue<WorkBatch> queue((options.queue_capacity + kBatch - 1) /
                                kBatch);
  // Pages read but not yet merged never exceed this: the queue's pages plus
  // one batch in each worker's hands. Finished batches parked behind a slow
  // one count too, so the reorder buffer cannot grow past it either. Spare
  // batches stay within it as well: the reader allocates a batch only when
  // no spare is left, that is when every other batch is queued or being
  // parsed and so holds pages the budget counts. (A resync that cuts a batch
  // short can leave more, smaller batches; each still holds at most kBatch.)
  const uint64_t page_budget =
      options.queue_capacity + options.num_threads * kBatch;
  MergeState state;

  // Errors are ordered like pages: each takes the sequence slot where it
  // struck, and the lowest slot wins, because that is the one the
  // sequential run stops at. Any error stops the reader (every page below a
  // worker's slot was already read). The pages below the lowest slot still
  // parse and merge; once they have, the error is final, and cancelling the
  // queue wakes a blocked reader and drains the workers.
  auto record_error = [&](uint64_t sequence, Status status) {
    {
      MutexLock lock(&state.mu);
      if (sequence < state.error_sequence) {
        state.error_sequence = sequence;
        state.error = std::move(status);
      }
      if (state.next_sequence == state.error_sequence) queue.Cancel();
    }
    state.merged.NotifyAll();
  };

  ThreadPool pool(options.num_threads);
  for (size_t w = 0; w < options.num_threads; ++w) {
    pool.Submit([&] {
      WorkBatch work;
      while (queue.Pop(&work)) {
        const uint64_t first_sequence = work.front().sequence;
        std::vector<PageActions> parsed;
        parsed.reserve(work.size());
        Timer parse_timer;
        Status failed = Status::OK();
        uint64_t failed_sequence = 0;
        for (WorkItem& item : work) {
          if (item.resolved) {
            parsed.push_back(std::move(item.batch));
            continue;
          }
          Result<PageActions> batch =
              ParsePageActions(item.page, item.sequence, registry, options);
          if (!batch.ok()) {
            failed = batch.status();
            failed_sequence = item.sequence;
            break;
          }
          parsed.push_back(std::move(batch).value());
        }
        state.parse_micros.fetch_add(
            static_cast<int64_t>(parse_timer.ElapsedSeconds() * 1e6),
            std::memory_order_relaxed);
        // The pages parsed before a failure still merge: they precede it.
        if (!failed.ok()) record_error(failed_sequence, std::move(failed));

        MutexLock lock(&state.mu);
        state.spare.push_back(std::move(work));  // its pages, for the reader
        if (!parsed.empty()) {
          state.pending.emplace(first_sequence, std::move(parsed));
        }
        // Flush the contiguous run now available, in sequence order, up to
        // the lowest error slot. Skip batches pass through the same merge
        // (so counters and quarantine records land in source order) but
        // never reach the sink.
        bool merged_any = false;
        while (!state.pending.empty() &&
               state.next_sequence < state.error_sequence) {
          auto front = state.pending.begin();
          if (front->first != state.next_sequence) break;
          Timer merge_timer;
          for (PageActions& batch : front->second) {
            if (state.next_sequence == state.error_sequence) break;
            Status status =
                MergePage(std::move(batch), options, sink, &state.stats);
            if (!status.ok()) {
              // Every lower slot has merged, so this error is final.
              state.error_sequence = state.next_sequence;
              state.error = std::move(status);
              break;
            }
            ++state.next_sequence;
          }
          state.merge_micros +=
              static_cast<int64_t>(merge_timer.ElapsedSeconds() * 1e6);
          state.pending.erase(front);
          merged_any = true;
        }
        if (state.next_sequence == state.error_sequence) queue.Cancel();
        if (merged_any) state.merged.NotifyAll();
      }
    });
  }

  // Stage 1, on the calling thread: pull pages and push them downstream in
  // batches. Two waits keep the reader bounded: Push blocks on a full queue,
  // and a new batch starts only when it fits in the page budget. Under a
  // skip policy a read error is downgraded to a pre-resolved region-skip
  // item so the stream continues.
  uint64_t sequence = 0;
  double read_seconds = 0.0;  // reader-local; folded into stats at the end
  WorkBatch open;      // a fresh or spare batch; items [0, filled) are read
  size_t filled = 0;
  // Hands the open batch to the workers; false once the run is cancelled.
  auto flush = [&] {
    if (filled == 0) return true;
    open.resize(filled);  // a short batch drops the spare items it did not use
    const bool pushed = queue.Push(std::move(open));
    open = WorkBatch();
    filled = 0;
    return pushed;
  };
  // Blocks until a full batch more fits in the page budget, then opens a
  // spare batch if a worker has handed one back; false once any error is
  // recorded.
  auto wait_for_budget = [&] {
    MutexLock lock(&state.mu);
    while (state.error_sequence == MergeState::kNoError &&
           sequence + kBatch - state.next_sequence > page_budget) {
      state.merged.Wait(&state.mu);
    }
    if (state.error_sequence != MergeState::kNoError) return false;
    if (open.empty() && !state.spare.empty()) {
      open = std::move(state.spare.back());
      state.spare.pop_back();
    }
    return true;
  };
  // The item to fill next: a spare one while the open batch has any left.
  // Reserving a full batch up front keeps items in place while it grows.
  auto next_item = [&]() -> WorkItem& {
    if (filled == open.size()) {
      open.reserve(kBatch);
      open.emplace_back();
    }
    return open[filled];
  };
  for (bool at_end = false; !at_end;) {
    if (filled == 0 && !wait_for_budget()) break;
    Timer read_timer;
    Result<bool> more = source->Next(&next_item().page);
    read_seconds += read_timer.ElapsedSeconds();
    if (more.ok() && !*more) break;
    if (!more.ok()) {
      if (!degraded) {
        record_error(sequence, more.status());
        break;
      }
      // Flush the pages read so far first: the workers start on them while
      // the source resyncs, and the region skip takes the next sequence slot
      // as the first item of a new batch.
      if (!flush() || !wait_for_budget()) break;
      Timer resync_timer;
      Result<PageActions> skip = RecoverRegion(source, more.status(),
                                               sequence, quarantining,
                                               &at_end);
      read_seconds += resync_timer.ElapsedSeconds();
      if (!skip.ok()) {
        record_error(sequence, skip.status());
        break;
      }
      next_item().batch = std::move(skip).value();
    }
    WorkItem& item = next_item();
    item.sequence = sequence++;
    item.resolved = !more.ok();
    if (++filled == kBatch && !flush()) break;
  }
  flush();  // the tail batch, pages below a read error included
  queue.Close();
  pool.Wait();

  // All workers have drained; take the lock once more to publish the result
  // (and keep the thread-safety analysis exact rather than suppressed).
  MutexLock lock(&state.mu);
  if (state.error_sequence != MergeState::kNoError) return state.error;
  state.stats.read_seconds = read_seconds;
  state.stats.parse_seconds =
      static_cast<double>(state.parse_micros.load()) / 1e6;
  state.stats.merge_seconds = static_cast<double>(state.merge_micros) / 1e6;
  return std::move(state.stats);
}

}  // namespace

Result<IngestStats> RunIngestPipeline(PageSource* source,
                                      const EntityRegistry& registry,
                                      ActionSink* sink,
                                      const IngestOptions& options) {
  if (options.on_error == ErrorPolicy::kQuarantine &&
      options.quarantine == nullptr) {
    return Status::InvalidArgument(
        "ErrorPolicy::kQuarantine requires a QuarantineSink");
  }
  if (options.num_threads <= 1) {
    return RunSequential(source, registry, sink, options);
  }
  return RunParallel(source, registry, sink, options);
}

}  // namespace wiclean
