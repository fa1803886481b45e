#include "log/replay.h"

#include <atomic>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace wiclean {
namespace {

/// True when block `meta` survives the selective-ingestion filter.
bool Selected(const BlockMeta& meta, const ReplayOptions& options) {
  if (!options.selective) return true;
  return meta.max_subject >= options.min_subject &&
         meta.min_subject <= options.max_subject;
}

/// Builds the skip batch for a block that failed CRC or decode under a skip
/// policy. The batch travels the same ordered merge as real ones, so skip
/// counters and quarantine records land in block order at any thread count.
PageActions MakeBlockSkip(const ActionLogReader& reader, size_t block,
                          const Status& error, bool quarantining) {
  PageActions batch;
  batch.sequence = block;
  batch.skipped = true;
  batch.skipped_by_reason[static_cast<size_t>(
      SkipReason::kBlockCorruption)] = 1;
  if (quarantining) {
    QuarantineRecord record;
    record.reason = SkipReason::kBlockCorruption;
    record.sequence = block;
    record.detail = std::string(error.message());
    Result<std::string_view> raw = reader.BlockRawBytes(block);
    if (raw.ok()) {
      std::string_view bytes = raw.value();
      if (bytes.size() > kMaxQuarantineRawBytes) {
        bytes = bytes.substr(0, kMaxQuarantineRawBytes);
        record.raw_truncated = true;
      }
      record.raw.assign(bytes.data(), bytes.size());
    }
    batch.quarantine.push_back(std::move(record));
  }
  return batch;
}

/// Folds one merged batch into the replay counters (the replay analogue of
/// pipeline.cc's AccumulateStats).
void AccumulateReplayStats(const PageActions& batch, IngestStats* stats) {
  stats->quarantined += batch.quarantine.size();
  for (size_t i = 0; i < kNumSkipReasons; ++i) {
    stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
  }
  if (batch.skipped) {
    ++stats->log_blocks_skipped;
    return;
  }
  ++stats->log_blocks;
  stats->actions += batch.actions.size();
}

/// Decodes block `block` into a batch. A failed decode under a degraded
/// policy becomes the block's skip batch; under kStrict it is returned.
Status DecodeBatch(const ActionLogReader& reader, size_t block,
                   const ReplayOptions& options, PageActions* batch) {
  batch->sequence = block;
  batch->known_page = true;
  Status decoded = reader.DecodeBlock(block, &batch->actions);
  if (decoded.ok() || options.on_error == ErrorPolicy::kStrict) {
    return decoded;
  }
  *batch = MakeBlockSkip(reader, block, decoded,
                         options.on_error == ErrorPolicy::kQuarantine);
  return Status::OK();
}

/// Folds one batch into `stats`, writes its quarantine records and appends
/// it to the sink: the in-order merge step of both replays.
Status MergeBatch(PageActions batch, ActionSink* sink,
                  const ReplayOptions& options, IngestStats* stats) {
  AccumulateReplayStats(batch, stats);
  for (const QuarantineRecord& record : batch.quarantine) {
    // Losing the quarantine channel is fatal.
    WICLEAN_RETURN_IF_ERROR(options.quarantine->Write(record));
  }
  if (batch.skipped) return Status::OK();
  return sink->Append(std::move(batch));
}

Result<IngestStats> ReplaySequential(const ActionLogReader& reader,
                                     ActionSink* sink,
                                     const ReplayOptions& options,
                                     const std::vector<size_t>& selected) {
  IngestStats stats;
  for (size_t block : selected) {
    Timer read_timer;
    PageActions batch;
    Status decoded = DecodeBatch(reader, block, options, &batch);
    stats.log_read_seconds += read_timer.ElapsedSeconds();
    if (!decoded.ok()) return decoded;

    Timer replay_timer;
    Status merged = MergeBatch(std::move(batch), sink, options, &stats);
    stats.log_replay_seconds += replay_timer.ElapsedSeconds();
    if (!merged.ok()) return merged;
  }
  return stats;
}

/// One selected block as a worker hands it over: its batch, or its
/// strict-policy decode error.
struct DecodedBlock {
  bool landed = false;
  Status status;
  PageActions batch;
};

/// What a parallel replay's workers hand the calling thread, by position
/// in `selected`. Proven data-race-free by the -Werror=thread-safety build.
struct ReplayHandoff {
  Mutex mu;
  CondVar landed_cv;  // signalled when a position lands
  std::vector<DecodedBlock> blocks WC_GUARDED_BY(mu);
  std::atomic<int64_t> read_micros{0};
};

Result<IngestStats> ReplayParallel(const ActionLogReader& reader,
                                   ActionSink* sink,
                                   const ReplayOptions& options,
                                   const std::vector<size_t>& selected) {
  ReplayHandoff handoff;
  {
    MutexLock lock(&handoff.mu);
    handoff.blocks.resize(selected.size());
  }
  // Workers only decode: blocks are already materialized in the mapped
  // file, so they pull the next position from a counter. The calling thread
  // merges every batch in position order, identical to the sequential
  // replay's visit order, so the sink and the store it fills stay on one
  // thread: merging on whichever worker holds the lock moves the store
  // between cores, which cost more CPU than parallel decode saved
  // (EXPERIMENTS.md "WCAL replay at decode speed").
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(options.num_threads);
  for (size_t w = 0; w < options.num_threads; ++w) {
    pool.Submit([&] {
      for (;;) {
        if (failed.load(std::memory_order_acquire)) return;
        const size_t position = next.fetch_add(1, std::memory_order_relaxed);
        if (position >= selected.size()) return;
        Timer read_timer;
        PageActions batch;
        Status decoded =
            DecodeBatch(reader, selected[position], options, &batch);
        handoff.read_micros.fetch_add(
            static_cast<int64_t>(read_timer.ElapsedSeconds() * 1e6),
            std::memory_order_relaxed);
        // A failed decode stops workers claiming further positions; every
        // earlier one is already claimed, so the merge reaches this one and
        // reports it, as the sequential replay would.
        if (!decoded.ok()) failed.store(true, std::memory_order_release);
        MutexLock lock(&handoff.mu);
        handoff.blocks[position] = {true, std::move(decoded), std::move(batch)};
        handoff.landed_cv.NotifyOne();
      }
    });
  }

  IngestStats stats;
  Status status = Status::OK();
  for (size_t position = 0; position < selected.size() && status.ok();
       ++position) {
    DecodedBlock block;
    {
      MutexLock lock(&handoff.mu);
      while (!handoff.blocks[position].landed) {
        handoff.landed_cv.Wait(&handoff.mu);
      }
      block = std::move(handoff.blocks[position]);
    }
    status = std::move(block.status);
    if (!status.ok()) break;
    Timer replay_timer;
    status = MergeBatch(std::move(block.batch), sink, options, &stats);
    stats.log_replay_seconds += replay_timer.ElapsedSeconds();
  }
  failed.store(true, std::memory_order_release);
  pool.Wait();
  if (!status.ok()) return status;
  stats.log_read_seconds =
      static_cast<double>(handoff.read_micros.load()) / 1e6;
  return stats;
}

}  // namespace

Result<IngestStats> ReplayActionLog(const ActionLogReader& reader,
                                    ActionSink* sink,
                                    const ReplayOptions& options) {
  if (options.on_error == ErrorPolicy::kQuarantine &&
      options.quarantine == nullptr) {
    return Status::InvalidArgument(
        "ErrorPolicy::kQuarantine requires a QuarantineSink");
  }
  if (options.selective && options.min_subject > options.max_subject) {
    return Status::InvalidArgument(
        "selective replay: min_subject > max_subject");
  }
  std::vector<size_t> selected;
  selected.reserve(reader.num_blocks());
  for (size_t i = 0; i < reader.num_blocks(); ++i) {
    if (Selected(reader.block(i), options)) selected.push_back(i);
  }
  if (options.num_threads <= 1) {
    return ReplaySequential(reader, sink, options, selected);
  }
  return ReplayParallel(reader, sink, options, selected);
}

Result<IngestStats> ReplayActionLogFile(const std::string& path,
                                        RevisionStore* store,
                                        const ReplayOptions& options) {
  WICLEAN_ASSIGN_OR_RETURN(ActionLogReader reader,
                           ActionLogReader::OpenFile(path));
  RevisionStoreSink sink(store);
  return ReplayActionLog(reader, &sink, options);
}

}  // namespace wiclean
