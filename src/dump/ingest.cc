#include "dump/ingest.h"

#include <cstdio>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "wikitext/infobox.h"

namespace wiclean {
namespace {

// Moves `raw` into the record, enforcing the quarantine raw-byte cap.
void AttachRaw(std::string raw, QuarantineRecord* record) {
  if (raw.size() > kMaxQuarantineRawBytes) {
    raw.resize(kMaxQuarantineRawBytes);
    record->raw_truncated = true;
  }
  record->raw = std::move(raw);
}

// Maps a revision parse failure to its skip reason: only the nesting-depth
// guard surfaces as kResourceExhausted; everything else is corrupt wikitext.
SkipReason ParseSkipReason(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted
             ? SkipReason::kNestingDepth
             : SkipReason::kWikitextCorruption;
}

}  // namespace

std::string IngestStats::ToString() const {
  char timing[96];
  std::snprintf(timing, sizeof(timing),
                " read=%.3fs parse=%.3fs merge=%.3fs", read_seconds,
                parse_seconds, merge_seconds);
  std::string out = "pages=" + std::to_string(pages) +
                    " revisions=" + std::to_string(revisions) +
                    " actions=" + std::to_string(actions) +
                    " unknown_pages=" + std::to_string(unknown_pages) +
                    " unresolved_links=" + std::to_string(unresolved_links);
  // The skip section only appears when something was skipped, so clean-run
  // output is byte-identical to the pre-policy format.
  if (pages_skipped != 0 || revisions_skipped != 0 || regions_skipped != 0 ||
      quarantined != 0) {
    out += " pages_skipped=" + std::to_string(pages_skipped) +
           " revisions_skipped=" + std::to_string(revisions_skipped) +
           " regions_skipped=" + std::to_string(regions_skipped) +
           " quarantined=" + std::to_string(quarantined);
    const std::string reasons = FormatSkipCounts(skipped_by_reason);
    if (!reasons.empty()) out += " [" + reasons + "]";
  }
  out += timing;
  // Action-log sections: only present when a WCAL file was written or
  // replayed, so plain XML-ingest output stays byte-identical.
  if (log_write_seconds > 0.0) {
    char log_timing[64];
    std::snprintf(log_timing, sizeof(log_timing),
                  " log_blocks=%zu log_write=%.3fs", log_blocks,
                  log_write_seconds);
    out += log_timing;
  } else if (log_blocks != 0 || log_blocks_skipped != 0 ||
             log_read_seconds > 0.0 || log_replay_seconds > 0.0) {
    char log_timing[96];
    std::snprintf(log_timing, sizeof(log_timing),
                  " log_blocks=%zu log_blocks_skipped=%zu log_read=%.3fs"
                  " log_replay=%.3fs",
                  log_blocks, log_blocks_skipped, log_read_seconds,
                  log_replay_seconds);
    out += log_timing;
  }
  return out;
}

Result<PageActions> ParsePageActions(const DumpPage& page, uint64_t sequence,
                                     const EntityRegistry& registry,
                                     const IngestOptions& options) {
  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  const IngestLimits& limits = options.limits;

  // Replaces the batch wholesale: a page-level fault drops the page as a
  // unit, so any actions or revision-level accounting gathered so far is
  // discarded in favor of one skip record.
  auto skip_page = [&](SkipReason reason, std::string detail) {
    PageActions skip;
    skip.sequence = sequence;
    skip.skipped = true;
    skip.skipped_by_reason[static_cast<size_t>(reason)] = 1;
    if (quarantining) {
      QuarantineRecord record;
      record.reason = reason;
      record.sequence = sequence;
      record.title = page.title;
      record.detail = std::move(detail);
      AttachRaw(PageToXml(page), &record);
      skip.quarantine.push_back(std::move(record));
    }
    return skip;
  };

  PageActions batch;
  batch.sequence = sequence;

  auto skip_revision = [&](const DumpRevision& rev, SkipReason reason,
                           std::string detail) {
    ++batch.revisions_skipped;
    ++batch.skipped_by_reason[static_cast<size_t>(reason)];
    if (quarantining) {
      QuarantineRecord record;
      record.reason = reason;
      record.sequence = sequence;
      record.title = page.title;
      record.revision_id = rev.revision_id;
      record.detail = std::move(detail);
      AttachRaw(rev.text, &record);
      batch.quarantine.push_back(std::move(record));
    }
  };

  const EntityId subject_id = registry.IdOf(page.title);
  if (subject_id == kInvalidEntityId && options.strict_pages) {
    Status error = Status::NotFound("dump page '" + page.title +
                                    "' is not a registered entity");
    if (!degraded) return error;
    return skip_page(SkipReason::kUnknownPage, std::string(error.message()));
  }
  if (subject_id == kInvalidEntityId) {
    return batch;  // known_page stays false; the page is skipped
  }
  batch.known_page = true;

  if (limits.max_revisions_per_page > 0 &&
      page.revisions.size() > limits.max_revisions_per_page) {
    Status error = Status::ResourceExhausted(
        "page '" + page.title + "' has " +
        std::to_string(page.revisions.size()) +
        " revisions, above the limit of " +
        std::to_string(limits.max_revisions_per_page));
    if (!degraded) return error;
    return skip_page(SkipReason::kTooManyRevisions,
                     std::string(error.message()));
  }

  const ParseLimits parse_limits{limits.max_infobox_nesting_depth};
  // Integrity tracking for the degraded-only duplicate/out-of-order checks.
  std::unordered_set<int64_t> seen_revision_ids;
  Timestamp last_timestamp = 0;
  bool have_timestamp = false;

  // Each revision is parsed once. `previous` holds the last good revision's
  // links (sorted, de-duplicated views into its text, which outlives this
  // loop); the first revision diffs against the empty page. The buffers are
  // reused across revisions.
  std::vector<LinkView> previous;
  std::vector<LinkView> current;
  std::vector<LinkView> removed;
  std::vector<LinkView> added;
  for (const DumpRevision& rev : page.revisions) {
    if (degraded) {
      // Integrity checks the historical strict parser never ran; kStrict
      // keeps not running them so its accept set is exactly the old one.
      if (!seen_revision_ids.insert(rev.revision_id).second) {
        skip_revision(rev, SkipReason::kDuplicateRevision,
                      "revision id " + std::to_string(rev.revision_id) +
                          " repeats on page '" + page.title + "'");
        continue;
      }
      if (have_timestamp && rev.timestamp < last_timestamp) {
        skip_revision(rev, SkipReason::kOutOfOrderRevision,
                      "revision " + std::to_string(rev.revision_id) +
                          " rewinds the timeline of page '" + page.title +
                          "'");
        continue;
      }
    }
    if (limits.max_revision_bytes > 0 &&
        rev.text.size() > limits.max_revision_bytes) {
      Status error = Status::ResourceExhausted(
          "revision " + std::to_string(rev.revision_id) + " of page '" +
          page.title + "' is " + std::to_string(rev.text.size()) +
          " bytes, above the limit of " +
          std::to_string(limits.max_revision_bytes));
      if (!degraded) return error;
      skip_revision(rev, SkipReason::kOversizedRevision,
                    std::string(error.message()));
      continue;
    }

    // On a parse failure under a skip policy, `previous` is not advanced:
    // the next revision diffs against the last good links, as if the
    // skipped one never existed.
    current.clear();
    Status parsed = ParseInfoboxLinks(rev.text, parse_limits, &current);
    if (!parsed.ok()) {
      if (!degraded) return parsed;
      skip_revision(rev, ParseSkipReason(parsed),
                    std::string(parsed.message()));
      continue;
    }
    SortUniqueLinks(&current);
    DiffLinkSets(previous, current, &removed, &added);

    ++batch.revisions;
    if (degraded) {
      last_timestamp = rev.timestamp;
      have_timestamp = true;
    }
    auto emit = [&](EditOp op, const LinkView& link) {
      const EntityId object_id = registry.IdOf(link.target_title);
      if (object_id == kInvalidEntityId) {
        ++batch.unresolved_links;
        return;
      }
      Action action;
      action.op = op;
      action.subject = subject_id;
      action.relation = link.relation;
      action.object = object_id;
      action.time = rev.timestamp;
      batch.actions.push_back(std::move(action));
    };
    for (const LinkView& link : removed) emit(EditOp::kRemove, link);
    for (const LinkView& link : added) emit(EditOp::kAdd, link);
    previous.swap(current);
  }

  if (limits.max_actions_per_page > 0 &&
      batch.actions.size() > limits.max_actions_per_page) {
    Status error = Status::ResourceExhausted(
        "page '" + page.title + "' yields " +
        std::to_string(batch.actions.size()) +
        " actions, above the limit of " +
        std::to_string(limits.max_actions_per_page));
    if (!degraded) return error;
    return skip_page(SkipReason::kTooManyActions, std::string(error.message()));
  }
  return batch;
}

Status IngestPage(const DumpPage& page, const EntityRegistry& registry,
                  RevisionStore* store, const IngestOptions& options,
                  IngestStats* stats) {
  if (options.on_error == ErrorPolicy::kQuarantine &&
      options.quarantine == nullptr) {
    return Status::InvalidArgument(
        "ErrorPolicy::kQuarantine requires a QuarantineSink");
  }
  WICLEAN_ASSIGN_OR_RETURN(PageActions batch,
                           ParsePageActions(page, 0, registry, options));
  for (const QuarantineRecord& record : batch.quarantine) {
    WICLEAN_RETURN_IF_ERROR(options.quarantine->Write(record));
    ++stats->quarantined;
  }
  if (batch.skipped) {
    ++stats->pages_skipped;
    for (size_t i = 0; i < kNumSkipReasons; ++i) {
      stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
    }
    return Status::OK();
  }
  if (!batch.known_page) {
    ++stats->unknown_pages;
    return Status::OK();
  }
  ++stats->pages;
  stats->revisions += batch.revisions;
  stats->actions += batch.actions.size();
  stats->unresolved_links += batch.unresolved_links;
  stats->revisions_skipped += batch.revisions_skipped;
  for (size_t i = 0; i < kNumSkipReasons; ++i) {
    stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
  }
  for (Action& action : batch.actions) store->Add(std::move(action));
  return Status::OK();
}

Result<IngestStats> IngestDump(std::istream* in,
                               const EntityRegistry& registry,
                               RevisionStore* store,
                               const IngestOptions& options) {
  XmlPageSource source(in);
  RevisionStoreSink sink(store);
  return RunIngestPipeline(&source, registry, &sink, options);
}

}  // namespace wiclean
