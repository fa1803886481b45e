#include "tests/support/reference_ingest.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "wikitext/infobox.h"

namespace wiclean {
namespace {

// The old string-building infobox parser and set-based revision diff,
// byte-for-byte. Kept only as the differential-testing oracle; do not
// optimize it.

constexpr std::string_view kInfoboxOpen = "{{Infobox";

// The original whitespace strip, std::isspace byte by byte, so the oracle
// does not share the library's inline whitespace test.
std::string_view StripSpace(std::string_view text) {
  size_t b = 0;
  while (b < text.size() &&
         std::isspace(static_cast<unsigned char>(text[b]))) {
    ++b;
  }
  size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
    --e;
  }
  return text.substr(b, e - b);
}

Status ExtractLinks(std::string_view text, const std::string& relation,
                    std::vector<InfoboxLink>* out) {
  size_t pos = 0;
  for (;;) {
    size_t open = text.find("[[", pos);
    if (open == std::string_view::npos) return Status::OK();
    size_t close = text.find("]]", open + 2);
    if (close == std::string_view::npos) {
      return Status::Corruption("unterminated wikilink in attribute '" +
                                relation + "'");
    }
    std::string_view inner = text.substr(open + 2, close - open - 2);
    size_t pipe = inner.find('|');
    if (pipe != std::string_view::npos) inner = inner.substr(0, pipe);
    inner = StripSpace(inner);
    if (!inner.empty()) {
      out->push_back(InfoboxLink{relation, std::string(inner)});
    }
    pos = close + 2;
  }
}

}  // namespace

Result<ParsedPage> ReferenceParsePage(const std::string& wikitext,
                                      const ParseLimits& limits) {
  ParsedPage page;
  size_t open = wikitext.find(kInfoboxOpen);
  if (open == std::string::npos) return page;

  size_t pos = open + kInfoboxOpen.size();
  int depth = 1;
  size_t body_end = std::string::npos;
  while (pos + 1 < wikitext.size()) {
    if (wikitext[pos] == '{' && wikitext[pos + 1] == '{') {
      ++depth;
      if (limits.max_infobox_nesting_depth > 0 &&
          depth > limits.max_infobox_nesting_depth) {
        return Status::ResourceExhausted(
            "infobox template nesting exceeds depth limit " +
            std::to_string(limits.max_infobox_nesting_depth));
      }
      pos += 2;
    } else if (wikitext[pos] == '}' && wikitext[pos + 1] == '}') {
      --depth;
      if (depth == 0) {
        body_end = pos;
        break;
      }
      pos += 2;
    } else {
      ++pos;
    }
  }
  if (body_end == std::string::npos) {
    return Status::Corruption("unterminated {{Infobox}} template");
  }

  std::string_view body(wikitext.data() + open + kInfoboxOpen.size(),
                        body_end - open - kInfoboxOpen.size());
  size_t header_end = body.find_first_of("|\n");
  if (header_end == std::string_view::npos) header_end = body.size();
  page.infobox_class = std::string(StripSpace(body.substr(0, header_end)));

  for (const std::string& line_raw : SplitString(body, '\n')) {
    std::string_view line = StripSpace(line_raw);
    if (line.empty() || line[0] != '|') continue;
    line.remove_prefix(1);
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    std::string attr(StripSpace(line.substr(0, eq)));
    if (attr.empty()) continue;
    WICLEAN_RETURN_IF_ERROR(
        ExtractLinks(line.substr(eq + 1), attr, &page.links));
  }
  return page;
}

namespace {

Result<LinkDelta> ReferenceDiffRevisions(const std::string& before,
                                         const std::string& after,
                                         const ParseLimits& limits) {
  WICLEAN_ASSIGN_OR_RETURN(ParsedPage old_page,
                           ReferenceParsePage(before, limits));
  WICLEAN_ASSIGN_OR_RETURN(ParsedPage new_page,
                           ReferenceParsePage(after, limits));

  std::set<InfoboxLink> old_set(old_page.links.begin(), old_page.links.end());
  std::set<InfoboxLink> new_set(new_page.links.begin(), new_page.links.end());

  LinkDelta delta;
  std::set_difference(old_set.begin(), old_set.end(), new_set.begin(),
                      new_set.end(), std::back_inserter(delta.removed));
  std::set_difference(new_set.begin(), new_set.end(), old_set.begin(),
                      old_set.end(), std::back_inserter(delta.added));
  return delta;
}

void AttachRaw(std::string raw, QuarantineRecord* record) {
  if (raw.size() > kMaxQuarantineRawBytes) {
    raw.resize(kMaxQuarantineRawBytes);
    record->raw_truncated = true;
  }
  record->raw = std::move(raw);
}

SkipReason DiffSkipReason(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted
             ? SkipReason::kNestingDepth
             : SkipReason::kWikitextCorruption;
}

}  // namespace

Result<PageActions> ReferenceParsePageActions(const DumpPage& page,
                                              uint64_t sequence,
                                              const EntityRegistry& registry,
                                              const IngestOptions& options) {
  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  const IngestLimits& limits = options.limits;

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

  Result<EntityId> subject = registry.FindByName(page.title);
  if (!subject.ok() && options.strict_pages) {
    Status error = Status::NotFound("dump page '" + page.title +
                                    "' is not a registered entity");
    if (!degraded) return error;
    return skip_page(SkipReason::kUnknownPage, std::string(error.message()));
  }
  if (!subject.ok()) {
    return batch;
  }
  const EntityId subject_id = subject.value();
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
  std::unordered_set<int64_t> seen_revision_ids;
  Timestamp last_timestamp = 0;
  bool have_timestamp = false;

  std::string previous_text;
  for (const DumpRevision& rev : page.revisions) {
    if (degraded) {
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

    Result<LinkDelta> delta_result =
        ReferenceDiffRevisions(previous_text, rev.text, parse_limits);
    if (!delta_result.ok() && !degraded) return delta_result.status();
    if (!delta_result.ok()) {
      skip_revision(rev, DiffSkipReason(delta_result.status()),
                    std::string(delta_result.status().message()));
      continue;
    }
    const LinkDelta delta = std::move(delta_result).value();

    ++batch.revisions;
    if (degraded) {
      last_timestamp = rev.timestamp;
      have_timestamp = true;
    }
    auto emit = [&](EditOp op, const InfoboxLink& link) {
      Result<EntityId> object = registry.FindByName(link.target_title);
      if (!object.ok()) {
        ++batch.unresolved_links;
        return;
      }
      const EntityId object_id = object.value();
      Action action;
      action.op = op;
      action.subject = subject_id;
      action.relation = link.relation;
      action.object = object_id;
      action.time = rev.timestamp;
      batch.actions.push_back(std::move(action));
    };
    for (const InfoboxLink& link : delta.removed) emit(EditOp::kRemove, link);
    for (const InfoboxLink& link : delta.added) emit(EditOp::kAdd, link);
    previous_text = rev.text;
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

}  // namespace wiclean
