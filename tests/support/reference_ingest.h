#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_INGEST_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_INGEST_H_

#include <cstdint>

#include "common/result.h"
#include "dump/action_sink.h"
#include "dump/dump.h"
#include "dump/ingest.h"
#include "graph/entity_registry.h"
#include "wikitext/infobox.h"

namespace wiclean {

/// The original string-building infobox parser: ParsePage's grammar, errors
/// and limits, walking the text byte by byte and trimming with std::isspace.
/// The differential oracle for the parse kernel (wikitext_test) and the
/// building block of ReferenceParsePageActions.
[[nodiscard]] Result<ParsedPage> ReferenceParsePage(const std::string& wikitext,
                                                    const ParseLimits& limits);

/// The original per-page parse/diff stage, preserved verbatim as the
/// differential oracle for the single-parse ParsePageActions: every
/// revision is diffed against the previous good revision's *text* by
/// parsing both again (a string-building infobox parser and two
/// std::set<InfoboxLink>), and the previous text is copied forward. Same
/// contract as ParsePageActions: same actions, counters, skip decisions,
/// error statuses and quarantine records.
///
/// Test-only oracles (not part of the library): linked by ingest_diff_test
/// and wikitext_test.
[[nodiscard]] Result<PageActions> ReferenceParsePageActions(
    const DumpPage& page, uint64_t sequence, const EntityRegistry& registry,
    const IngestOptions& options);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_INGEST_H_
