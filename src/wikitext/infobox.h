#ifndef WICLEAN_WIKITEXT_INFOBOX_H_
#define WICLEAN_WIKITEXT_INFOBOX_H_

#include <compare>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

// Thread-safety: everything in this header is a pure function of its
// arguments — no global or function-local mutable state anywhere in the
// implementation. Every function may be called concurrently from any number
// of threads; the parallel ingestion pipeline (dump/pipeline.h) relies on
// this to diff pages across workers without locking.

namespace wiclean {

/// One interlink extracted from a page's structured section: the infobox
/// attribute name is the relation label, the link target is the object
/// article (§1: links "in the structured sections of Wikipedia (such as
/// infoboxes and tables)").
struct InfoboxLink {
  std::string relation;      // infobox attribute, e.g. "current_club"
  std::string target_title;  // linked article title, e.g. "Paris Saint-Germain"

  bool operator==(const InfoboxLink& other) const {
    return relation == other.relation && target_title == other.target_title;
  }
  bool operator<(const InfoboxLink& other) const {
    if (relation != other.relation) return relation < other.relation;
    return target_title < other.target_title;
  }
};

/// An InfoboxLink as views into the revision text it was parsed from: the
/// allocation-free form the ingest diff works on. Valid only while that text
/// is alive and unmodified. Ordered like InfoboxLink (relation, then target).
///
/// The one comparator of SortUniqueLinks and DiffLinkSets: every link of
/// one attribute line views the same relation bytes, so two views of the
/// same address and length skip the relation compare. Views of equal bytes
/// at different addresses still compare equal.
struct LinkView {
  std::string_view relation;
  std::string_view target_title;

  friend bool operator==(const LinkView& a, const LinkView& b) {
    return a.target_title == b.target_title &&
           (SameBytes(a.relation, b.relation) || a.relation == b.relation);
  }
  friend std::strong_ordering operator<=>(const LinkView& a,
                                          const LinkView& b) {
    if (!SameBytes(a.relation, b.relation)) {
      const int order = a.relation.compare(b.relation);
      if (order != 0) return order <=> 0;
    }
    return a.target_title.compare(b.target_title) <=> 0;
  }

 private:
  static bool SameBytes(std::string_view a, std::string_view b) {
    return a.data() == b.data() && a.size() == b.size();
  }
};

/// Parsed structured content of one page revision.
struct ParsedPage {
  std::string infobox_class;     // e.g. "soccer player"
  std::vector<InfoboxLink> links;  // in document order
};

/// Renders a page revision's wikitext: an {{Infobox <class>}} template whose
/// attributes carry [[wikilinks]], followed by a minimal prose stub. This is
/// the writer half used by the synthetic dump generator; RenderPage and
/// ParsePage round-trip.
///
/// Attributes with multiple links (e.g. a club's "squad") are rendered as a
/// comma-separated link list on one attribute line.
std::string RenderPage(const std::string& title,
                       const std::string& infobox_class,
                       const std::vector<InfoboxLink>& links);

/// Resource guards for the wikitext parser: bounds on adversarial or
/// degenerate markup, enforced as kResourceExhausted errors so oversized
/// input hits the ingestion error-policy machinery (dump/ingest.h) instead
/// of ballooning parse work. Zero means unlimited (the default — behavior
/// identical to the unguarded parser).
struct ParseLimits {
  int max_infobox_nesting_depth = 0;  // deepest {{...}} nesting tolerated
};

/// Parses the structured section of a page revision.
///
/// Recognized grammar (a practical subset of MediaWiki syntax):
///   {{Infobox <class>
///   | <attr> = ...[[Target]]... [[Target2|display text]] ...
///   | ...
///   }}
/// Text outside the infobox is ignored. Pages with no infobox parse to an
/// empty link set. Malformed markup — an unterminated "{{Infobox" block or an
/// unterminated "[[" link inside it — returns Corruption, mirroring the
/// realities of hand-parsing dump text. Template nesting deeper than
/// limits.max_infobox_nesting_depth (when set) returns ResourceExhausted.
[[nodiscard]] Result<ParsedPage> ParsePage(const std::string& wikitext,
                                           const ParseLimits& limits = {});

/// The parse kernel behind ParsePage and DiffRevisions, with ParsePage's
/// grammar, errors and limits: appends the infobox links of `wikitext` to
/// *links in document order, as views into `wikitext`, and points
/// *infobox_class (when non-null) at the infobox class. Allocates nothing
/// beyond *links' growth. On error *links may hold a partial parse.
[[nodiscard]] Status ParseInfoboxLinks(std::string_view wikitext,
                                       const ParseLimits& limits,
                                       std::vector<LinkView>* links,
                                       std::string_view* infobox_class =
                                           nullptr);

/// Sorts *links and drops duplicates: the set form DiffLinkSets consumes.
void SortUniqueLinks(std::vector<LinkView>* links);

/// Linear merge of two link sets made by SortUniqueLinks: *removed receives
/// the links only in `before`, *added those only in `after`, each sorted.
/// Both outputs are cleared first, so callers can reuse their buffers.
void DiffLinkSets(const std::vector<LinkView>& before,
                  const std::vector<LinkView>& after,
                  std::vector<LinkView>* removed,
                  std::vector<LinkView>* added);

/// Computes the link edits that turn revision `before` into revision `after`:
/// links present only in `after` are additions, links present only in
/// `before` are removals. Duplicate links within one revision are treated as
/// a set. Returned order: removals then additions, each sorted. A wrapper
/// over ParseInfoboxLinks + SortUniqueLinks + DiffLinkSets.
struct LinkDelta {
  std::vector<InfoboxLink> removed;
  std::vector<InfoboxLink> added;
};
[[nodiscard]] Result<LinkDelta> DiffRevisions(const std::string& before,
                                              const std::string& after,
                                              const ParseLimits& limits = {});

}  // namespace wiclean

#endif  // WICLEAN_WIKITEXT_INFOBOX_H_
