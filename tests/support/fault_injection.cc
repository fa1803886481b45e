#include "tests/support/fault_injection.h"

#include <algorithm>
#include <utility>

#include "dump/xml_util.h"

namespace wiclean {
namespace {

constexpr std::string_view kPageTok = "<page>";
constexpr std::string_view kTitleTok = "<title>";

/// A parseable infobox revision whose only link is the poison target: if a
/// supposedly-skipped revision gets processed anyway, this link turns into an
/// action and the differential harness sees the store diverge.
std::string PoisonText(const FaultMix& mix) {
  return "{{Infobox fault\n| knows = [[" + mix.poison_link_target + "]]\n}}\n";
}

/// Samples `count` distinct values from `candidates`, in deterministic
/// rng-driven order (partial Fisher-Yates). Returns fewer when candidates
/// run out.
std::vector<size_t> PickDistinct(FaultRng* rng, std::vector<size_t> candidates,
                                 size_t count) {
  std::vector<size_t> picked;
  while (picked.size() < count && !candidates.empty()) {
    size_t i = rng->Below(candidates.size());
    picked.push_back(candidates[i]);
    candidates[i] = candidates.back();
    candidates.pop_back();
  }
  return picked;
}

}  // namespace

FaultInjectingPageSource::FaultInjectingPageSource(std::vector<DumpPage> pages,
                                                   const FaultMix& mix)
    : pages_(std::move(pages)) {
  FaultRng rng(mix.rng_seed);

  int64_t next_fresh_id = 1;
  for (const DumpPage& page : pages_) {
    for (const DumpRevision& rev : page.revisions) {
      next_fresh_id = std::max(next_fresh_id, rev.revision_id + 1);
    }
  }

  // Picks a target page for one injected revision. Injected revisions are
  // appended after the page's real history, so earlier diffs are untouched;
  // `need_positive_ts` restricts to pages whose timeline can be rewound.
  auto pick_page = [&](bool need_positive_ts) -> DumpPage* {
    auto eligible = [&](const DumpPage& p) {
      return !p.revisions.empty() &&
             (!need_positive_ts || p.revisions.back().timestamp >= 1);
    };
    if (pages_.empty()) return nullptr;
    for (int attempt = 0; attempt < 16; ++attempt) {
      DumpPage& p = pages_[rng.Below(pages_.size())];
      if (eligible(p)) return &p;
    }
    for (DumpPage& p : pages_) {
      if (eligible(p)) return &p;
    }
    return nullptr;
  };

  auto inject = [&](SkipReason reason, bool need_positive_ts,
                    const std::string& text, const char* why) {
    DumpPage* p = pick_page(need_positive_ts);
    if (p == nullptr) return;  // nothing eligible; inject fewer faults
    const DumpRevision& last = p->revisions.back();
    DumpRevision bad;
    bad.revision_id = reason == SkipReason::kDuplicateRevision
                          ? p->revisions.front().revision_id
                          : next_fresh_id++;
    bad.timestamp = reason == SkipReason::kOutOfOrderRevision
                        ? last.timestamp - 1
                        : last.timestamp;
    bad.contributor = "fault-injector";
    bad.comment = why;
    bad.text = text;
    p->revisions.push_back(std::move(bad));
    ++summary_.injected_revisions;
    ++summary_.expected_skips[static_cast<size_t>(reason)];
  };

  for (size_t i = 0; i < mix.duplicate_revisions; ++i) {
    inject(SkipReason::kDuplicateRevision, false, PoisonText(mix),
           "injected: duplicate revision id");
  }
  for (size_t i = 0; i < mix.out_of_order_revisions; ++i) {
    inject(SkipReason::kOutOfOrderRevision, true, PoisonText(mix),
           "injected: timestamp rewind");
  }
  for (size_t i = 0; i < mix.oversized_revisions; ++i) {
    std::string text = PoisonText(mix);
    if (text.size() < mix.oversized_bytes) {
      text.append(mix.oversized_bytes - text.size(), 'x');
    }
    inject(SkipReason::kOversizedRevision, false, text,
           "injected: oversized revision");
  }
  for (size_t i = 0; i < mix.malformed_revisions; ++i) {
    // Unterminated {{Infobox — the parser reports Corruption.
    inject(SkipReason::kWikitextCorruption, false,
           "{{Infobox fault\n| knows = [[" + mix.poison_link_target + "]]\n",
           "injected: unterminated infobox");
  }
  for (size_t i = 0; i < mix.deep_nesting_revisions; ++i) {
    // Balanced but deep: parses fine without a depth limit (and would then
    // emit the poison link), trips kResourceExhausted with one.
    const int inner = std::max(1, mix.nesting_depth - 1);
    std::string nest;
    for (int d = 0; d < inner; ++d) nest += "{{x";
    for (int d = 0; d < inner; ++d) nest += "}}";
    inject(SkipReason::kNestingDepth, false,
           "{{Infobox fault\n| a = " + nest + "\n| knows = [[" +
               mix.poison_link_target + "]]\n}}\n",
           "injected: deep template nesting");
  }
}

Result<XmlFaultPlan> CorruptDumpXml(const std::string& clean_xml,
                                    const XmlFaultMix& mix) {
  XmlFaultPlan plan;
  FaultRng rng(mix.rng_seed);

  std::vector<size_t> page_starts;
  for (size_t pos = clean_xml.find(kPageTok); pos != std::string::npos;
       pos = clean_xml.find(kPageTok, pos + kPageTok.size())) {
    page_starts.push_back(pos);
  }
  if (page_starts.empty()) {
    return Status::InvalidArgument("dump has no <page> elements to corrupt");
  }
  const size_t num_pages = page_starts.size();

  auto title_of = [&](size_t page_idx) -> Result<std::string> {
    size_t open = clean_xml.find(kTitleTok, page_starts[page_idx]);
    if (open == std::string::npos) {
      return Status::InvalidArgument("page without <title> in clean dump");
    }
    size_t close = clean_xml.find("</title>", open);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated <title> in clean dump");
    }
    open += kTitleTok.size();
    return XmlUnescape(
        std::string_view(clean_xml).substr(open, close - open));
  };

  // Mangled pages: any page, except the last one when it is already claimed
  // by truncation (overlapping blast radii would merge two planned faults
  // into one observed region).
  std::vector<size_t> mangle_candidates;
  for (size_t i = 0; i < num_pages; ++i) {
    if (mix.truncate_tail && i == num_pages - 1) continue;
    mangle_candidates.push_back(i);
  }
  std::vector<size_t> mangled =
      PickDistinct(&rng, std::move(mangle_candidates), mix.mangled_pages);
  if (mangled.size() < mix.mangled_pages) {
    return Status::InvalidArgument("not enough pages to mangle " +
                                   std::to_string(mix.mangled_pages));
  }
  std::vector<bool> is_mangled(num_pages, false);
  for (size_t i : mangled) is_mangled[i] = true;

  // Garbage goes at a page's start boundary. A boundary right after a
  // mangled page is off-limits: that page's resync would scan through the
  // garbage too, merging two planned regions into one.
  std::vector<size_t> garbage_candidates;
  for (size_t i = 0; i < num_pages; ++i) {
    if (i > 0 && is_mangled[i - 1]) continue;
    garbage_candidates.push_back(i);
  }
  std::vector<size_t> garbaged =
      PickDistinct(&rng, std::move(garbage_candidates), mix.garbage_regions);
  if (garbaged.size() < mix.garbage_regions) {
    return Status::InvalidArgument("not enough page boundaries for " +
                                   std::to_string(mix.garbage_regions) +
                                   " garbage regions");
  }

  // Ground truth first, from the clean offsets.
  for (size_t i : mangled) {
    WICLEAN_ASSIGN_OR_RETURN(std::string title, title_of(i));
    plan.lost_titles.push_back(std::move(title));
  }
  if (mix.truncate_tail) {
    WICLEAN_ASSIGN_OR_RETURN(std::string title, title_of(num_pages - 1));
    plan.lost_titles.push_back(std::move(title));
    plan.expected_truncations = 1;
  }
  plan.expected_regions =
      garbaged.size() + mangled.size() + (mix.truncate_tail ? 1 : 0);

  // Apply edits back-to-front so clean offsets stay valid throughout.
  plan.xml = clean_xml;
  if (mix.truncate_tail) {
    const size_t last = page_starts.back();
    size_t page_close = clean_xml.find("</page>", last);
    if (page_close == std::string::npos) {
      return Status::InvalidArgument("unterminated last page in clean dump");
    }
    // Cut somewhere strictly inside the last page's body — mid-record, often
    // mid-tag — leaving "<page>" itself intact so exactly one page is lost.
    const size_t lo = last + kPageTok.size() + 1;
    if (page_close <= lo) {
      return Status::InvalidArgument("last page too small to truncate");
    }
    plan.xml.resize(lo + rng.Below(page_close - lo));
  }
  struct Edit {
    size_t pos;
    bool insert;  // false: in-place title mangle
  };
  std::vector<Edit> edits;
  for (size_t i : mangled) {
    size_t open = clean_xml.find(kTitleTok, page_starts[i]);
    edits.push_back({open, false});
  }
  for (size_t i : garbaged) edits.push_back({page_starts[i], true});
  std::sort(edits.begin(), edits.end(),
            [](const Edit& a, const Edit& b) { return a.pos > b.pos; });
  // Garbage alphabet deliberately has no '<': the blob can never spell the
  // "<page>" / "</mediawiki>" resync boundaries, so each blob is one region.
  constexpr std::string_view kGarbageAlphabet =
      "#@!$%^&*()-_=+~?0123456789abcdef>";
  for (const Edit& edit : edits) {
    if (edit.insert) {
      std::string blob;
      blob.reserve(mix.garbage_bytes);
      for (size_t b = 0; b < mix.garbage_bytes; ++b) {
        blob += kGarbageAlphabet[rng.Below(kGarbageAlphabet.size())];
      }
      plan.xml.insert(edit.pos, blob);
    } else {
      plan.xml.replace(edit.pos, kTitleTok.size(), "<tiXle>");
    }
  }
  return plan;
}

}  // namespace wiclean
