#include "wikitext/infobox.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace wiclean {
namespace {

constexpr std::string_view kInfoboxOpen = "{{Infobox";

/// Extracts every [[Target]] / [[Target|display]] in `text`, appending
/// (relation, Target) views. Returns Corruption on an unterminated link.
Status ExtractLinks(std::string_view text, std::string_view relation,
                    std::vector<LinkView>* out) {
  size_t pos = 0;
  for (;;) {
    size_t open = text.find("[[", pos);
    if (open == std::string_view::npos) return Status::OK();
    size_t close = text.find("]]", open + 2);
    if (close == std::string_view::npos) {
      return Status::Corruption("unterminated wikilink in attribute '" +
                                std::string(relation) + "'");
    }
    std::string_view inner = text.substr(open + 2, close - open - 2);
    // [[Target|display]] -> Target
    size_t pipe = inner.find('|');
    if (pipe != std::string_view::npos) inner = inner.substr(0, pipe);
    inner = StripWhitespace(inner);
    if (!inner.empty()) out->push_back(LinkView{relation, inner});
    pos = close + 2;
  }
}

std::vector<InfoboxLink> ToInfoboxLinks(const std::vector<LinkView>& views) {
  std::vector<InfoboxLink> out;
  out.reserve(views.size());
  for (const LinkView& v : views) {
    out.push_back(
        InfoboxLink{std::string(v.relation), std::string(v.target_title)});
  }
  return out;
}

}  // namespace

std::string RenderPage(const std::string& title,
                       const std::string& infobox_class,
                       const std::vector<InfoboxLink>& links) {
  // Group links by relation, preserving first-appearance order of relations.
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  for (const InfoboxLink& link : links) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first == link.relation;
    });
    if (it == groups.end()) {
      groups.push_back({link.relation, {link.target_title}});
    } else {
      it->second.push_back(link.target_title);
    }
  }

  std::string out = "{{Infobox ";
  out += infobox_class;
  out += "\n";
  for (const auto& [relation, targets] : groups) {
    out += "| ";
    out += relation;
    out += " = ";
    for (size_t i = 0; i < targets.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[[";
      out += targets[i];
      out += "]]";
    }
    out += "\n";
  }
  out += "}}\n\n'''";
  out += title;
  out += "''' is an article in the synthetic encyclopedia.\n";
  return out;
}

Status ParseInfoboxLinks(std::string_view wikitext, const ParseLimits& limits,
                         std::vector<LinkView>* links,
                         std::string_view* infobox_class) {
  size_t open = wikitext.find(kInfoboxOpen);
  if (open == std::string_view::npos) return Status::OK();  // no infobox

  // Find the matching "}}" at template nesting depth 0. The generator never
  // nests templates, but a parser of real dumps must not be fooled by "{{"
  // inside attribute values. The walk jumps from brace to brace: it keeps
  // the next '{' and the next '}' at or after `pos` and searches again only
  // for the one it has passed, so each memchr resumes past the last hit for
  // its byte and the walk scans every byte once, whatever the input. A
  // brace is a pair only with an equal byte behind it, so the text's last
  // byte never starts one.
  const char* const text = wikitext.data();
  const size_t size = wikitext.size();
  auto next_of = [text, size](char brace, size_t from) -> size_t {
    const void* hit = std::memchr(text + from, brace, size - from);
    return hit == nullptr ? size : static_cast<const char*>(hit) - text;
  };
  size_t pos = open + kInfoboxOpen.size();
  size_t next_open = next_of('{', pos);
  size_t next_close = next_of('}', pos);
  int depth = 1;
  size_t body_end = std::string_view::npos;
  for (;;) {
    if (next_open < pos) next_open = next_of('{', pos);
    if (next_close < pos) next_close = next_of('}', pos);
    const size_t brace = std::min(next_open, next_close);
    if (brace + 1 >= size) break;  // no brace left that a byte follows
    if (text[brace + 1] != text[brace]) {
      pos = brace + 1;  // a lone brace
      continue;
    }
    pos = brace + 2;
    if (text[brace] == '{') {
      ++depth;
      if (limits.max_infobox_nesting_depth > 0 &&
          depth > limits.max_infobox_nesting_depth) {
        return Status::ResourceExhausted(
            "infobox template nesting exceeds depth limit " +
            std::to_string(limits.max_infobox_nesting_depth));
      }
    } else if (--depth == 0) {
      body_end = brace;
      break;
    }
  }
  if (body_end == std::string_view::npos) {
    return Status::Corruption("unterminated {{Infobox}} template");
  }

  const std::string_view body = wikitext.substr(
      open + kInfoboxOpen.size(), body_end - open - kInfoboxOpen.size());

  // First line (up to the first '|' or newline) is the infobox class.
  if (infobox_class != nullptr) {
    size_t header_end = body.find_first_of("|\n");
    if (header_end == std::string_view::npos) header_end = body.size();
    *infobox_class = StripWhitespace(body.substr(0, header_end));
  }

  // Attribute lines: "| attr = value".
  for (size_t line_start = 0; line_start <= body.size();) {
    size_t line_end = body.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = body.size();
    std::string_view line =
        StripWhitespace(body.substr(line_start, line_end - line_start));
    line_start = line_end + 1;
    if (line.empty() || line[0] != '|') continue;
    line.remove_prefix(1);
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;  // tolerated: bare parameter
    std::string_view attr = StripWhitespace(line.substr(0, eq));
    if (attr.empty()) continue;
    WICLEAN_RETURN_IF_ERROR(ExtractLinks(line.substr(eq + 1), attr, links));
  }
  return Status::OK();
}

void SortUniqueLinks(std::vector<LinkView>* links) {
  std::sort(links->begin(), links->end());
  links->erase(std::unique(links->begin(), links->end()), links->end());
}

void DiffLinkSets(const std::vector<LinkView>& before,
                  const std::vector<LinkView>& after,
                  std::vector<LinkView>* removed,
                  std::vector<LinkView>* added) {
  removed->clear();
  added->clear();
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() && a != after.end()) {
    const std::strong_ordering order = *b <=> *a;
    if (order < 0) {
      removed->push_back(*b++);
    } else if (order > 0) {
      added->push_back(*a++);
    } else {
      ++b;
      ++a;
    }
  }
  removed->insert(removed->end(), b, before.end());
  added->insert(added->end(), a, after.end());
}

Result<ParsedPage> ParsePage(const std::string& wikitext,
                             const ParseLimits& limits) {
  std::vector<LinkView> links;
  std::string_view infobox_class;
  WICLEAN_RETURN_IF_ERROR(
      ParseInfoboxLinks(wikitext, limits, &links, &infobox_class));
  ParsedPage page;
  page.infobox_class = std::string(infobox_class);
  page.links = ToInfoboxLinks(links);
  return page;
}

Result<LinkDelta> DiffRevisions(const std::string& before,
                                const std::string& after,
                                const ParseLimits& limits) {
  std::vector<LinkView> old_links;
  std::vector<LinkView> new_links;
  WICLEAN_RETURN_IF_ERROR(ParseInfoboxLinks(before, limits, &old_links));
  WICLEAN_RETURN_IF_ERROR(ParseInfoboxLinks(after, limits, &new_links));
  SortUniqueLinks(&old_links);
  SortUniqueLinks(&new_links);
  std::vector<LinkView> removed;
  std::vector<LinkView> added;
  DiffLinkSets(old_links, new_links, &removed, &added);
  LinkDelta delta;
  delta.removed = ToInfoboxLinks(removed);
  delta.added = ToInfoboxLinks(added);
  return delta;
}

}  // namespace wiclean
