#include "synth/dump_render.h"

#include <algorithm>
#include <set>

#include "wikitext/infobox.h"

namespace wiclean {
namespace {

/// The baseline revision predates the timeline.
constexpr Timestamp kBaselineOffset = -kSecondsPerDay;

std::string PageText(const SynthWorld& world, EntityId entity,
                     const std::set<InfoboxLink>& links) {
  const Entity& e = world.registry->Get(entity);
  std::vector<InfoboxLink> ordered(links.begin(), links.end());
  return RenderPage(e.name, world.taxonomy->Name(e.type), ordered);
}

}  // namespace

namespace {

Result<DumpPage> RenderWithInitialLinks(const SynthWorld& world,
                                        EntityId entity,
                                        std::set<InfoboxLink> links,
                                        Timestamp time_begin,
                                        Timestamp time_end) {
  DumpPage page;
  page.title = world.registry->Get(entity).name;
  page.page_id = entity;

  int64_t next_rev_id = 1;
  DumpRevision baseline;
  baseline.revision_id = next_rev_id++;
  baseline.timestamp = time_begin + kBaselineOffset;
  baseline.contributor = "synth-baseline";
  baseline.comment = "initial article";
  baseline.text = PageText(world, entity, links);
  page.revisions.push_back(std::move(baseline));

  for (const Action& a :
       world.store.ActionsInWindow(entity, TimeWindow{time_begin, time_end})) {
    InfoboxLink link{a.relation.name(), world.registry->Get(a.object).name};
    bool changed = a.op == EditOp::kAdd ? links.insert(link).second
                                        : links.erase(link) > 0;
    if (!changed) continue;  // no-op edit: no revision to record
    DumpRevision rev;
    rev.revision_id = next_rev_id++;
    rev.timestamp = a.time;
    rev.contributor = "synth-editor";
    rev.comment =
        (a.op == EditOp::kAdd ? "add " : "remove ") + a.relation.name();
    rev.text = PageText(world, entity, links);
    page.revisions.push_back(std::move(rev));
  }
  return page;
}

/// initial outgoing links, grouped by source entity in one pass.
std::vector<std::set<InfoboxLink>> InitialLinksBySource(
    const SynthWorld& world) {
  std::vector<std::set<InfoboxLink>> by_source(world.registry->size());
  for (const Edge& e : world.initial_edges) {
    by_source[e.source].insert(
        InfoboxLink{e.relation, world.registry->Get(e.target).name});
  }
  return by_source;
}

}  // namespace

Result<DumpPage> RenderEntityPage(const SynthWorld& world, EntityId entity,
                                  Timestamp time_begin, Timestamp time_end) {
  if (!world.registry->Contains(entity)) {
    return Status::NotFound("unknown entity id " + std::to_string(entity));
  }
  std::set<InfoboxLink> links;
  for (const Edge& e : world.initial_edges) {
    if (e.source != entity) continue;
    links.insert(InfoboxLink{e.relation, world.registry->Get(e.target).name});
  }
  return RenderWithInitialLinks(world, entity, std::move(links), time_begin,
                                time_end);
}

Result<std::vector<DumpPage>> RenderDumpPages(const SynthWorld& world,
                                              Timestamp time_begin,
                                              Timestamp time_end) {
  std::vector<std::set<InfoboxLink>> initial = InitialLinksBySource(world);
  std::vector<DumpPage> pages;
  for (size_t i = 0; i < world.registry->size(); ++i) {
    EntityId id = static_cast<EntityId>(i);
    if (initial[i].empty() && world.store.LogOf(id).empty()) continue;
    WICLEAN_ASSIGN_OR_RETURN(
        DumpPage page,
        RenderWithInitialLinks(world, id, std::move(initial[i]), time_begin,
                               time_end));
    pages.push_back(std::move(page));
  }
  return pages;
}

Status WriteDump(const SynthWorld& world, Timestamp time_begin,
                 Timestamp time_end, std::ostream* out) {
  WICLEAN_ASSIGN_OR_RETURN(std::vector<DumpPage> pages,
                           RenderDumpPages(world, time_begin, time_end));
  DumpWriter writer(out);
  writer.Begin();
  for (const DumpPage& page : pages) writer.WritePage(page);
  return writer.End();
}

}  // namespace wiclean
