// Fault-injection harness for degraded-mode ingestion
// (tests/support/fault_injection.h + IngestOptions::on_error).
// Self-verifying: exits non-zero unless every differential property holds,
// so it doubles as a CI gate.
//
// Properties asserted, at 1 and 4 worker threads:
//   1. kSkip over a clean dump == kStrict over the same dump, zero skips.
//   2. kSkip over a dump with injected bad *revisions* (duplicates, timestamp
//      rewinds, oversized, malformed, deep nesting) == the clean ingest, with
//      the per-reason skip counters matching exactly what was injected.
//   3. kSkip over byte-corrupted XML (garbage regions, mangled tags, a
//      truncated tail) == a clean ingest restricted to the surviving pages,
//      with region counters matching the fault plan.
//   4. kQuarantine matches kSkip's output and captures one record per skip.
//   5. kStrict over the corrupted dump fails (the historical contract).
//
// Every injected revision embeds a link to a *registered* entity, so a buggy
// policy that silently accepts bad input shows up as a store divergence, not
// just a counter mismatch.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "dump/quarantine.h"
#include "tests/support/fault_injection.h"

using namespace wiclean;
using namespace wiclean::bench;

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

/// Byte-exact serialization of a store's contents (same scheme as the
/// pipeline tests): equal fingerprints mean identical action logs.
std::string Fingerprint(const RevisionStore& store, size_t num_entities) {
  std::string out;
  for (size_t i = 0; i < num_entities; ++i) {
    const std::vector<Action>& log = store.LogOf(static_cast<EntityId>(i));
    if (log.empty()) continue;
    out += "e" + std::to_string(i) + ":";
    for (const Action& a : log) {
      out += (a.op == EditOp::kAdd ? "+" : "-");
      out += std::to_string(a.subject) + "," + a.relation.name() + "," +
             std::to_string(a.object) + "@" + std::to_string(a.time) + ";";
    }
    out += "\n";
  }
  return out;
}

IngestStats IngestPages(std::vector<DumpPage> pages,
                        const EntityRegistry& registry,
                        const IngestOptions& options, RevisionStore* store) {
  VectorPageSource source(std::move(pages));
  RevisionStoreSink sink(store);
  Result<IngestStats> stats =
      RunIngestPipeline(&source, registry, &sink, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "FAIL: ingest error: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  return *stats;
}

std::string SerializePages(const std::vector<DumpPage>& pages) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  for (const DumpPage& page : pages) writer.WritePage(page);
  Require(writer.End().ok(), "dump serialization");
  return out.str();
}

size_t TotalSkips(const IngestStats& stats) {
  size_t total = 0;
  for (size_t c : stats.skipped_by_reason) total += c;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t seeds = SizeArg(argc, argv, 120);
  const size_t thread_counts[] = {1, 4};

  SynthWorld world = MakeSoccerWorld(seeds, /*rng_seed=*/97);
  const size_t n = world.registry->size();
  Result<std::vector<DumpPage>> rendered =
      RenderDumpPages(world, 0, kSecondsPerYear);
  Require(rendered.ok(), "dump rendering");
  const std::vector<DumpPage> clean_pages = std::move(rendered).value();
  Require(!clean_pages.empty(), "non-empty corpus");
  const std::string clean_xml = SerializePages(clean_pages);

  size_t max_clean_rev = 0;
  for (const DumpPage& page : clean_pages) {
    for (const DumpRevision& rev : page.revisions) {
      max_clean_rev = std::max(max_clean_rev, rev.text.size());
    }
  }

  // Clean baseline (the historical strict path).
  RevisionStore clean_store;
  IngestStats clean_stats =
      IngestPages(clean_pages, *world.registry, IngestOptions{}, &clean_store);
  const std::string clean_fp = Fingerprint(clean_store, n);
  Require(clean_stats.actions > 0 && !clean_fp.empty(), "non-trivial corpus");
  std::printf("corpus: %zu pages, %zu revisions, %zu actions\n",
              clean_stats.pages, clean_stats.revisions, clean_stats.actions);

  IngestLimits limits;
  limits.max_revision_bytes = max_clean_rev;  // every clean revision passes
  limits.max_infobox_nesting_depth = 4;       // clean nesting is depth 1

  // Property 1: kSkip over clean input is a no-op policy change.
  for (size_t threads : thread_counts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kSkip;
    options.limits = limits;
    options.num_threads = threads;
    RevisionStore store;
    IngestStats stats =
        IngestPages(clean_pages, *world.registry, options, &store);
    Require(Fingerprint(store, n) == clean_fp, "kSkip == kStrict on clean");
    Require(TotalSkips(stats) == 0 && stats.pages_skipped == 0 &&
                stats.revisions_skipped == 0 && stats.regions_skipped == 0,
            "zero skips on clean input");
  }
  std::printf("clean-input no-op: OK\n");

  // Property 2: structured revision faults — every injected bad revision is
  // skipped, nothing else changes.
  FaultMix mix;
  mix.rng_seed = 1234;
  mix.duplicate_revisions = 3;
  mix.out_of_order_revisions = 3;
  mix.oversized_revisions = 3;
  mix.malformed_revisions = 3;
  mix.deep_nesting_revisions = 3;
  mix.oversized_bytes = max_clean_rev + 1024;
  mix.nesting_depth = 8;
  mix.poison_link_target = world.registry->Get(0).name;
  FaultInjectingPageSource faulted(clean_pages, mix);
  Require(faulted.summary().injected_revisions == 15, "all faults injected");

  for (size_t threads : thread_counts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kSkip;
    options.limits = limits;
    options.num_threads = threads;
    RevisionStore store;
    IngestStats stats =
        IngestPages(faulted.pages(), *world.registry, options, &store);
    Require(Fingerprint(store, n) == clean_fp,
            "kSkip over injected revisions == clean ingest");
    Require(stats.revisions_skipped == faulted.summary().injected_revisions,
            "revisions_skipped == injected count");
    Require(stats.skipped_by_reason == faulted.summary().expected_skips,
            "per-reason counters == injected mix");
    Require(stats.pages_skipped == 0 && stats.regions_skipped == 0,
            "revision faults drop no pages or regions");
  }
  std::printf("structured faults (%zu injected): OK [%s]\n",
              faulted.summary().injected_revisions,
              FormatSkipCounts(faulted.summary().expected_skips).c_str());

  // Property 3: byte-level XML corruption — survivors ingest exactly as a
  // clean dump of just those pages would.
  XmlFaultMix xml_mix;
  xml_mix.rng_seed = 99;
  xml_mix.garbage_regions = 2;
  xml_mix.mangled_pages = 2;
  xml_mix.truncate_tail = true;
  Result<XmlFaultPlan> corrupted = CorruptDumpXml(clean_xml, xml_mix);
  Require(corrupted.ok(), "xml corruption plan");
  CorruptedDumpStream stream(std::move(corrupted).value());

  std::set<std::string> lost(stream.plan().lost_titles.begin(),
                             stream.plan().lost_titles.end());
  Require(lost.size() == 3, "distinct lost pages");
  std::vector<DumpPage> survivors;
  for (const DumpPage& page : clean_pages) {
    if (lost.count(page.title) == 0) survivors.push_back(page);
  }
  RevisionStore survivor_store;
  IngestStats survivor_stats = IngestPages(survivors, *world.registry,
                                           IngestOptions{}, &survivor_store);
  const std::string survivor_fp = Fingerprint(survivor_store, n);
  Require(survivor_fp != clean_fp, "lost pages change the store");

  // 5: strict over corrupted bytes must fail fast.
  {
    RevisionStore store;
    Result<IngestStats> strict =
        IngestDump(stream.stream(), *world.registry, &store, IngestOptions{});
    Require(!strict.ok(), "kStrict fails on corrupted dump");
  }

  std::string skip_fp;
  for (size_t threads : thread_counts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kSkip;
    options.num_threads = threads;
    RevisionStore store;
    stream.Rewind();
    Result<IngestStats> stats =
        IngestDump(stream.stream(), *world.registry, &store, options);
    Require(stats.ok(), "kSkip ingests corrupted dump");
    skip_fp = Fingerprint(store, n);
    Require(skip_fp == survivor_fp,
            "kSkip over corrupted dump == clean ingest of survivors");
    Require(stats->regions_skipped == stream.plan().expected_regions,
            "regions_skipped == planned regions");
    Require(stats->skipped_by_reason[static_cast<size_t>(
                SkipReason::kTruncation)] == stream.plan().expected_truncations,
            "truncation counted as DataLoss region");
    Require(stats->pages == survivor_stats.pages, "surviving page count");
  }
  std::printf("xml corruption (%zu regions, %zu lost pages): OK\n",
              stream.plan().expected_regions, lost.size());

  // Property 4: kQuarantine == kSkip plus one record per skip.
  for (size_t threads : thread_counts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kQuarantine;
    options.num_threads = threads;
    MemoryQuarantineSink quarantine;
    options.quarantine = &quarantine;
    RevisionStore store;
    stream.Rewind();
    Result<IngestStats> stats =
        IngestDump(stream.stream(), *world.registry, &store, options);
    Require(stats.ok(), "kQuarantine ingests corrupted dump");
    Require(Fingerprint(store, n) == skip_fp, "kQuarantine output == kSkip");
    Require(stats->quarantined == stream.plan().expected_regions,
            "one quarantine record per region");
    Require(quarantine.records().size() == stats->quarantined,
            "sink saw every record");
    for (const QuarantineRecord& record : quarantine.records()) {
      Require(!record.raw.empty(), "quarantined raw bytes captured");
    }
  }
  std::printf("quarantine channel: OK\n");

  std::printf("\nall fault-injection properties hold at 1 and 4 threads\n");
  return 0;
}
