// Input generator of the end-to-end benchmark. Runs src/synth for one
// workload and seed, renders the dump, and prepares the snapshots, writing
// everything into one directory. The workload process reads only these
// files, so generation cost never lands in a measured region.
//
// Usage: wcbench_gen --workload pipeline|ingest|serve --seed N --out DIR
//                    [--scale full|smoke]

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "core/miner.h"
#include "core/window_search.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "inputs.h"
#include "log/action_log_writer.h"
#include "log/replay.h"
#include "serve/pattern_store.h"
#include "synth/dump_render.h"
#include "workload_sizes.h"

using namespace wiclean;
using namespace wcbench;

namespace {

/// Every workload draws from one synthesized world per size; the benchmark
/// seed varies the input through Relabel.
constexpr uint64_t kWorldSeed = 2021;

/// Render bounds covering every edit.
constexpr Timestamp kMinTime = 0;
constexpr Timestamp kMaxTime = 4 * kSecondsPerYear;

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "wcbench_gen: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

SynthOptions WorldOptions(const Sizes& sizes) {
  SynthOptions options;
  options.rng_seed = kWorldSeed;
  options.seed_entities = sizes.seeds_per_domain;
  options.years = 1;
  options.soccer = true;
  options.cinema = sizes.multi_domain;
  options.politics = sizes.multi_domain;
  options.software = sizes.multi_domain;
  return options;
}

/// Draws a different input from the same world for every benchmark seed:
/// entity ids are permuted (so pages, feed ties and every hash layout come
/// in another order) and every page title gets a seed-specific suffix.
/// Neither changes how much work mining, ingest or serving has to do, so
/// figures from different seeds measure the same workload; a new world per
/// seed would not (mining time differs by up to 2x between synthesized
/// worlds of one size). Times are left alone: the dump's baseline revisions
/// sit at a fixed time, so shifting the edits would move the window grid.
Result<SynthWorld> Relabel(SynthWorld base, uint64_t seed) {
  SynthWorld out;
  out.taxonomy = std::move(base.taxonomy);
  out.types = base.types;
  out.domains = base.domains;
  out.options = base.options;
  out.ground_truth.expert_patterns = base.ground_truth.expert_patterns;

  const size_t n = base.registry->size();
  std::vector<EntityId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<EntityId>(i);
  uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix64(&rng) % i]);
  }
  const std::string suffix = "_s" + std::to_string(seed);

  out.registry = std::make_unique<EntityRegistry>(out.taxonomy.get());
  std::vector<EntityId> new_id(n, kInvalidEntityId);
  for (EntityId old : order) {
    const Entity& e = base.registry->Get(old);
    WICLEAN_ASSIGN_OR_RETURN(new_id[old],
                             out.registry->Register(e.name + suffix, e.type));
  }
  std::vector<Action> actions;
  for (EntityId old : order) {
    for (const Action& a : base.store.LogOf(old)) {
      Action moved = a;
      moved.subject = new_id[a.subject];
      moved.object = new_id[a.object];
      actions.push_back(std::move(moved));
    }
  }
  out.store.AddBatch(std::move(actions));
  for (const Edge& e : base.initial_edges) {
    out.initial_edges.push_back({new_id[e.source], e.relation,
                                 new_id[e.target]});
  }
  return out;
}

Status WriteDumpFile(const SynthWorld& world, const std::string& dir) {
  std::ofstream out(JoinPath(dir, kDumpFile), std::ios::binary);
  WICLEAN_RETURN_IF_ERROR(WriteDump(world, kMinTime, kMaxTime, &out));
  out.flush();
  if (!out) return Status::Internal("cannot write dump");
  return Status::OK();
}

/// Renders the world's pages and ingests them into a finished WCAL — the
/// serve workload's stored corpus.
Status WriteActionLog(const SynthWorld& world, const std::string& dir) {
  WICLEAN_ASSIGN_OR_RETURN(std::vector<DumpPage> pages,
                           RenderDumpPages(world, kMinTime, kMaxTime));
  VectorPageSource source(std::move(pages));
  std::ofstream out(JoinPath(dir, kActionLogFile), std::ios::binary);
  ActionLogWriter writer(&out);
  WICLEAN_RETURN_IF_ERROR(writer.status());
  WICLEAN_RETURN_IF_ERROR(
      RunIngestPipeline(&source, *world.registry, &writer).status());
  WICLEAN_RETURN_IF_ERROR(writer.Finish());
  out.flush();
  if (!out) return Status::Internal("cannot write action log");
  return Status::OK();
}

/// Mines every domain's seed type (window search with relatives, as `wiclean
/// pack` runs it) and adds the §7 value-specific instantiations of each
/// discovered pattern, until the snapshot holds at least `min_patterns`.
Result<PatternSnapshot> MineServingSnapshot(const SynthWorld& world,
                                            const RevisionStore& store,
                                            const Sizes& sizes) {
  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id = "e2ebench:serve";
  snapshot.provenance.tool = "wcbench_gen";
  snapshot.provenance.frequency_threshold = kMiningThreshold;
  snapshot.provenance.max_abstraction_lift = 1;
  snapshot.provenance.max_pattern_actions = 6;
  snapshot.provenance.mine_relative = true;

  WindowSearchOptions options;
  options.initial_threshold = kMiningThreshold;
  options.miner.max_abstraction_lift = 1;
  options.miner.max_pattern_actions = 6;
  options.mine_relative = true;

  Timestamp begin = 0;
  Timestamp end = 0;
  if (!store.TimeSpan(&begin, &end)) {
    return Status::FailedPrecondition("corpus holds no link edits");
  }
  begin = (begin / kSecondsPerDay) * kSecondsPerDay;
  end = (end / kSecondsPerDay + 1) * kSecondsPerDay;

  std::vector<std::pair<TypeId, DiscoveredPattern>> discovered;
  for (const DomainSpec& domain : world.domains) {
    // Cinema's seed type is not mined: on mixed-domain corpora its window
    // search runs for minutes on some worlds, which would make generation
    // time unbounded. Its entities and edits still reach the feed.
    if (domain.seed_type == world.types.film_actor) continue;
    WindowSearch search(world.registry.get(), &store, options);
    WICLEAN_ASSIGN_OR_RETURN(WindowSearchResult result,
                             search.Run(domain.seed_type, begin, end));
    for (DiscoveredPattern& dp : result.patterns) {
      snapshot.patterns.push_back({dp.mined.pattern, dp.mined.window,
                                   dp.mined.frequency, dp.mined.support,
                                   dp.threshold});
      for (const RelativePattern& rel : dp.relatives) {
        const double frequency = rel.relative_frequency * dp.mined.frequency;
        snapshot.patterns.push_back(
            {rel.pattern, dp.mined.window, frequency, 0, dp.threshold});
      }
      discovered.emplace_back(domain.seed_type, std::move(dp));
    }
  }

  // Value-specific instantiations, one MineWindow per discovered pattern's
  // (window, threshold), most frequent first, until the target is reached.
  for (const auto& [seed_type, dp] : discovered) {
    if (snapshot.patterns.size() >= sizes.min_patterns) break;
    MinerOptions miner_options = options.miner;
    miner_options.frequency_threshold = dp.threshold;
    PatternMiner miner(world.registry.get(), &store, miner_options);
    WICLEAN_ASSIGN_OR_RETURN(MineWindowResult mined,
                             miner.MineWindow(seed_type, dp.mined.window));
    Result<std::vector<PatternMiner::ValueSpecificPattern>> specific =
        miner.MineValueSpecific(*mined.context, seed_type, dp.mined,
                                kValueShare);
    // A pattern localized to a tightened window need not be frequent when
    // that window is mined on its own; it then has no instantiations.
    if (!specific.ok()) continue;
    for (const PatternMiner::ValueSpecificPattern& vs : *specific) {
      snapshot.patterns.push_back({vs.pattern, dp.mined.window, vs.frequency,
                                   vs.support, dp.threshold});
    }
  }
  return snapshot;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::string scale = "full";
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--scale") {
      scale = value;
    } else {
      std::fprintf(stderr, "wcbench_gen: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Result<Sizes> sizes_or = SizesFor(workload, scale);
  if (!sizes_or.ok() || out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: wcbench_gen --workload pipeline|ingest|serve --seed N "
                 "--out DIR [--scale full|smoke]\n");
    return 2;
  }
  const Sizes sizes = *sizes_or;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return Fail("mkdir " + out_dir, Status::Internal(ec.message()));

  Timer timer;
  Result<SynthWorld> base = Synthesize(WorldOptions(sizes));
  if (!base.ok()) return Fail("synthesize", base.status());
  Result<SynthWorld> world_or = Relabel(std::move(base).value(), seed);
  if (!world_or.ok()) return Fail("relabel", world_or.status());
  const SynthWorld world = std::move(world_or).value();

  std::vector<std::pair<std::string, std::string>> meta = {
      {"workload", workload},
      {"seed", std::to_string(seed)},
      {"scale", scale},
      {"seeds_per_domain", std::to_string(sizes.seeds_per_domain)},
      {"domains", std::to_string(world.domains.size())},
      {"entities", std::to_string(world.registry->size())},
      {"actions", std::to_string(world.store.num_actions())},
  };

  Status status = WriteAlignmentDir(world, out_dir);
  if (!status.ok()) return Fail("alignment", status);

  if (workload == "pipeline") {
    std::vector<ExpertPattern> soccer;
    for (const ExpertPattern& e : world.ground_truth.expert_patterns) {
      if (e.domain == "soccer") soccer.push_back(e);
    }
    status = WriteExperts(soccer, *world.taxonomy, out_dir);
    if (!status.ok()) return Fail("experts", status);
    meta.emplace_back("experts", std::to_string(soccer.size()));
  }
  if (workload == "pipeline" || workload == "ingest") {
    status = WriteDumpFile(world, out_dir);
    if (!status.ok()) return Fail("dump", status);
    meta.emplace_back("xml_bytes",
                      std::to_string(FileBytes(JoinPath(out_dir, kDumpFile))));
  }
  if (workload == "serve") {
    status = WriteActionLog(world, out_dir);
    if (!status.ok()) return Fail("action log", status);
    RevisionStore store;
    Result<IngestStats> replayed =
        ReplayActionLogFile(JoinPath(out_dir, kActionLogFile), &store);
    if (!replayed.ok()) return Fail("replay", replayed.status());
    Result<PatternSnapshot> a = MineServingSnapshot(world, store, sizes);
    if (!a.ok()) return Fail("mine", a.status());
    // Snapshot B is a genuinely different pattern set (every other pattern
    // of A), so a session pinned to the wrong epoch cannot verify.
    PatternSnapshot b;
    b.provenance = a->provenance;
    b.provenance.corpus_id += ":even-subset";
    for (size_t i = 0; i < a->patterns.size(); i += 2) {
      b.patterns.push_back(a->patterns[i]);
    }
    status = SaveSnapshotFile(*a, *world.taxonomy,
                              JoinPath(out_dir, kSnapshotAFile));
    if (status.ok()) {
      status = SaveSnapshotFile(b, *world.taxonomy,
                                JoinPath(out_dir, kSnapshotBFile));
    }
    if (!status.ok()) return Fail("snapshot", status);
    meta.emplace_back("patterns_a", std::to_string(a->patterns.size()));
    meta.emplace_back("patterns_b", std::to_string(b.patterns.size()));
  }
  meta.emplace_back("generate_s", std::to_string(timer.ElapsedSeconds()));
  status = WriteMeta(meta, out_dir);
  if (!status.ok()) return Fail("meta", status);
  std::ofstream(JoinPath(out_dir, kDoneFile)) << "ok\n";
  std::printf("generated %s seed %llu in %.2fs\n", workload.c_str(),
              static_cast<unsigned long long>(seed), timer.ElapsedSeconds());
  return 0;
}
