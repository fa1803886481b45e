// Figure 4(d): WC execution time on 1 core vs 16 cores.
//
// Paper setup: the full window-and-pattern search over the year (all
// non-overlapping windows mined independently), seed sets of 500 / 1K / 2K /
// 3K entities, single-threaded vs 16 workers; the paper reports ~4x speedup
// on a 16-core server.
//
// The speedup is bounded by the host's hardware threads (printed in the
// header): with fewer than 16, the 16-thread column oversubscribes the cores
// and measures what that many hardware threads buy, not the paper's 16-core
// figure. The *decomposition* (window-parallel mining) is exactly the
// paper's.

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/window_search.h"

using namespace wiclean;
using namespace wiclean::bench;

namespace {

double RunSearch(const SynthWorld& world, size_t threads,
                 size_t* entities_processed) {
  WindowSearchOptions options;
  options.initial_threshold = 0.8;
  options.miner.max_abstraction_lift = 1;
  options.miner.max_pattern_actions = 6;
  options.mine_relative = false;
  options.num_threads = threads;
  WindowSearch search(world.registry.get(), &world.store, options);

  Timer timer;
  Result<WindowSearchResult> result =
      search.Run(world.types.soccer_player, 0, kSecondsPerYear);
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  *entities_processed = result->total_stats.entities_ingested;
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = SizeArg(argc, argv, 2000);
  const size_t seed_sizes[] = {scale / 4, scale / 2, (3 * scale) / 4, scale};

  std::printf(
      "Figure 4(d): WC pattern-mining time, 1 thread vs 16 threads\n"
      "full-year window search, soccer domain; times in seconds\n"
      "host hardware concurrency: %u (paper used 16 cores; ~4x speedup)\n\n",
      std::thread::hardware_concurrency());
  std::printf("%-18s %12s %12s %10s\n", "seeds(processed)", "1 thread",
              "16 threads", "speedup");

  for (size_t seeds : seed_sizes) {
    SynthWorld world = MakeSoccerWorld(seeds);
    size_t processed = 0;
    double serial = RunSearch(world, 1, &processed);
    double parallel = RunSearch(world, 16, &processed);
    char label[64];
    std::snprintf(label, sizeof(label), "%zu (%zu)", seeds, processed);
    std::printf("%-18s %12.3f %12.3f %9.2fx\n", label, serial, parallel,
                parallel > 0 ? serial / parallel : 0.0);
  }
  return 0;
}
