// Fig 4(d)-style harness for the *preprocessing* column: dump parse/diff
// time, sequential vs the staged parallel ingestion pipeline.
//
// The paper's dominant preprocessing cost is turning raw revision texts into
// the structured edit log (§6.1/§6.2 "crawl and parse"); this harness times
// exactly that step — PageSource -> parse/diff workers -> ordered ActionSink
// — at 1, 2, 4 and 8 workers, and prints where the time goes per stage
// (read / parse+diff / merge; parse is summed across workers).
//
// Each row reports wall time and the process's user CPU time for the
// ingest. On a host whose hardware threads are shared with other work, the
// wall speedup depends on how much of them a run actually gets; the user-CPU
// column shows what the extra workers cost regardless. Per-page parse/diff
// work is independent, so the decomposition scales with free cores.

#include <sys/resource.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_common.h"

using namespace wiclean;
using namespace wiclean::bench;

namespace {

/// User CPU seconds consumed by the whole process so far (all threads).
double UserCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = SizeArg(argc, argv, 800);
  const size_t seed_sizes[] = {scale / 4, scale / 2, scale};
  const size_t thread_counts[] = {1, 2, 4, 8};

  std::printf(
      "Preprocessing (dump parse/diff) time: staged pipeline, 1-8 workers\n"
      "one year of synthetic soccer history; times in seconds\n"
      "host hardware concurrency: %u\n\n",
      std::thread::hardware_concurrency());
  std::printf("%-16s %8s %10s %10s %10s %10s %10s %10s\n", "seeds(actions)",
              "threads", "wall", "user_cpu", "read", "parse*", "merge",
              "speedup");

  for (size_t seeds : seed_sizes) {
    SynthWorld world = MakeSoccerWorld(seeds);
    // Rendering is the generator's job, not the system's: done untimed.
    std::ostringstream dump;
    if (!WriteDump(world, 0, kSecondsPerYear, &dump).ok()) {
      std::fprintf(stderr, "dump rendering failed\n");
      return 1;
    }
    const std::string text = dump.str();
    double serial = 0.0;
    for (size_t threads : thread_counts) {
      IngestOptions options;
      options.num_threads = threads;
      RevisionStore store;
      std::istringstream in(text);
      const double cpu0 = UserCpuSeconds();
      Timer timer;
      Result<IngestStats> stats =
          IngestDump(&in, *world.registry, &store, options);
      const double wall = timer.ElapsedSeconds();
      const double cpu = UserCpuSeconds() - cpu0;
      if (!stats.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) serial = wall;
      char label[64];
      std::snprintf(label, sizeof(label), "%zu (%zu)", seeds, stats->actions);
      std::printf("%-16s %8zu %10.3f %10.3f %10.3f %10.3f %10.3f %9.2fx\n",
                  label, threads, wall, cpu, stats->read_seconds,
                  stats->parse_seconds, stats->merge_seconds,
                  wall > 0 ? serial / wall : 0.0);
    }
    std::printf("\n");
  }
  std::printf("* parse time is summed across workers; it can exceed wall.\n");
  return 0;
}
