#ifndef WCBENCH_WORKLOADS_H_
#define WCBENCH_WORKLOADS_H_

// The three workloads. Each reads a generated input directory, measures for
// the given number of seconds, checks its outputs outside the timed regions,
// and fills a WorkloadResult.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "trace.h"

namespace wcbench {

struct WorkloadContext {
  std::string data_dir;
  std::string scratch_dir;  // per-run files the workload writes
  double seconds = 10;
  size_t nproc = 1;
  Tracer* tracer = nullptr;
  /// Workloads sample it between their measured units; main.cc reports the
  /// timing metrics at reference host speed from it.
  Calibrator* calibrator = nullptr;
};

struct WorkloadResult {
  /// Output checks; any entry in `errors` makes the run incorrect.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics, by BENCHMARK.json name (peak RSS and ok_frac are
  /// added by main.cc).
  std::map<std::string, double> e2e;
  /// Per-layer metrics by BENCHMARK.json name; layers a workload does not
  /// run stay 0.
  std::map<std::string, double> layer;
  /// The workload's own figures under the names of the README's metric map
  /// (pipeline_s, serve_accept_p99_us, ...), for the human-readable report.
  std::map<std::string, double> report;
  /// Setting and size facts recorded with the result (threads, counts).
  std::map<std::string, std::string> info;
};

WorkloadResult RunPipeline(const WorkloadContext& ctx);
WorkloadResult RunIngest(const WorkloadContext& ctx);
WorkloadResult RunServe(const WorkloadContext& ctx);

}  // namespace wcbench

#endif  // WCBENCH_WORKLOADS_H_
