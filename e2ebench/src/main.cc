// Workload process of the end-to-end benchmark. Reads one generated input
// directory, runs one workload for a fixed time, checks its outputs, and
// prints one JSON object as its last stdout line.
//
// Usage: wcbench --workload pipeline|ingest|serve --data DIR --seconds S
//                --trace 0|1 [--scratch DIR] [--trace-out FILE]
//
// With --trace 1 the benchmark records spans around its calls into each
// layer, writes them as a Chrome trace_event file, and reports per-layer
// metrics instead of end-to-end ones.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "calibrate.h"
#include "inputs.h"
#include "trace.h"
#include "workloads.h"

using namespace wcbench;

namespace {

/// Units of the end-to-end metrics (untraced runs), by name.
const std::map<std::string, std::string>& EndToEndUnits() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "ratio"},
      {"result_cpu_ms", "ms"},
      {"actions_per_cpu_s", "1/s"},
      {"replay_mactions_per_cpu_s", "Mactions/s"},
  };
  return units;
}

/// Units of the per-layer metrics (traced runs), by name. Every traced run
/// reports all of them; a layer the workload does not run reads 0.
const std::map<std::string, std::string>& LayerUnits() {
  static const std::map<std::string, std::string> units = {
      // dump
      {"dump.ingest_s", "s"},
      {"dump.read_s", "s"},
      {"dump.parse_s", "s"},
      {"dump.merge_s", "s"},
      {"dump.pages", "count"},
      {"dump.revisions", "count"},
      {"dump.actions", "count"},
      {"dump.xml_bytes", "bytes"},
      // log
      {"log.write_s", "s"},
      {"log.bytes_per_action", "bytes"},
      {"log.blocks", "count"},
      {"log.open_s", "s"},
      {"log.replay_s", "s"},
      {"log.decode_block_us_p50", "us"},
      {"log.decode_block_us_p99", "us"},
      // core
      {"core.search_s", "s"},
      {"core.rounds", "count"},
      {"core.round_max_s", "s"},
      {"core.candidates_considered", "count"},
      {"core.frequent_patterns", "count"},
      {"core.frequent_per_candidate", "ratio"},
      {"core.actions_ingested", "count"},
      {"core.entities_ingested", "count"},
      {"core.pattern_precision", "ratio"},
      {"core.pattern_recall", "ratio"},
      // relational
      {"relational.join_bytes_touched", "bytes"},
      {"relational.dedup_bytes_touched", "bytes"},
      {"relational.tables_born", "count"},
      {"relational.peak_live_bytes", "bytes"},
      // serve
      {"serve.pack_s", "s"},
      {"serve.snapshot_load_s", "s"},
      {"serve.snapshot_bytes", "bytes"},
      {"serve.patterns", "count"},
      {"serve.publish_ms_p99", "ms"},
      {"serve.open_ms_p50", "ms"},
      {"serve.feed_busy_s", "s"},
      {"serve.generator_lag_ms_max", "ms"},
      {"serve.max_eps", "1/s"},
      {"serve.close_ms_p50", "ms"},
      {"serve.close_ms_p99", "ms"},
      {"serve.shard_busy_s", "s"},
      {"serve.finalize_s", "s"},
      {"serve.slot_hits", "count"},
      {"serve.matched_per_observed", "ratio"},
      {"serve.events_shed", "count"},
      {"serve.retries", "count"},
      {"serve.quarantined", "count"},
      {"serve.epochs_published", "count"},
      {"serve.epochs_retired", "count"},
      {"serve.epochs_freed", "count"},
      // Self time and share of every layer, from the spans.
      {"dump.self_s", "s"},
      {"dump.share", "ratio"},
      {"log.self_s", "s"},
      {"log.share", "ratio"},
      {"core.self_s", "s"},
      {"core.share", "ratio"},
      {"relational.self_s", "s"},
      {"relational.share", "ratio"},
      {"serve.self_s", "s"},
      {"serve.share", "ratio"},
      {"bench.self_s", "s"},
      {"bench.share", "ratio"},
      {"idle.self_s", "s"},
      {"trace.spans", "count"},
  };
  return units;
}

/// Layers whose self time is reported; "bench" is the benchmark's own
/// glue. Time the open-loop generator sleeps is reported as idle and left
/// out of every share.
constexpr const char* kLayers[] = {"dump", "log", "core", "relational",
                                   "serve", "bench"};

void PrintNumber(double v) {
  if (v != v) v = 0;  // NaN never reaches the JSON
  std::printf("%.9g", v);
}

void PrintString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\n' ? ' ' : c);
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: wcbench --workload pipeline|ingest|serve --data DIR "
               "--seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--data")) {
    return Usage();
  }
  const std::string workload = args["--workload"];
  const bool traced = args.count("--trace") && args["--trace"] == "1";

  WorkloadContext ctx;
  ctx.data_dir = args["--data"];
  ctx.scratch_dir = args.count("--scratch") ? args["--scratch"] : ctx.data_dir;
  ctx.seconds = args.count("--seconds") ? std::stod(args["--seconds"]) : 10;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.nproc = nproc > 0 ? static_cast<size_t>(nproc) : 1;
  Tracer tracer(traced);
  ctx.tracer = &tracer;
  Calibrator calibrator;
  ctx.calibrator = &calibrator;
  std::error_code ec;
  std::filesystem::create_directories(ctx.scratch_dir, ec);

  WorkloadResult r;
  if (workload == "pipeline") {
    r = RunPipeline(ctx);
  } else if (workload == "ingest") {
    r = RunIngest(ctx);
  } else if (workload == "serve") {
    r = RunServe(ctx);
  } else {
    return Usage();
  }
  // Timings at reference host speed (calibrate.h); the raw figures stay
  // in the record. setup_s stays raw: its cold, sub-millisecond to
  // millisecond work does not track the kernel, and scaling it only added
  // noise.
  const double factor = calibrator.TimeFactor();
  r.report["raw_result_cpu_ms"] = r.e2e["result_cpu_ms"];
  r.e2e["result_cpu_ms"] *= factor;
  for (const char* name : {"actions_per_cpu_s", "replay_mactions_per_cpu_s"}) {
    r.report[std::string("raw_") + name] = r.e2e[name];
    r.e2e[name] /= factor;
  }
  r.report["calibration_ms"] = 1e3 * calibrator.median_s();
  r.info["calibration_samples"] = std::to_string(calibrator.samples());
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["ok_frac"] = r.attempted > 0
                         ? 1.0 - static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                         : 0;

  const auto& units = traced ? LayerUnits() : EndToEndUnits();
  std::map<std::string, double> metrics = traced ? r.layer : r.e2e;
  if (traced) {
    for (const auto& [name, unit] : units) metrics.emplace(name, 0.0);
    const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
    double total = 0;
    for (const auto& [layer, seconds] : self) {
      if (layer != "idle") total += seconds;
    }
    metrics["idle.self_s"] = self.count("idle") ? self.at("idle") : 0;
    for (const char* layer : kLayers) {
      auto it = self.find(layer);
      const double seconds = it == self.end() ? 0 : it->second;
      metrics[std::string(layer) + ".self_s"] = seconds;
      metrics[std::string(layer) + ".share"] = total > 0 ? seconds / total : 0;
    }
    metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    if (args.count("--trace-out") &&
        !tracer.WriteChromeTrace(args["--trace-out"])) {
      r.errors.push_back("cannot write " + args["--trace-out"]);
    }
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "wcbench %s: CHECK FAILED: %s\n", workload.c_str(),
                 e.c_str());
  }

  // One JSON object: the fields run.py prints as the result line, plus
  // everything the result record keeps.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    auto unit = units.find(name);
    if (unit == units.end()) {
      std::fprintf(stderr, "wcbench: metric %s has no unit\n", name.c_str());
      return 1;
    }
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": {\"value\": ");
    PrintNumber(value);
    std::printf(", \"unit\": ");
    PrintString(unit->second);
    std::printf("}");
  }
  std::printf("}, \"e2e\": {");
  first = true;
  for (const auto& [name, value] : r.e2e) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintNumber(value);
  }
  std::printf("}, \"report\": {");
  first = true;
  for (const auto& [name, value] : r.report) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintNumber(value);
  }
  std::printf("}, \"info\": {");
  first = true;
  r.info["nproc"] = std::to_string(ctx.nproc);
  r.info["compiler"] = WCBENCH_COMPILER;
  r.info["build_type"] = WCBENCH_BUILD_TYPE;
  for (const auto& [name, value] : ReadMeta(ctx.data_dir)) {
    r.info["input." + name] = value;
  }
  for (const auto& [name, value] : r.info) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintString(name);
    std::printf(": ");
    PrintString(value);
  }
  std::printf("}}\n");
  return r.errors.empty() ? 0 : 3;
}
