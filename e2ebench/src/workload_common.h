#ifndef WCBENCH_WORKLOAD_COMMON_H_
#define WCBENCH_WORKLOAD_COMMON_H_

// Pieces the workloads share: failure results, the timed set-up, the timed
// XML -> WCAL ingest and WCAL replay, and the per-layer counters read from
// the structs the library calls return.

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/window_search.h"
#include "dump/action_sink.h"
#include "dump/ingest.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "inputs.h"
#include "log/action_log_reader.h"
#include "log/action_log_writer.h"
#include "log/replay.h"
#include "revision/revision_store.h"
#include "serve/detector_session.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace wcbench {

/// A result that reports a library error as a failed output check.
inline WorkloadResult Failed(const wiclean::Status& status) {
  WorkloadResult r;
  r.errors.push_back(status.ToString());
  r.attempted = 1;
  r.failed = 1;
  return r;
}

struct ReplayTiming {
  double open_s = 0;   // ActionLogReader::OpenFile
  double total_s = 0;  // open + replay
  double cpu_s = 0;    // process CPU time of open + replay
};

/// ReplayActionLogFile, split so that the open and the replay are timed
/// (and traced, when `tracer` is non-null) separately.
inline wiclean::Status ReplayInto(const std::string& path,
                                  wiclean::RevisionStore* store,
                                  Tracer* tracer, uint64_t request,
                                  ReplayTiming* timing,
                                  const wiclean::ReplayOptions& options = {}) {
  Tracer off(false);
  Tracer& tr = tracer != nullptr ? *tracer : off;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  wiclean::Result<wiclean::ActionLogReader> reader =
      wiclean::Status::Internal("not opened");
  {
    auto span = tr.Open("log", "ActionLogReader::OpenFile", request);
    reader = wiclean::ActionLogReader::OpenFile(path);
  }
  if (!reader.ok()) return reader.status();
  const Clock::time_point t1 = Clock::now();
  wiclean::RevisionStoreSink sink(store);
  {
    auto span = tr.Open("log", "ReplayActionLog", request);
    wiclean::Result<wiclean::IngestStats> stats =
        wiclean::ReplayActionLog(*reader, &sink, options);
    if (!stats.ok()) return stats.status();
  }
  const Clock::time_point t2 = Clock::now();
  timing->cpu_s = ProcessCpuSeconds() - cpu0;
  timing->open_s = SecondsBetween(t0, t1);
  timing->total_s = SecondsBetween(t0, t2);
  return wiclean::Status::OK();
}

/// Loads taxonomy + alignment `repeats` times, recording each load's CPU
/// time in *setup_s; the last load is kept in *al.
inline wiclean::Status LoadAlignmentTimed(const std::string& dir, int repeats,
                                          Alignment* al,
                                          std::vector<double>* setup_s) {
  for (int k = 0; k < repeats; ++k) {
    const double cpu0 = ProcessCpuSeconds();
    wiclean::Result<Alignment> loaded = LoadAlignmentDir(dir);
    if (!loaded.ok()) return loaded.status();
    setup_s->push_back(ProcessCpuSeconds() - cpu0);
    *al = std::move(loaded).value();
  }
  return wiclean::Status::OK();
}

/// What one XML -> WCAL ingest reports.
struct XmlToWcal {
  wiclean::IngestStats stats;
  double write_s = 0;  // ActionLogWriter::write_seconds
  uint64_t blocks = 0;
};

/// RunIngestPipeline from `dump_path` into an ActionLogWriter on
/// `wcal_path`, then Finish: the dump.xml -> finished WCAL step both
/// pipeline and ingest time. Spans: dump for the pipeline call, with the
/// writer's own encode time attributed to log, and log for Finish.
inline wiclean::Status IngestXmlToWcal(const std::string& dump_path,
                                       const std::string& wcal_path,
                                       const wiclean::EntityRegistry& registry,
                                       size_t threads, Tracer* tr,
                                       uint64_t request, XmlToWcal* out) {
  auto span = tr->Open("dump", "RunIngestPipeline", request);
  std::ifstream in(dump_path, std::ios::binary);
  wiclean::XmlPageSource source(&in);
  std::ofstream file(wcal_path, std::ios::binary | std::ios::trunc);
  wiclean::ActionLogWriter writer(&file);
  WICLEAN_RETURN_IF_ERROR(writer.status());
  wiclean::IngestOptions options;
  options.num_threads = threads;
  WICLEAN_ASSIGN_OR_RETURN(
      out->stats, wiclean::RunIngestPipeline(&source, registry, &writer,
                                             options));
  out->write_s = writer.write_seconds();
  tr->Attribute("log", "ActionLogWriter.encode", out->write_s);
  {
    auto finish = tr->Open("log", "ActionLogWriter::Finish", request);
    WICLEAN_RETURN_IF_ERROR(writer.Finish());
    file.flush();
    if (!file) return wiclean::Status::Internal("cannot write " + wcal_path);
  }
  out->blocks = writer.blocks_written();
  return wiclean::Status::OK();
}

/// Counters the library returns, accumulated over a run and emitted as
/// per-layer metrics. Sums are divided by the number of measured units
/// (pipeline loops, ingest passes; the whole run for serve).
struct LayerTotals {
  // dump (one unit's counts; identical across units)
  double pages = 0, revisions = 0, actions = 0, xml_bytes = 0;
  uint64_t actions_per_unit = 0;
  // log
  double log_blocks = 0, log_bytes = 0;
  // core (one unit's counts)
  double rounds = 0, round_max_s = 0, candidates = 0, frequent = 0,
         core_actions = 0, core_entities = 0;
  // relational (profile_workingset; traced runs only)
  double join_bytes = 0, dedup_bytes = 0, tables_born = 0, peak_live = 0;
  // serve (sums)
  double shard_busy_s = 0, finalize_s = 0, slot_hits = 0, matched = 0,
         observed = 0, shed = 0, retries = 0, quarantined = 0;
  double epochs_published = 0, epochs_retired = 0, epochs_freed = 0;
  double patterns = 0, snapshot_bytes = 0;

  void AddIngest(const wiclean::IngestStats& s, uint64_t bytes) {
    pages = static_cast<double>(s.pages);
    revisions = static_cast<double>(s.revisions);
    actions = static_cast<double>(s.actions);
    actions_per_unit = s.actions;
    xml_bytes = static_cast<double>(bytes);
  }

  void AddSearch(const wiclean::WindowSearchResult& r) {
    rounds = static_cast<double>(r.rounds.size());
    round_max_s = 0;
    for (const wiclean::RefinementRound& round : r.rounds) {
      round_max_s = std::max(round_max_s, round.seconds);
    }
    const wiclean::MineWindowStats& s = r.total_stats;
    candidates = static_cast<double>(s.candidates_considered);
    frequent = static_cast<double>(s.frequent_patterns);
    core_actions = static_cast<double>(s.actions_ingested);
    core_entities = static_cast<double>(s.entities_ingested);
    join_bytes = static_cast<double>(s.workingset.join_bytes_touched);
    dedup_bytes = static_cast<double>(s.workingset.dedup_bytes_touched);
    tables_born = static_cast<double>(s.workingset.tables_born);
    peak_live = static_cast<double>(s.workingset.peak_live_bytes);
  }

  void AddSession(const wiclean::SessionReport& s) {
    for (double busy : s.shard_busy_seconds) shard_busy_s += busy;
    finalize_s += s.stats.finalize_seconds;
    slot_hits += static_cast<double>(s.stats.slot_hits);
    matched += static_cast<double>(s.stats.events_matched);
    observed += static_cast<double>(s.stats.events_observed);
  }

  void Emit(double units, std::map<std::string, double>* out) const {
    auto& m = *out;
    const double u = units > 0 ? units : 1;
    m["dump.pages"] = pages;
    m["dump.revisions"] = revisions;
    m["dump.actions"] = actions;
    m["dump.xml_bytes"] = xml_bytes;
    m["log.blocks"] = log_blocks;
    m["log.bytes_per_action"] =
        actions_per_unit > 0 ? log_bytes / static_cast<double>(actions_per_unit)
                             : 0;
    m["core.rounds"] = rounds;
    m["core.round_max_s"] = round_max_s;
    m["core.candidates_considered"] = candidates;
    m["core.frequent_patterns"] = frequent;
    m["core.frequent_per_candidate"] =
        candidates > 0 ? frequent / candidates : 0;
    m["core.actions_ingested"] = core_actions;
    m["core.entities_ingested"] = core_entities;
    m["relational.join_bytes_touched"] = join_bytes;
    m["relational.dedup_bytes_touched"] = dedup_bytes;
    m["relational.tables_born"] = tables_born;
    m["relational.peak_live_bytes"] = peak_live;
    m["serve.shard_busy_s"] = shard_busy_s / u;
    m["serve.finalize_s"] = finalize_s / u;
    m["serve.slot_hits"] = slot_hits / u;
    m["serve.matched_per_observed"] = observed > 0 ? matched / observed : 0;
    m["serve.events_shed"] = shed;
    m["serve.retries"] = retries;
    m["serve.quarantined"] = quarantined;
    m["serve.epochs_published"] = epochs_published;
    m["serve.epochs_retired"] = epochs_retired;
    m["serve.epochs_freed"] = epochs_freed;
    m["serve.patterns"] = patterns;
    m["serve.snapshot_bytes"] = snapshot_bytes;
  }
};

}  // namespace wcbench

#endif  // WCBENCH_WORKLOAD_COMMON_H_
