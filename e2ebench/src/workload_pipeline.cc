// pipeline: a soccer-only corpus (the paper's Fig 4 domain) through the
// whole batch loop, from dump.xml on disk to a verified snapshot and a
// closed serving report:
//
//   RunIngestPipeline (XML -> ActionLogWriter) -> ReplayActionLog
//   -> WindowSearch::Run with relatives -> SaveSnapshotFile/LoadSnapshotFile
//   -> one DetectorService tenant fed the canonical feed -> CloseSession.
//
// Mining is most of this loop, so core/relational changes show here.

#include <fstream>

#include "core/partial.h"
#include "core/window_search.h"
#include "dump/ingest.h"
#include "eval/quality.h"
#include "inputs.h"
#include "log/action_log_reader.h"
#include "log/replay.h"
#include "serve/detector_service.h"
#include "serve/pattern_store.h"
#include "workload_common.h"
#include "workload_sizes.h"
#include "workloads.h"

namespace wcbench {

using namespace wiclean;

namespace {

/// Cold replays of the loop's WCAL made after each loop, outside pipeline_s,
/// so the replay rate rests on more than one sub-millisecond sample.
constexpr int kReplayRepeats = 60;

/// Setup repetitions; setup_s is their median.
constexpr int kSetupRepeats = 25;

}  // namespace

WorkloadResult RunPipeline(const WorkloadContext& ctx) {
  WorkloadResult r;
  Tracer& tr = *ctx.tracer;
  const std::string dump_path = JoinPath(ctx.data_dir, kDumpFile);
  const std::string wcal_path = ctx.scratch_dir + "/pipeline.wcal";
  const std::string snap_path = ctx.scratch_dir + "/pipeline.wcps";

  // Set-up: alignment + taxonomy load, repeated; the last one is kept.
  Alignment al;
  std::vector<double> setup_s;
  Status loaded =
      LoadAlignmentTimed(ctx.data_dir, kSetupRepeats, &al, &setup_s);
  if (!loaded.ok()) return Failed(loaded);
  const EntityRegistry& registry = *al.registry;
  Result<TypeId> seed_type = al.taxonomy->Find("soccer_player");
  if (!seed_type.ok()) return Failed(seed_type.status());
  Result<std::vector<ExpertPattern>> experts =
      LoadExperts(ctx.data_dir, *al.taxonomy);
  if (!experts.ok()) return Failed(experts.status());
  const uint64_t xml_bytes = FileBytes(dump_path);

  // Check reference: the store of a direct IngestDump of the same XML.
  uint64_t direct_digest = 0;
  Timestamp begin = 0;
  Timestamp end = 0;
  {
    std::ifstream in(dump_path, std::ios::binary);
    RevisionStore direct;
    Result<IngestStats> stats = IngestDump(&in, registry, &direct);
    if (!stats.ok()) return Failed(stats.status());
    direct_digest = StoreDigest(direct, registry.size());
    if (!direct.TimeSpan(&begin, &end)) {
      return Failed(Status::FailedPrecondition("dump holds no link edits"));
    }
    // Whole days outward, as the CLI rounds the timeline.
    begin = (begin / kSecondsPerDay) * kSecondsPerDay;
    end = (end / kSecondsPerDay + 1) * kSecondsPerDay;
  }

  const size_t ingest_threads = 1;
  WindowSearchOptions search_options;
  search_options.initial_threshold = kMiningThreshold;
  search_options.miner.max_abstraction_lift = 1;
  search_options.miner.max_pattern_actions = 6;
  search_options.miner.profile_workingset = tr.enabled();
  search_options.mine_relative = true;
  r.info["ingest_threads"] = std::to_string(ingest_threads);
  r.info["search_threads"] = std::to_string(search_options.num_threads);
  r.info["mine_threads"] = std::to_string(search_options.miner.num_threads);
  r.info["shards_per_tenant"] = "1";

  std::vector<double> loop_s, loop_cpu_s, ingest_s, replay_s, replay_rep_s,
      search_s, pack_s, load_s, open_ms, close_ms, publish_ms, feed_s,
      write_s, log_open_s, read_s, parse_s, merge_s;
  std::string first_snapshot_bytes;
  std::vector<std::string> batch_fingerprints;
  double precision = -1, recall = -1;
  LayerTotals totals;

  const Clock::time_point run_start = Clock::now();
  for (uint64_t loop = 0;
       loop == 0 || SecondsBetween(run_start, Clock::now()) < ctx.seconds;
       ++loop) {
    ctx.calibrator->Sample();
    double paused = 0;      // wall time spent in output checks in the loop
    double paused_cpu = 0;  // and their CPU time
    ++r.attempted;
    auto root = tr.Open("bench", "pipeline.loop", loop);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();

    // 1. XML -> WCAL.
    XmlToWcal xml;
    Status ingested = IngestXmlToWcal(dump_path, wcal_path, registry,
                                      ingest_threads, &tr, loop, &xml);
    if (!ingested.ok()) return Failed(ingested);
    const IngestStats& ingest = xml.stats;
    write_s.push_back(xml.write_s);
    totals.log_blocks = static_cast<double>(xml.blocks);
    const Clock::time_point t_ingest = Clock::now();
    ingest_s.push_back(SecondsBetween(t0, t_ingest));
    read_s.push_back(ingest.read_seconds);
    parse_s.push_back(ingest.parse_seconds);
    merge_s.push_back(ingest.merge_seconds);

    // 2. Replay into a fresh store.
    RevisionStore store;
    ReplayTiming replay_timing;
    Status replayed = ReplayInto(wcal_path, &store, &tr, loop, &replay_timing);
    if (!replayed.ok()) return Failed(replayed);
    replay_s.push_back(replay_timing.total_s);
    log_open_s.push_back(replay_timing.open_s);

    // 3. Window search with relatives.
    Result<WindowSearchResult> search_result =
        Status::Internal("search not run");
    {
      auto span = tr.Open("core", "WindowSearch::Run", loop);
      const Clock::time_point s0 = Clock::now();
      WindowSearch search(&registry, &store, search_options);
      search_result = search.Run(*seed_type, begin, end);
      search_s.push_back(SecondsBetween(s0, Clock::now()));
    }
    if (!search_result.ok()) return Failed(search_result.status());

    // 4. Pack: save and reload the snapshot.
    PatternSnapshot snapshot;
    snapshot.provenance.corpus_id = "e2ebench:pipeline";
    snapshot.provenance.tool = "wcbench";
    snapshot.provenance.frequency_threshold = kMiningThreshold;
    snapshot.provenance.max_abstraction_lift = 1;
    snapshot.provenance.max_pattern_actions = 6;
    snapshot.provenance.mine_relative = true;
    for (const DiscoveredPattern& dp : search_result->patterns) {
      snapshot.patterns.push_back({dp.mined.pattern, dp.mined.window,
                                   dp.mined.frequency, dp.mined.support,
                                   dp.threshold});
    }
    Result<PatternSnapshot> loaded = Status::Internal("snapshot not loaded");
    {
      const Clock::time_point p0 = Clock::now();
      {
        auto span = tr.Open("serve", "SaveSnapshotFile", loop);
        Status saved = SaveSnapshotFile(snapshot, *al.taxonomy, snap_path);
        if (!saved.ok()) return Failed(saved);
      }
      const Clock::time_point p1 = Clock::now();
      {
        auto span = tr.Open("serve", "LoadSnapshotFile", loop);
        loaded = LoadSnapshotFile(snap_path, *al.taxonomy);
      }
      if (!loaded.ok()) return Failed(loaded.status());
      pack_s.push_back(SecondsBetween(p0, Clock::now()));
      load_s.push_back(SecondsBetween(p1, Clock::now()));
    }
    {
      // Check: the reloaded snapshot encodes to the saved one's bytes.
      const Clock::time_point c0 = Clock::now();
      const double c0_cpu = ProcessCpuSeconds();
      std::string saved_bytes, loaded_bytes;
      Status a = EncodeSnapshot(snapshot, *al.taxonomy, &saved_bytes);
      Status b = EncodeSnapshot(*loaded, *al.taxonomy, &loaded_bytes);
      if (!a.ok() || !b.ok() || saved_bytes != loaded_bytes) {
        r.errors.push_back("reloaded snapshot differs from the saved one");
      }
      if (loop == 0) {
        first_snapshot_bytes = saved_bytes;
      } else if (saved_bytes != first_snapshot_bytes) {
        r.errors.push_back("mining output differs between loops");
      }
      paused += SecondsBetween(c0, Clock::now());
      paused_cpu += ProcessCpuSeconds() - c0_cpu;
    }

    // 5. One tenant fed the whole canonical feed, then closed.
    Result<TenantReport> closed = Status::Internal("session not closed");
    size_t num_patterns = loaded->patterns.size();
    {
      Feed feed;
      {
        auto span = tr.Open("bench", "BuildCanonicalFeed", loop);
        feed = BuildCanonicalFeed(registry, store);
      }
      DetectorServiceOptions options;
      options.max_tenants = 1;
      options.shards_per_tenant = 1;
      options.feed_deadline_ms = 0;  // blocking: a batch replay sheds nothing
      options.detector.detector.max_abstraction_lift = 1;
      DetectorService service(&registry, options);
      Clock::time_point c0 = Clock::now();
      {
        auto span = tr.Open("serve", "PublishSnapshot", loop);
        service.PublishSnapshot(std::move(loaded).value());
      }
      Clock::time_point c1 = Clock::now();
      publish_ms.push_back(1e3 * SecondsBetween(c0, c1));
      Result<TenantId> tenant = Status::Internal("no session");
      {
        auto span = tr.Open("serve", "OpenSession", loop);
        tenant = service.OpenSession();
      }
      if (!tenant.ok()) return Failed(tenant.status());
      c0 = Clock::now();
      open_ms.push_back(1e3 * SecondsBetween(c1, c0));
      {
        auto span = tr.Open("serve", "Feed", loop);
        for (const auto& [action, sequence] : feed) {
          if (service.Feed(*tenant, action, sequence) != FeedResult::kOk) {
            ++r.failed;
          }
        }
      }
      c1 = Clock::now();
      feed_s.push_back(SecondsBetween(c0, c1));
      {
        auto span = tr.Open("serve", "CloseSession", loop);
        closed = service.CloseSession(*tenant);
      }
      close_ms.push_back(1e3 * SecondsBetween(c1, Clock::now()));
      if (!closed.ok()) return Failed(closed.status());
      SnapshotRegistryStats epochs = service.registry_stats();
      totals.epochs_published += epochs.epochs_published;
      totals.epochs_retired += epochs.epochs_retired;
      totals.epochs_freed += epochs.snapshots_freed;
      r.attempted += feed.size();
    }
    const Clock::time_point t_end = Clock::now();
    loop_cpu_s.push_back(ProcessCpuSeconds() - cpu0 - paused_cpu);
    loop_s.push_back(SecondsBetween(t0, t_end) - paused);
    totals.AddSession(closed->session);
    totals.AddSearch(*search_result);
    totals.AddIngest(ingest, xml_bytes);
    totals.patterns = num_patterns;
    totals.snapshot_bytes = static_cast<double>(FileBytes(snap_path));
    totals.log_bytes = static_cast<double>(FileBytes(wcal_path));
    root.End();  // the checks below are not part of the loop

    // Checks, outside pipeline_s.
    if (StoreDigest(store, registry.size()) != direct_digest) {
      r.errors.push_back("WCAL-replayed store digest != direct IngestDump");
    }
    if (loop == 0) {
      // Batch Algorithm 3 over the same snapshot and store.
      PartialDetectorOptions detector_options;
      detector_options.max_abstraction_lift = 1;
      PartialUpdateDetector batch(&registry, &store, detector_options);
      for (const StoredPattern& sp : snapshot.patterns) {
        Result<PartialUpdateReport> report =
            batch.Detect(sp.pattern, sp.window);
        if (!report.ok()) return Failed(report.status());
        batch_fingerprints.push_back(ReportFingerprint(*report));
      }
      PatternQualityReport quality = EvaluatePatternQuality(
          search_result->patterns, *experts, *al.taxonomy);
      precision = quality.precision;
      recall = quality.recall;
      r.info["experts_detected"] = std::to_string(quality.detected_experts) +
                                   "/" + std::to_string(quality.expert_total);
    }
    const std::vector<OnlineAlert>& alerts = closed->session.alerts;
    bool same = alerts.size() == batch_fingerprints.size();
    for (size_t i = 0; same && i < alerts.size(); ++i) {
      same = alerts[i].pattern_id == i &&
             ReportFingerprint(alerts[i].report) == batch_fingerprints[i];
    }
    if (!same) r.errors.push_back("online alerts != batch Algorithm 3");

    // Replay-rate samples: repeated cold replays of this loop's WCAL.
    std::vector<double> reps;
    for (int k = 0; k < kReplayRepeats; ++k) {
      RevisionStore fresh;
      ReplayTiming t;
      Status s = ReplayInto(wcal_path, &fresh, nullptr, loop, &t);
      if (!s.ok()) return Failed(s);
      reps.push_back(t.cpu_s);
    }
    replay_rep_s.push_back(Median(reps));
  }
  if (!(precision >= 0 && precision <= 1 && recall >= 0 && recall <= 1)) {
    r.errors.push_back("pattern quality out of range");
  }
  if (r.failed != 0) r.errors.push_back("a blocking feed was refused");

  const double actions = static_cast<double>(totals.actions_per_unit);
  const double pipeline_s = Median(loop_s);
  const double pipeline_cpu_s = Median(loop_cpu_s);
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["result_cpu_ms"] = 1e3 * pipeline_cpu_s;
  r.e2e["actions_per_cpu_s"] = actions / pipeline_cpu_s;
  r.e2e["replay_mactions_per_cpu_s"] = actions / Median(replay_rep_s) / 1e6;

  r.report["pipeline_s"] = pipeline_s;
  r.report["pipeline_cpu_s"] = pipeline_cpu_s;
  r.report["pattern_precision"] = precision;
  r.report["pattern_recall"] = recall;
  r.report["ingest_mb_s"] = static_cast<double>(xml_bytes) / 1e6 /
                            Median(ingest_s);
  r.report["serve_open_p50_ms"] = Median(open_ms);
  r.report["serve_close_p50_ms"] = Median(close_ms);
  r.report["loops"] = static_cast<double>(loop_s.size());

  r.layer["dump.ingest_s"] = Median(ingest_s);
  r.layer["dump.read_s"] = Median(read_s);
  r.layer["dump.parse_s"] = Median(parse_s);
  r.layer["dump.merge_s"] = Median(merge_s);
  r.layer["log.write_s"] = Median(write_s);
  r.layer["log.open_s"] = Median(log_open_s);
  r.layer["log.replay_s"] = Median(replay_s);
  r.layer["core.search_s"] = Median(search_s);
  r.layer["serve.pack_s"] = Median(pack_s);
  r.layer["serve.snapshot_load_s"] = Median(load_s);
  r.layer["serve.publish_ms_p99"] = Summarize(publish_ms).tail;
  r.layer["serve.open_ms_p50"] = Median(open_ms);
  r.layer["serve.close_ms_p50"] = Median(close_ms);
  r.layer["serve.close_ms_p99"] = Summarize(close_ms).tail;
  r.layer["serve.feed_busy_s"] = Median(feed_s);
  r.layer["core.pattern_precision"] = precision;
  r.layer["core.pattern_recall"] = recall;
  totals.Emit(static_cast<double>(loop_s.size()), &r.layer);

  r.info["loops"] = std::to_string(loop_s.size());
  r.info["xml_bytes"] = std::to_string(xml_bytes);
  r.info["actions"] = std::to_string(totals.actions_per_unit);
  r.info["patterns"] = std::to_string(totals.patterns);
  return r;
}

}  // namespace wcbench
