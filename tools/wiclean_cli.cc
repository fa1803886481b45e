// The WiClean command-line tool: end-to-end mining and error detection over
// file-based inputs (a MediaWiki-style dump plus taxonomy/alignment TSVs —
// the offline equivalent of the paper's crawled data + DBPedia alignment).
//
// Subcommands:
//
//   wiclean synth --out-dir DIR [--seeds N] [--years N] [--rng-seed S]
//                 [--domains soccer,cinema,politics,software]
//     Generates a demo corpus: DIR/dump.xml, DIR/taxonomy.tsv,
//     DIR/alignment.tsv.
//
//   wiclean ingest --dump F --taxonomy F --alignment F --out F.wcal
//                  [--stats-json F] [--block-actions N] [--threads N]
//     Runs the parse/diff pipeline once and serializes the recovered action
//     stream into a WCAL binary action log (src/log/). Every other
//     subcommand accepts --action-log F.wcal in place of --dump and replays
//     the log into the store, skipping XML and wikitext entirely.
//
//   wiclean mine --dump F --taxonomy F --alignment F --seed-type NAME
//                [--threshold X] [--json FILE] [--threads N]
//     Runs the window-and-pattern search (Algorithm 2) and prints a summary;
//     optionally writes a JSON report. --threads parallelizes dump
//     ingestion (parse/diff pipeline) with identical output.
//
//   wiclean detect --dump F --taxonomy F --alignment F --seed-type NAME
//                  [--threshold X] [--csv FILE] [--max-print N] [--threads N]
//     Mines, then runs partial-update detection (Algorithm 3) on every
//     discovered pattern and reports the signaled potential errors.
//     With --patterns SNAPSHOT the mining step is skipped and the packed
//     patterns are used instead; add --online 1 to replay the revision log
//     through the incremental serving detector (identical alert set).
//
//   wiclean pack --dump F --taxonomy F --alignment F --seed-type NAME
//                --out SNAPSHOT [--threshold X] [--corpus-id ID]
//     Mines and writes the discovered patterns into a versioned,
//     checksummed binary snapshot (the serving artifact).
//
//   wiclean serve --dump F --taxonomy F --alignment F --patterns SNAPSHOT
//                 [--feed-threads N] [--allowed-skew SECONDS] [--json FILE]
//                 [--tenants N] [--reload F2,F3] [--max-tenants N]
//                 [--feed-deadline-ms D] [--queue-capacity N]
//     Replays the corpus's revision log as an event stream through the
//     multi-tenant online detector service and reports alerts plus
//     throughput. --tenants staggers N sessions along the feed; --reload
//     hot-swaps further snapshot files mid-feed (sessions keep the epoch
//     they pinned at open); --feed-deadline-ms turns sustained
//     backpressure into explicit load shedding.
//
// Exit status: 0 on success, 1 on any error (message on stderr).

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/file_commit.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/timer.h"

#include "core/partial.h"
#include "core/window_search.h"
#include "dump/alignment.h"
#include "dump/ingest.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "dump/quarantine.h"
#include "log/action_log_writer.h"
#include "log/replay.h"
#include "report/report.h"
#include "serve/detector_service.h"
#include "serve/detector_session.h"
#include "serve/pattern_store.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

/// Parsed --key value pairs; positional args rejected.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.size() < 3 || arg.substr(0, 2) != "--") {
        return Status::InvalidArgument("unexpected argument '" +
                                       std::string(arg) + "'");
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for '" +
                                       std::string(arg) + "'");
      }
      args.values_[std::string(arg.substr(2))] = argv[++i];
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<std::string> Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + key);
    }
    return it->second;
  }

  /// The number --key holds, or `fallback` when absent. InvalidArgument
  /// when the whole value is not one decimal number, or is out of range.
  Result<double> GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0') {
      return Status::InvalidArgument("--" + key + " must be a number, got '" +
                                     text + "'");
    }
    if (errno == ERANGE) {
      return Status::InvalidArgument("--" + key + " is out of range: '" +
                                     text + "'");
    }
    return value;
  }

  /// The integer --key holds, or `fallback` when absent. InvalidArgument
  /// when the whole value is not one base-10 integer, or lies outside
  /// [min, max]. Flags that hold a count or a size pass min = 0.
  Result<int64_t> GetInt(
      const std::string& key, int64_t fallback,
      int64_t min = std::numeric_limits<int64_t>::min(),
      int64_t max = std::numeric_limits<int64_t>::max()) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') {
      return Status::InvalidArgument("--" + key +
                                     " must be an integer, got '" + text +
                                     "'");
    }
    if (errno == ERANGE) {
      return Status::InvalidArgument("--" + key + " is out of range: '" +
                                     text + "'");
    }
    if (value < min) {
      return Status::InvalidArgument("--" + key + " must be >= " +
                                     std::to_string(min) + ", got " + text);
    }
    if (value > max) {
      return Status::InvalidArgument("--" + key + " must be <= " +
                                     std::to_string(max) + ", got " + text);
    }
    return static_cast<int64_t>(value);
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "wiclean: %s\n", status.ToString().c_str());
  return 1;
}

/// Fills `<path>.tmp` through `write(std::ostream*)`. OK only when `write`
/// succeeded and the stream closed cleanly; on any failure the temp file is
/// removed. `path` itself is not touched.
template <typename Write>
Status WriteTempFile(const std::string& path, Write write) {
  const std::string tmp_path = path + ".tmp";
  std::ofstream f(tmp_path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!f) return Status::Internal("cannot write " + tmp_path);
  Status status = write(static_cast<std::ostream*>(&f));
  f.close();
  if (status.ok() && !f) status = Status::Internal("write failed: " + path);
  if (!status.ok()) std::remove(tmp_path.c_str());
  return status;
}

/// Writes the file at `path` through `<path>.tmp` (WriteTempFile), which
/// CommitFile publishes over `path` only once it is complete. On any failure
/// the temp file is removed and an earlier file at `path` is left as it was.
template <typename Write>
Status WriteFileAtomically(const std::string& path, Write write) {
  WICLEAN_RETURN_IF_ERROR(WriteTempFile(path, write));
  return CommitFile(path + ".tmp", path);
}

/// Shared loading for mine/detect: taxonomy + alignment + dump -> store.
struct LoadedCorpus {
  std::unique_ptr<TypeTaxonomy> taxonomy;
  std::unique_ptr<EntityRegistry> registry;
  RevisionStore store;
  TypeId seed_type = kInvalidTypeId;
  Timestamp begin = 0;
  Timestamp end = 0;
};

/// The ingest-side flags shared by every subcommand that builds a store:
/// worker count, fault policy (plus its quarantine sink), resource guards.
struct IngestArgs {
  size_t num_threads = 1;
  ErrorPolicy on_error = ErrorPolicy::kStrict;
  std::unique_ptr<DirectoryQuarantineSink> quarantine;  // kQuarantine only
  IngestLimits limits;

  IngestOptions ToIngestOptions() const {
    IngestOptions options;
    options.num_threads = num_threads;
    options.on_error = on_error;
    options.quarantine = quarantine.get();
    options.limits = limits;
    return options;
  }
};

Result<IngestArgs> ParseIngestArgs(const Args& args) {
  IngestArgs parsed;
  // --threads N fans the parse/diff (or block-decode) stage out across N
  // pipeline workers; the resulting store is identical to a sequential
  // ingest (ordered merge).
  WICLEAN_ASSIGN_OR_RETURN(int64_t threads, args.GetInt("threads", 1, 1));
  parsed.num_threads = static_cast<size_t>(threads);

  // --on-error selects the fault policy; strict (the default) fails fast.
  std::string on_error = args.Get("on-error", "strict");
  if (on_error == "strict") {
    parsed.on_error = ErrorPolicy::kStrict;
  } else if (on_error == "skip") {
    parsed.on_error = ErrorPolicy::kSkip;
  } else if (on_error == "quarantine") {
    parsed.on_error = ErrorPolicy::kQuarantine;
    WICLEAN_ASSIGN_OR_RETURN(std::string quarantine_dir,
                             args.Require("quarantine-dir"));
    parsed.quarantine =
        std::make_unique<DirectoryQuarantineSink>(quarantine_dir);
    WICLEAN_RETURN_IF_ERROR(parsed.quarantine->status());
  } else {
    return Status::InvalidArgument(
        "--on-error must be strict, skip, or quarantine (got '" + on_error +
        "')");
  }
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_revision_bytes,
                           args.GetInt("max-revision-bytes", 0, 0));
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_revisions_per_page,
                           args.GetInt("max-revisions-per-page", 0, 0));
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_actions_per_page,
                           args.GetInt("max-actions-per-page", 0, 0));
  WICLEAN_ASSIGN_OR_RETURN(
      int64_t max_infobox_depth,
      args.GetInt("max-infobox-depth", 0, 0, std::numeric_limits<int>::max()));
  parsed.limits.max_revision_bytes = static_cast<size_t>(max_revision_bytes);
  parsed.limits.max_revisions_per_page =
      static_cast<size_t>(max_revisions_per_page);
  parsed.limits.max_actions_per_page =
      static_cast<size_t>(max_actions_per_page);
  parsed.limits.max_infobox_nesting_depth = static_cast<int>(max_infobox_depth);
  return parsed;
}

/// Loads --taxonomy and --alignment into a fresh taxonomy + registry pair
/// (shared by every corpus-consuming subcommand and `wiclean ingest`).
struct LoadedAlignment {
  std::unique_ptr<TypeTaxonomy> taxonomy;
  std::unique_ptr<EntityRegistry> registry;
};

Result<LoadedAlignment> LoadAlignmentFiles(const Args& args) {
  LoadedAlignment loaded;
  WICLEAN_ASSIGN_OR_RETURN(std::string taxonomy_path,
                           args.Require("taxonomy"));
  std::ifstream taxonomy_file(taxonomy_path);
  if (!taxonomy_file) {
    return Status::NotFound("cannot open taxonomy file " + taxonomy_path);
  }
  WICLEAN_ASSIGN_OR_RETURN(loaded.taxonomy, LoadTaxonomy(&taxonomy_file));

  WICLEAN_ASSIGN_OR_RETURN(std::string alignment_path,
                           args.Require("alignment"));
  std::ifstream alignment_file(alignment_path);
  if (!alignment_file) {
    return Status::NotFound("cannot open alignment file " + alignment_path);
  }
  WICLEAN_ASSIGN_OR_RETURN(
      loaded.registry, LoadAlignment(&alignment_file, loaded.taxonomy.get()));
  return loaded;
}

Result<LoadedCorpus> LoadCorpus(const Args& args,
                                bool require_seed_type = true) {
  LoadedCorpus corpus;

  WICLEAN_ASSIGN_OR_RETURN(LoadedAlignment aligned, LoadAlignmentFiles(args));
  corpus.taxonomy = std::move(aligned.taxonomy);
  corpus.registry = std::move(aligned.registry);

  WICLEAN_ASSIGN_OR_RETURN(IngestArgs ingest_args, ParseIngestArgs(args));

  // --action-log replaces --dump: the store is rebuilt by replaying a WCAL
  // file written by `wiclean ingest`, skipping XML parse and diff entirely.
  // Both paths produce byte-identical stores for the same source dump.
  std::string action_log_path = args.Get("action-log", "");
  IngestStats stats;
  if (!action_log_path.empty()) {
    ReplayOptions replay_options;
    replay_options.num_threads = ingest_args.num_threads;
    replay_options.on_error = ingest_args.on_error;
    replay_options.quarantine = ingest_args.quarantine.get();
    WICLEAN_ASSIGN_OR_RETURN(
        stats,
        ReplayActionLogFile(action_log_path, &corpus.store, replay_options));
    std::fprintf(stderr, "replayed %s (%zu thread%s): %s\n",
                 action_log_path.c_str(), ingest_args.num_threads,
                 ingest_args.num_threads == 1 ? "" : "s",
                 stats.ToString().c_str());
  } else {
    WICLEAN_ASSIGN_OR_RETURN(std::string dump_path, args.Require("dump"));
    std::ifstream dump_file(dump_path);
    if (!dump_file) {
      return Status::NotFound("cannot open dump file " + dump_path);
    }
    WICLEAN_ASSIGN_OR_RETURN(
        stats, IngestDump(&dump_file, *corpus.registry, &corpus.store,
                          ingest_args.ToIngestOptions()));
    std::fprintf(stderr, "ingested (%zu thread%s): %s\n",
                 ingest_args.num_threads,
                 ingest_args.num_threads == 1 ? "" : "s",
                 stats.ToString().c_str());
  }

  if (require_seed_type) {
    WICLEAN_ASSIGN_OR_RETURN(std::string seed_name,
                             args.Require("seed-type"));
    WICLEAN_ASSIGN_OR_RETURN(corpus.seed_type,
                             corpus.taxonomy->Find(seed_name));
  }

  if (!corpus.store.TimeSpan(&corpus.begin, &corpus.end)) {
    return Status::FailedPrecondition("dump contains no link edits");
  }
  // Round the timeline outward to whole days so windows are stable. The
  // upper bound saturates instead of overflowing: timestamps are raw dump
  // input, so `end` can sit arbitrarily close to INT64_MAX.
  corpus.begin = (corpus.begin / kSecondsPerDay) * kSecondsPerDay;
  Timestamp end_day = corpus.end / kSecondsPerDay;
  if (end_day < std::numeric_limits<Timestamp>::max() / kSecondsPerDay) {
    corpus.end = (end_day + 1) * kSecondsPerDay;
  }
  return corpus;
}

/// Runs the window search the flags configure. When `provenance` is given,
/// records the mining options in it for a snapshot of the result.
Result<WindowSearchResult> RunSearch(const LoadedCorpus& corpus,
                                     const Args& args,
                                     SnapshotProvenance* provenance = nullptr) {
  WindowSearchOptions options;
  WICLEAN_ASSIGN_OR_RETURN(options.initial_threshold,
                           args.GetDouble("threshold", 0.7));
  // Checked before the casts: a negative --max-actions would wrap to no cap.
  WICLEAN_ASSIGN_OR_RETURN(
      int64_t lift,
      args.GetInt("abstraction-lift", 1, 0, std::numeric_limits<int>::max()));
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_actions,
                           args.GetInt("max-actions", 6, 1));
  options.miner.max_abstraction_lift = static_cast<int>(lift);
  options.miner.max_pattern_actions = static_cast<size_t>(max_actions);
  // Mining-internal parallelism (candidate evaluation); output is invariant
  // under this knob. Distinct from --threads, which parallelizes ingest.
  WICLEAN_ASSIGN_OR_RETURN(int64_t mine_threads,
                           args.GetInt("mine-threads", 1, 1));
  options.miner.num_threads = static_cast<size_t>(mine_threads);
  options.miner.profile_workingset =
      args.Get("profile-workingset", "") == "1" ||
      args.Get("profile-workingset", "") == "true";
  options.mine_relative = true;
  if (provenance != nullptr) {
    provenance->frequency_threshold = options.initial_threshold;
    provenance->max_abstraction_lift = static_cast<int32_t>(lift);
    provenance->max_pattern_actions = static_cast<uint64_t>(max_actions);
    provenance->mine_relative = options.mine_relative;
  }
  WindowSearch search(corpus.registry.get(), &corpus.store, options);
  return search.Run(corpus.seed_type, corpus.begin, corpus.end);
}

ReportProvenance ToReportProvenance(const SnapshotProvenance& p) {
  ReportProvenance out;
  out.snapshot_format_version = kSnapshotFormatVersion;
  out.corpus_id = p.corpus_id;
  out.tool = p.tool;
  out.created_unix = p.created_unix;
  out.frequency_threshold = p.frequency_threshold;
  out.max_abstraction_lift = p.max_abstraction_lift;
  out.max_pattern_actions = p.max_pattern_actions;
  out.mine_relative = p.mine_relative;
  return out;
}

/// The corpus's revision log as one canonical event stream: all per-entity
/// logs concatenated (entity-id order), sequence-stamped, then stably sorted
/// by timestamp. The pre-sort sequence rank preserves per-entity log order
/// for equal timestamps, which is exactly the tie order batch reduction sees.
std::vector<std::pair<Action, uint64_t>> BuildCanonicalFeed(
    const EntityRegistry& registry, const RevisionStore& store) {
  std::vector<std::pair<Action, uint64_t>> events;
  for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
    for (const Action& a : store.LogOf(e)) {
      events.emplace_back(a, static_cast<uint64_t>(events.size()));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.time < b.first.time;
                   });
  return events;
}

int PrintReports(const LoadedCorpus& corpus,
                 const std::vector<PartialUpdateReport>& reports,
                 size_t max_print) {
  size_t total_signals = 0;
  for (const PartialUpdateReport& report : reports) {
    total_signals += report.partials.size();
  }
  std::printf("%zu pattern(s) scanned, %zu potential error(s)\n",
              reports.size(), total_signals);
  size_t shown = 0;
  for (const PartialUpdateReport& report : reports) {
    for (const PartialRealization& pr : report.partials) {
      if (shown == max_print) break;
      ++shown;
      std::printf("  potential error in %s:",
                  report.window.ToString().c_str());
      for (size_t mi : pr.missing_actions) {
        const AbstractAction& a = report.pattern.actions()[mi];
        auto name = [&](int v) -> std::string {
          return pr.bindings[v].has_value()
                     ? corpus.registry->Get(*pr.bindings[v]).name
                     : "?";
        };
        std::printf(" missing [%s %s --%s--> %s]",
                    a.op == EditOp::kAdd ? "+" : "-",
                    name(a.source_var).c_str(), a.relation.name().c_str(),
                    name(a.target_var).c_str());
      }
      std::printf("\n");
    }
  }
  if (shown < total_signals) {
    std::printf("  ... (%zu more; use --csv to export all)\n",
                total_signals - shown);
  }
  return 0;
}

int WriteOptionalOutputs(const LoadedCorpus& corpus,
                         const std::vector<PartialUpdateReport>& reports,
                         const ReportProvenance* provenance,
                         const Args& args) {
  std::string json_path = args.Get("json", "");
  if (!json_path.empty()) {
    Status status = WriteFileAtomically(json_path, [&](std::ostream* out) {
      return WriteDetectionReportsJson(reports, *corpus.taxonomy,
                                       *corpus.registry, out, provenance);
    });
    if (!status.ok()) return Fail(status);
    std::printf("JSON report written to %s\n", json_path.c_str());
  }
  std::string csv_path = args.Get("csv", "");
  if (!csv_path.empty()) {
    std::vector<std::pair<const PartialUpdateReport*, std::string>> rows;
    for (const PartialUpdateReport& report : reports) {
      rows.push_back({&report, report.pattern.ToString(*corpus.taxonomy)});
    }
    Status status = WriteFileAtomically(csv_path, [&](std::ostream* out) {
      return WriteSignalsCsv(rows, *corpus.registry, out);
    });
    if (!status.ok()) return Fail(status);
    std::printf("CSV written to %s\n", csv_path.c_str());
  }
  return 0;
}

int RunPack(const Args& args) {
  Result<LoadedCorpus> corpus = LoadCorpus(args);
  if (!corpus.ok()) return Fail(corpus.status());
  Result<std::string> out_path = args.Require("out");
  if (!out_path.ok()) return Fail(out_path.status());
  Result<int64_t> created_unix = args.GetInt("created-unix", 0);
  if (!created_unix.ok()) return Fail(created_unix.status());
  PatternSnapshot snapshot;
  Result<WindowSearchResult> result =
      RunSearch(*corpus, args, &snapshot.provenance);
  if (!result.ok()) return Fail(result.status());

  snapshot.provenance.corpus_id =
      args.Get("corpus-id", args.Get("dump", ""));
  snapshot.provenance.tool = "wiclean pack";
  snapshot.provenance.created_unix = *created_unix;
  for (const DiscoveredPattern& dp : result->patterns) {
    snapshot.patterns.push_back(StoredPattern{dp.mined.pattern,
                                              dp.mined.window,
                                              dp.mined.frequency,
                                              dp.mined.support, dp.threshold});
  }
  Status status = SaveSnapshotFile(snapshot, *corpus->taxonomy, *out_path);
  if (!status.ok()) return Fail(status);
  // Verify the artifact is loadable before declaring success.
  Result<PatternSnapshot> reloaded =
      LoadSnapshotFile(*out_path, *corpus->taxonomy);
  if (!reloaded.ok()) return Fail(reloaded.status());
  std::printf("packed %zu pattern(s) into %s\n", snapshot.patterns.size(),
              out_path->c_str());
  return 0;
}

/// Shared online path of `wiclean serve` and `wiclean detect --online 1`:
/// replays the corpus's revision log through a multi-tenant DetectorService
/// against the packed patterns. One tenant replaying the full stream is the
/// classic one-shot session; --tenants staggers additional sessions along
/// the feed, and --reload hot-swaps further snapshot files mid-feed (tenants
/// opened later pin the newer epoch — in-flight ones are untouched).
struct OnlineArgs {
  DetectorServiceOptions options;
  size_t num_tenants = 1;
  size_t max_print = 20;
};

Result<OnlineArgs> ParseOnlineArgs(const Args& args) {
  OnlineArgs parsed;
  DetectorServiceOptions& options = parsed.options;
  WICLEAN_ASSIGN_OR_RETURN(int64_t feed_threads,
                           args.GetInt("feed-threads", 1, 1));
  options.shards_per_tenant = static_cast<size_t>(feed_threads);
  WICLEAN_ASSIGN_OR_RETURN(options.detector.allowed_skew,
                           args.GetInt("allowed-skew", 0, 0));
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_tenants,
                           args.GetInt("max-tenants", 64, 1));
  options.max_tenants = static_cast<size_t>(max_tenants);
  // Default 0 = block on backpressure: the faithful batch-replay mode. A
  // positive deadline turns sustained overload into explicit shed events.
  WICLEAN_ASSIGN_OR_RETURN(options.feed_deadline_ms,
                           args.GetInt("feed-deadline-ms", 0));
  WICLEAN_ASSIGN_OR_RETURN(int64_t queue_capacity,
                           args.GetInt("queue-capacity", 256, 1));
  options.tenant_queue_capacity = static_cast<size_t>(queue_capacity);
  WICLEAN_ASSIGN_OR_RETURN(int64_t num_tenants, args.GetInt("tenants", 1, 1));
  parsed.num_tenants = static_cast<size_t>(num_tenants);
  WICLEAN_ASSIGN_OR_RETURN(int64_t max_print,
                           args.GetInt("max-print", 20, 0));
  parsed.max_print = static_cast<size_t>(max_print);
  return parsed;
}

int RunOnline(const LoadedCorpus& corpus, const PatternSnapshot& snapshot,
              const Args& args) {
  Result<OnlineArgs> online = ParseOnlineArgs(args);
  if (!online.ok()) return Fail(online.status());
  DetectorServiceOptions& options = online->options;
  options.detector.detector.max_abstraction_lift =
      snapshot.provenance.max_abstraction_lift;
  const size_t num_tenants = online->num_tenants;
  std::vector<std::string> reload_paths;
  for (const std::string& part : SplitString(args.Get("reload", ""), ',')) {
    if (!part.empty()) reload_paths.push_back(part);
  }

  std::vector<std::pair<Action, uint64_t>> feed =
      BuildCanonicalFeed(*corpus.registry, corpus.store);

  DetectorService service(corpus.registry.get(), options);
  service.PublishSnapshot(snapshot);

  // Schedule: tenant i opens at feed fraction i/N (tenant 0 sees the whole
  // stream and is the one whose report is printed); reload j publishes at
  // fraction (j+1)/(k+1). Feeding is index-driven so runs are reproducible.
  struct OpenTenant {
    TenantId id = 0;
    uint64_t fed = 0;
    uint64_t shed = 0;
  };
  std::vector<OpenTenant> tenants;
  std::vector<size_t> open_at(num_tenants, 0);
  for (size_t i = 0; i < open_at.size(); ++i) {
    open_at[i] = feed.size() * i / num_tenants;
  }
  std::vector<size_t> reload_at(reload_paths.size(), 0);
  for (size_t j = 0; j < reload_paths.size(); ++j) {
    reload_at[j] = feed.size() * (j + 1) / (reload_paths.size() + 1);
  }

  size_t next_open = 0;
  size_t next_reload = 0;
  uint64_t reloads_done = 0;
  Timer wall;
  for (size_t i = 0; i <= feed.size(); ++i) {
    while (next_reload < reload_at.size() && reload_at[next_reload] <= i) {
      Result<EpochId> epoch =
          service.PublishSnapshotFile(reload_paths[next_reload]);
      if (!epoch.ok()) {
        // A bad reload (missing/corrupt file) is contained: the previous
        // epoch keeps serving every tenant, including ones not yet opened.
        std::fprintf(stderr, "reload %s rejected: %s\n",
                     reload_paths[next_reload].c_str(),
                     epoch.status().ToString().c_str());
      } else {
        ++reloads_done;
        std::fprintf(stderr, "reload %s published as epoch %llu at event %zu\n",
                     reload_paths[next_reload].c_str(),
                     static_cast<unsigned long long>(*epoch), i);
      }
      ++next_reload;
    }
    while (next_open < open_at.size() && open_at[next_open] <= i) {
      Result<TenantId> id = service.OpenSession();
      if (!id.ok()) return Fail(id.status());
      tenants.push_back(OpenTenant{*id, 0, 0});
      ++next_open;
    }
    if (i == feed.size()) break;
    for (OpenTenant& t : tenants) {
      // Explicit canonical sequence: the pre-sort entity-log rank, not the
      // feed index — keeps (time, sequence) tie-breaking identical to the
      // batch path even if the canonical ordering ever changes.
      switch (service.Feed(t.id, feed[i].first, feed[i].second)) {
        case FeedResult::kOk:
          ++t.fed;
          break;
        case FeedResult::kOverloaded:
          ++t.shed;
          break;
        case FeedResult::kQuarantined: {
          Result<QuarantineCause> cause = service.cause(t.id);
          return Fail(Status::Internal(
              "tenant " + std::to_string(t.id) + " quarantined: " +
              (cause.ok() ? cause->ToString() : cause.status().ToString())));
        }
        case FeedResult::kUnknownTenant:
          return Fail(Status::Internal("tenant vanished mid-feed"));
      }
    }
  }

  std::vector<TenantReport> closed;
  for (const OpenTenant& t : tenants) {
    Result<TenantReport> report = service.CloseSession(t.id);
    if (!report.ok()) return Fail(report.status());
    closed.push_back(std::move(report).value());
  }
  double seconds = wall.ElapsedSeconds();

  const TenantReport& primary = closed.front();
  std::fprintf(stderr,
               "served %llu event(s) on %zu shard thread(s) in %.3fs "
               "(%.0f actions/s), %llu pattern(s) finalized, %llu alert(s)\n",
               static_cast<unsigned long long>(primary.session.events_fed),
               options.shards_per_tenant, seconds,
               seconds > 0
                   ? static_cast<double>(primary.session.events_fed) / seconds
                   : 0.0,
               static_cast<unsigned long long>(
                   primary.session.stats.patterns_finalized),
               static_cast<unsigned long long>(
                   primary.session.stats.alerts_with_partials));
  if (closed.size() > 1 || reloads_done > 0) {
    for (const TenantReport& tr : closed) {
      std::fprintf(stderr,
                   "  tenant %llu: epoch %llu, %llu event(s) fed, "
                   "%llu shed, %llu alert(s)\n",
                   static_cast<unsigned long long>(tr.tenant),
                   static_cast<unsigned long long>(tr.epoch),
                   static_cast<unsigned long long>(tr.session.events_fed),
                   static_cast<unsigned long long>(tr.session.events_shed),
                   static_cast<unsigned long long>(
                       tr.session.stats.alerts_with_partials));
    }
    SnapshotRegistryStats rs = service.registry_stats();
    std::fprintf(stderr,
                 "  epochs: %llu published, %llu retired, %llu freed, "
                 "%zu live\n",
                 static_cast<unsigned long long>(rs.epochs_published),
                 static_cast<unsigned long long>(rs.epochs_retired),
                 static_cast<unsigned long long>(rs.snapshots_freed),
                 rs.live_epochs);
  }

  std::vector<PartialUpdateReport> reports;
  reports.reserve(primary.session.alerts.size());
  for (const OnlineAlert& alert : primary.session.alerts) {
    // Single-action patterns cannot signal errors; the batch CLI path skips
    // them too, so both modes report the same pattern set.
    if (alert.report.pattern.num_actions() < 2) continue;
    reports.push_back(alert.report);
  }
  int rc = PrintReports(corpus, reports, online->max_print);
  if (rc != 0) return rc;
  ReportProvenance provenance = ToReportProvenance(snapshot.provenance);
  return WriteOptionalOutputs(corpus, reports, &provenance, args);
}

int RunServe(const Args& args) {
  Result<LoadedCorpus> corpus =
      LoadCorpus(args, /*require_seed_type=*/false);
  if (!corpus.ok()) return Fail(corpus.status());
  Result<std::string> patterns_path = args.Require("patterns");
  if (!patterns_path.ok()) return Fail(patterns_path.status());
  Result<PatternSnapshot> snapshot =
      LoadSnapshotFile(*patterns_path, *corpus->taxonomy);
  if (!snapshot.ok()) return Fail(snapshot.status());
  return RunOnline(*corpus, *snapshot, args);
}

int RunSynth(const Args& args) {
  Result<std::string> out_dir = args.Require("out-dir");
  if (!out_dir.ok()) return Fail(out_dir.status());
  std::error_code ec;
  std::filesystem::create_directories(*out_dir, ec);
  if (ec) {
    return Fail(Status::Internal("cannot create directory " + *out_dir +
                                 ": " + ec.message()));
  }

  Result<int64_t> seeds = args.GetInt("seeds", 300, 0);
  if (!seeds.ok()) return Fail(seeds.status());
  Result<int64_t> years =
      args.GetInt("years", 2, 0, std::numeric_limits<int>::max());
  if (!years.ok()) return Fail(years.status());
  Result<int64_t> rng_seed = args.GetInt("rng-seed", 42, 0);
  if (!rng_seed.ok()) return Fail(rng_seed.status());
  SynthOptions options;
  options.seed_entities = static_cast<size_t>(*seeds);
  options.years = static_cast<int>(*years);
  options.rng_seed = static_cast<uint64_t>(*rng_seed);
  std::string domains = args.Get("domains", "soccer");
  options.soccer = domains.find("soccer") != std::string::npos;
  options.cinema = domains.find("cinema") != std::string::npos;
  options.politics = domains.find("politics") != std::string::npos;
  options.software = domains.find("software") != std::string::npos;

  Result<SynthWorld> world = Synthesize(options);
  if (!world.ok()) return Fail(world.status());

  // The three files are one world: each goes to its temp file first, and
  // they are committed only once all three closed cleanly, so a failed run
  // leaves an earlier world's files as they were and no temp file.
  const std::string base = *out_dir + "/";
  const std::string paths[] = {base + "taxonomy.tsv", base + "alignment.tsv",
                               base + "dump.xml"};
  Status status = WriteTempFile(paths[0], [&](std::ostream* out) {
    return WriteTaxonomy(*world->taxonomy, out);
  });
  if (status.ok()) {
    status = WriteTempFile(paths[1], [&](std::ostream* out) {
      return WriteAlignment(*world->registry, out);
    });
  }
  if (status.ok()) {
    status = WriteTempFile(paths[2], [&](std::ostream* out) {
      return WriteDump(*world, 0,
                       static_cast<Timestamp>(options.years) * kSecondsPerYear,
                       out);
    });
  }
  for (const std::string& path : paths) {
    if (status.ok()) {
      status = CommitFile(path + ".tmp", path);
    } else {
      std::remove((path + ".tmp").c_str());
    }
  }
  if (!status.ok()) return Fail(status);
  std::printf("wrote %staxonomy.tsv, %salignment.tsv, %sdump.xml\n",
              base.c_str(), base.c_str(), base.c_str());
  std::printf("try: wiclean mine --dump %sdump.xml --taxonomy %staxonomy.tsv "
              "--alignment %salignment.tsv --seed-type soccer_player\n",
              base.c_str(), base.c_str(), base.c_str());
  return 0;
}

/// `wiclean ingest`: runs the XML parse/diff pipeline once with an
/// ActionLogWriter as the sole sink, producing a WCAL action log that
/// mine/detect/pack/serve can replay via --action-log without re-parsing.
int RunIngest(const Args& args) {
  Result<LoadedAlignment> aligned = LoadAlignmentFiles(args);
  if (!aligned.ok()) return Fail(aligned.status());
  Result<IngestArgs> ingest_args = ParseIngestArgs(args);
  if (!ingest_args.ok()) return Fail(ingest_args.status());

  Result<std::string> dump_path = args.Require("dump");
  if (!dump_path.ok()) return Fail(dump_path.status());
  std::ifstream dump_file(*dump_path);
  if (!dump_file) {
    return Fail(Status::NotFound("cannot open dump file " + *dump_path));
  }
  Result<std::string> out_path = args.Require("out");
  if (!out_path.ok()) return Fail(out_path.status());
  Result<int64_t> block_actions = args.GetInt("block-actions", 4096, 0);
  if (!block_actions.ok()) return Fail(block_actions.status());

  // The log is written to a temp file and committed over --out only once
  // finished, so a failed ingest leaves an earlier log at --out intact.
  ActionLogWriterOptions writer_options;
  writer_options.target_block_actions = static_cast<size_t>(*block_actions);
  IngestStats stats;
  uint64_t actions_written = 0;
  Status written =
      WriteFileAtomically(*out_path, [&](std::ostream* out) -> Status {
    ActionLogWriter writer(out, writer_options);
    WICLEAN_RETURN_IF_ERROR(writer.status());
    XmlPageSource source(&dump_file);
    WICLEAN_ASSIGN_OR_RETURN(
        stats, RunIngestPipeline(&source, *aligned->registry, &writer,
                                 ingest_args->ToIngestOptions()));
    WICLEAN_RETURN_IF_ERROR(writer.Finish());
    stats.log_write_seconds = writer.write_seconds();
    stats.log_blocks = writer.blocks_written();
    actions_written = writer.actions_written();
    return Status::OK();
  });
  if (!written.ok()) return Fail(written);

  std::fprintf(stderr, "ingested (%zu thread%s): %s\n",
               ingest_args->num_threads,
               ingest_args->num_threads == 1 ? "" : "s",
               stats.ToString().c_str());
  std::printf("wrote %llu action(s) in %llu block(s) to %s\n",
              static_cast<unsigned long long>(actions_written),
              static_cast<unsigned long long>(stats.log_blocks),
              out_path->c_str());

  std::string stats_json = args.Get("stats-json", "");
  if (!stats_json.empty()) {
    Status status =
        WriteFileAtomically(stats_json, [&](std::ostream* out) -> Status {
      JsonWriter w(out, /*pretty=*/true);
      w.BeginObject();
      w.Key("action_log");
      w.String(*out_path);
      w.Key("threads");
      w.Int(static_cast<int64_t>(ingest_args->num_threads));
      w.Key("pages");
      w.Int(static_cast<int64_t>(stats.pages));
      w.Key("revisions");
      w.Int(static_cast<int64_t>(stats.revisions));
      w.Key("actions");
      w.Int(static_cast<int64_t>(stats.actions));
      w.Key("unknown_pages");
      w.Int(static_cast<int64_t>(stats.unknown_pages));
      w.Key("unresolved_links");
      w.Int(static_cast<int64_t>(stats.unresolved_links));
      w.Key("pages_skipped");
      w.Int(static_cast<int64_t>(stats.pages_skipped));
      w.Key("revisions_skipped");
      w.Int(static_cast<int64_t>(stats.revisions_skipped));
      w.Key("regions_skipped");
      w.Int(static_cast<int64_t>(stats.regions_skipped));
      w.Key("quarantined");
      w.Int(static_cast<int64_t>(stats.quarantined));
      w.Key("log_blocks");
      w.Int(static_cast<int64_t>(stats.log_blocks));
      w.Key("read_seconds");
      w.Number(stats.read_seconds);
      w.Key("parse_seconds");
      w.Number(stats.parse_seconds);
      w.Key("merge_seconds");
      w.Number(stats.merge_seconds);
      w.Key("log_write_seconds");
      w.Number(stats.log_write_seconds);
      w.EndObject();
      return Status::OK();
    });
    if (!status.ok()) return Fail(status);
    std::printf("stats JSON written to %s\n", stats_json.c_str());
  }
  return 0;
}

int RunMine(const Args& args) {
  Result<LoadedCorpus> corpus = LoadCorpus(args);
  if (!corpus.ok()) return Fail(corpus.status());
  Result<WindowSearchResult> result = RunSearch(*corpus, args);
  if (!result.ok()) return Fail(result.status());

  std::fputs(RenderSearchSummary(*result, *corpus->taxonomy).c_str(), stdout);

  std::string json_path = args.Get("json", "");
  if (!json_path.empty()) {
    Status status = WriteFileAtomically(json_path, [&](std::ostream* out) {
      return WriteSearchReportJson(*result, *corpus->taxonomy,
                                   corpus->registry.get(), out);
    });
    if (!status.ok()) return Fail(status);
    std::printf("JSON report written to %s\n", json_path.c_str());
  }
  return 0;
}

int RunDetect(const Args& args) {
  // Checked before the corpus loads, so a bad value fails fast.
  Result<int64_t> max_print = args.GetInt("max-print", 20, 0);
  if (!max_print.ok()) return Fail(max_print.status());
  std::string patterns_path = args.Get("patterns", "");
  std::string online = args.Get("online", "");
  bool use_online = online == "1" || online == "true";
  if (use_online && patterns_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--online requires --patterns SNAPSHOT (run 'wiclean pack' first)"));
  }

  Result<LoadedCorpus> corpus =
      LoadCorpus(args, /*require_seed_type=*/patterns_path.empty());
  if (!corpus.ok()) return Fail(corpus.status());

  // Assemble the pattern set: either the packed snapshot, or mine inline.
  PatternSnapshot snapshot;
  if (!patterns_path.empty()) {
    Result<PatternSnapshot> loaded =
        LoadSnapshotFile(patterns_path, *corpus->taxonomy);
    if (!loaded.ok()) return Fail(loaded.status());
    snapshot = std::move(loaded).value();
  } else {
    Result<WindowSearchResult> result =
        RunSearch(*corpus, args, &snapshot.provenance);
    if (!result.ok()) return Fail(result.status());
    snapshot.provenance.corpus_id = args.Get("dump", "");
    snapshot.provenance.tool = "wiclean detect";
    for (const DiscoveredPattern& dp : result->patterns) {
      snapshot.patterns.push_back(
          StoredPattern{dp.mined.pattern, dp.mined.window,
                        dp.mined.frequency, dp.mined.support, dp.threshold});
    }
  }

  if (use_online) return RunOnline(*corpus, snapshot, args);

  PartialDetectorOptions detector_options;
  detector_options.max_abstraction_lift =
      snapshot.provenance.max_abstraction_lift;
  PartialUpdateDetector detector(corpus->registry.get(), &corpus->store,
                                 detector_options);

  std::vector<PartialUpdateReport> reports;
  for (const StoredPattern& sp : snapshot.patterns) {
    if (sp.pattern.num_actions() < 2) continue;
    Result<PartialUpdateReport> report =
        detector.Detect(sp.pattern, sp.window);
    if (!report.ok()) return Fail(report.status());
    reports.push_back(std::move(report).value());
  }

  int rc = PrintReports(*corpus, reports, static_cast<size_t>(*max_print));
  if (rc != 0) return rc;
  ReportProvenance provenance = ToReportProvenance(snapshot.provenance);
  return WriteOptionalOutputs(*corpus, reports, &provenance, args);
}

int Usage() {
  std::fprintf(stderr,
               "usage: wiclean <synth|ingest|mine|detect|pack|serve> "
               "[--flag value ...]\n"
               "  synth  --out-dir DIR [--seeds N] [--years N] "
               "[--domains soccer,cinema,politics,software] [--rng-seed S]\n"
               "  ingest --dump F --taxonomy F --alignment F --out F.wcal\n"
               "         [--stats-json F] [--block-actions N] [--threads N] "
               "[ingest flags]\n"
               "         parse/diff the dump once into a WCAL binary action "
               "log; later runs\n"
               "         pass --action-log F.wcal instead of --dump to "
               "replay it (no XML,\n"
               "         no wikitext, identical store at any --threads)\n"
               "  mine   --dump F --taxonomy F --alignment F --seed-type T "
               "[--threshold X] [--json F] [--threads N] [--mine-threads N] "
               "[--profile-workingset 1] [ingest flags]\n"
               "         --mine-threads parallelizes candidate evaluation "
               "(output invariant);\n"
               "         --profile-workingset adds per-kernel touched-bytes "
               "and table\n"
               "         birth/death counters to the report's stats JSON\n"
               "  detect --dump F --taxonomy F --alignment F --seed-type T "
               "[--threshold X] [--csv F] [--json F] [--max-print N] "
               "[--threads N] [ingest flags]\n"
               "         [--patterns SNAPSHOT [--online 1]]  use packed "
               "patterns; --online replays\n"
               "         the revision log through the incremental detector "
               "(same alerts)\n"
               "  pack   --dump F --taxonomy F --alignment F --seed-type T "
               "--out SNAPSHOT\n"
               "         [--threshold X] [--corpus-id ID] [--created-unix S] "
               "mine + write the\n"
               "         versioned, checksummed binary pattern snapshot\n"
               "  serve  --dump F --taxonomy F --alignment F "
               "--patterns SNAPSHOT\n"
               "         [--feed-threads N] [--allowed-skew S] [--json F] "
               "stream the corpus\n"
               "         through the multi-tenant online detector service\n"
               "         [--tenants N]          stagger N sessions along the "
               "feed (default 1)\n"
               "         [--reload F2,F3]       hot-swap snapshot files at "
               "evenly spaced feed\n"
               "             points; open sessions keep their pinned epoch, "
               "corrupt files are\n"
               "             rejected while the old epoch keeps serving\n"
               "         [--max-tenants N]      admission cap (default 64)\n"
               "         [--feed-deadline-ms D] shed load after D ms of "
               "backpressure instead\n"
               "             of blocking (default 0 = block: faithful batch "
               "replay)\n"
               "         [--queue-capacity N]   per-tenant shard queue quota "
               "(default 256)\n"
               "--threads parallelizes dump parse/diff ingestion; output is\n"
               "identical to --threads 1. The ingested: line on stderr "
               "reports per-stage (read/parse/merge) times.\n"
               "mine/detect/pack/serve accept --action-log F.wcal in place "
               "of --dump.\n"
               "ingest flags (fault tolerance):\n"
               "  --on-error strict|skip|quarantine   fault policy "
               "(default strict: fail fast)\n"
               "  --quarantine-dir DIR   where 'quarantine' writes skipped "
               "input (required then)\n"
               "  --max-revision-bytes N --max-revisions-per-page N\n"
               "  --max-actions-per-page N --max-infobox-depth N\n"
               "      resource guards; 0 (default) = unlimited. Breaches "
               "follow --on-error.\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Result<Args> args = Args::Parse(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  std::string_view command = argv[1];
  if (command == "synth") return RunSynth(*args);
  if (command == "ingest") return RunIngest(*args);
  if (command == "mine") return RunMine(*args);
  if (command == "detect") return RunDetect(*args);
  if (command == "pack") return RunPack(*args);
  if (command == "serve") return RunServe(*args);
  return Usage();
}

}  // namespace
}  // namespace wiclean

int main(int argc, char** argv) { return wiclean::Main(argc, argv); }
