// ingest: a large multi-domain dump (soccer, cinema, politics, software)
// ingested from XML into a finished WCAL, which is then opened cold and
// replayed into fresh RevisionStores, repeatedly. dump/wikitext parse and
// diff do most of the work; no mining or serving runs.

#include <fstream>

#include "inputs.h"
#include "log/action_log_reader.h"
#include "workload_common.h"
#include "workloads.h"

namespace wcbench {

using namespace wiclean;

namespace {

constexpr int kSetupRepeats = 25;
/// Cold replays after each XML ingest pass.
constexpr int kReplaysPerPass = 4;

}  // namespace

WorkloadResult RunIngest(const WorkloadContext& ctx) {
  WorkloadResult r;
  Tracer& tr = *ctx.tracer;
  const std::string dump_path = JoinPath(ctx.data_dir, kDumpFile);
  const std::string wcal_path = ctx.scratch_dir + "/ingest.wcal";

  Alignment al;
  std::vector<double> setup_s;
  Status loaded =
      LoadAlignmentTimed(ctx.data_dir, kSetupRepeats, &al, &setup_s);
  if (!loaded.ok()) return Failed(loaded);
  const EntityRegistry& registry = *al.registry;
  const uint64_t xml_bytes = FileBytes(dump_path);

  // One reader thread plus parse/diff workers fill the machine; replay uses
  // the same width for block decode.
  const size_t threads = ctx.nproc > 1 ? ctx.nproc - 1 : 1;
  r.info["ingest_threads"] = std::to_string(threads);
  r.info["replay_threads"] = std::to_string(threads);

  std::vector<double> ingest_s, ingest_cpu_s, replay_cpu_s, write_s, read_s,
      parse_s, merge_s, open_s, replay_s, replay_only_s, decode_us;
  uint64_t first_digest = 0;
  bool have_digest = false;
  uint64_t actions = 0;
  LayerTotals totals;

  const Clock::time_point run_start = Clock::now();
  for (uint64_t pass = 0;
       pass == 0 || SecondsBetween(run_start, Clock::now()) < ctx.seconds;
       ++pass) {
    ctx.calibrator->Sample();
    ++r.attempted;
    auto root = tr.Open("bench", "ingest.pass", pass);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    XmlToWcal xml;
    Status ingested = IngestXmlToWcal(dump_path, wcal_path, registry, threads,
                                      &tr, pass, &xml);
    if (!ingested.ok()) return Failed(ingested);
    const IngestStats& ingest = xml.stats;
    write_s.push_back(xml.write_s);
    totals.log_blocks = static_cast<double>(xml.blocks);
    ingest_s.push_back(SecondsBetween(t0, Clock::now()));
    ingest_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    read_s.push_back(ingest.read_seconds);
    parse_s.push_back(ingest.parse_seconds);
    merge_s.push_back(ingest.merge_seconds);
    actions = ingest.actions;
    totals.AddIngest(ingest, xml_bytes);
    totals.log_bytes = static_cast<double>(FileBytes(wcal_path));

    for (int k = 0; k < kReplaysPerPass; ++k) {
      ++r.attempted;
      RevisionStore store;
      ReplayTiming timing;
      ReplayOptions options;
      options.num_threads = threads;
      Status s = ReplayInto(wcal_path, &store, &tr, pass, &timing, options);
      if (!s.ok()) return Failed(s);
      open_s.push_back(timing.open_s);
      replay_s.push_back(timing.total_s);
      replay_cpu_s.push_back(timing.cpu_s);
      replay_only_s.push_back(timing.total_s - timing.open_s);
      // Check, untimed: every replay digests like the first one.
      const uint64_t digest = StoreDigest(store, registry.size());
      if (!have_digest) {
        first_digest = digest;
        have_digest = true;
      } else if (digest != first_digest) {
        r.errors.push_back("replay digest differs from the first replay");
        ++r.failed;
      }
      if (store.num_actions() != actions) {
        r.errors.push_back("replayed store lost actions");
      }
    }
    root.End();

    if (tr.enabled()) {
      // Per-block decode latency, traced runs only.
      Result<ActionLogReader> reader = ActionLogReader::OpenFile(wcal_path);
      if (!reader.ok()) return Failed(reader.status());
      std::vector<Action> block;
      for (size_t b = 0; b < reader->num_blocks(); ++b) {
        block.clear();
        const Clock::time_point d0 = Clock::now();
        Status s = reader->DecodeBlock(b, &block);
        decode_us.push_back(1e6 * SecondsBetween(d0, Clock::now()));
        if (!s.ok()) return Failed(s);
      }
    }
  }

  const double ingest_median = Median(ingest_s);
  const double ingest_cpu = Median(ingest_cpu_s);
  const double n_actions = static_cast<double>(actions);
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["result_cpu_ms"] = 1e3 * ingest_cpu;
  r.e2e["actions_per_cpu_s"] = n_actions / ingest_cpu;
  r.e2e["replay_mactions_per_cpu_s"] = n_actions / Median(replay_cpu_s) / 1e6;

  r.report["ingest_s"] = ingest_median;
  r.report["ingest_mb_s"] =
      static_cast<double>(xml_bytes) / 1e6 / ingest_median;
  r.report["replay_mactions_s"] = n_actions / Median(replay_s) / 1e6;
  r.report["passes"] = static_cast<double>(ingest_s.size());

  r.layer["dump.ingest_s"] = ingest_median;
  r.layer["dump.read_s"] = Median(read_s);
  r.layer["dump.parse_s"] = Median(parse_s);
  r.layer["dump.merge_s"] = Median(merge_s);
  r.layer["log.write_s"] = Median(write_s);
  r.layer["log.open_s"] = Median(open_s);
  r.layer["log.replay_s"] = Median(replay_only_s);
  const Summary decode = Summarize(decode_us);
  r.layer["log.decode_block_us_p50"] = decode.p50;
  r.layer["log.decode_block_us_p99"] = decode.tail;
  totals.Emit(static_cast<double>(ingest_s.size()), &r.layer);

  r.info["passes"] = std::to_string(ingest_s.size());
  r.info["replays"] = std::to_string(replay_s.size());
  r.info["xml_bytes"] = std::to_string(xml_bytes);
  r.info["actions"] = std::to_string(actions);
  r.info["decode_block_samples"] = std::to_string(decode.n);
  r.info["decode_block_tail_pct"] = std::to_string(decode.tail_pct);
  return r;
}

}  // namespace wcbench
