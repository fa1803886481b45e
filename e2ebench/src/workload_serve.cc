// serve: an open loop against the multi-tenant DetectorService. One
// generator thread (this one) offers the canonical feed of a multi-domain
// corpus at fixed rates, split across 3 tenants with 1 shard each. Every
// session covers a short slice of its tenant's stream and is then closed,
// and a new session opens; the other snapshot is hot-swapped in at fixed
// intervals. Mining and XML ingest happened in the generator, outside any
// timed region.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <memory>
#include <tuple>

#include "core/partial.h"
#include "inputs.h"
#include "serve/detector_service.h"
#include "serve/pattern_store.h"
#include "workload_common.h"
#include "workloads.h"

namespace wcbench {

using namespace wiclean;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kCalibrationSamples = 5;
constexpr int kReplayRepeats = 60;
constexpr int kReplayWarmup = 250;
constexpr size_t kTenants = 3;
/// Events per session of tenant t: kSliceEvents * (3 + t) / 3, so the
/// tenants' session boundaries drift apart instead of closing together.
constexpr size_t kSliceEvents = 400;
/// The run has three phases. At the reference rate latencies are reported;
/// a saturation phase offers every event at once (closed loop) and gives
/// the service's throughput; the rest climbs a fixed ladder of rates, one
/// pass of the feed per rung, for the highest rate that meets the limits.
constexpr double kReferenceRate = 2000;
constexpr double kReferenceShare = 0.35;
constexpr double kSaturationRate = 1e12;
constexpr int kSaturationPasses = 3;
constexpr double kLadderRatio = 1.25;
/// A step passes when accept latency at its tail stays within this limit,
/// nothing is shed, and the generator's lag does not grow. The limit sits
/// above the longest session closes (100-300 ms on 4 hardware threads:
/// sessions over the start of the feed, where every baseline link lands at
/// once, finalize the most): the generator thread opens and closes
/// sessions itself, so a close delays the events due behind it.
constexpr double kAcceptTailLimitUs = 500000;
constexpr double kLagLimitS = 0.050;
constexpr double kAbortLagS = 1.0;
/// The other snapshot is published every this many offered events (every
/// 250 ms at the reference rate).
constexpr size_t kHotSwapEvents = 500;

enum class Kind { kA, kB };

/// One closed session, kept until the step's verification. Alerts are
/// reduced to their fingerprints at close, so that the run's memory is the
/// service's and not a pile of kept reports.
struct ClosedSession {
  size_t tenant = 0;
  size_t begin = 0;  // substream positions [begin, end)
  size_t end = 0;
  Kind kind = Kind::kA;
  std::vector<uint32_t> pattern_ids;
  std::vector<std::string> fingerprints;
};

struct StepResult {
  double rate = 0;
  bool passed = false;
  std::vector<double> accept_us, lag_s, result_ms, open_ms, close_ms,
      publish_ms;
  double feed_s = 0;
  uint64_t events = 0;
  double seconds = 0;  // wall time, final closes included
  double cpu_s = 0;    // process CPU time, every thread
  uint64_t shed = 0;
};

class ServeRun {
 public:
  ServeRun(const EntityRegistry* registry, DetectorService* service,
           const Feed* feed, const PatternSnapshot* a, const PatternSnapshot* b,
           std::string path_a, std::string path_b, Tracer* tracer,
           WorkloadResult* result)
      : registry_(registry),
        service_(service),
        feed_(feed),
        snapshots_{a, b},
        paths_{std::move(path_a), std::move(path_b)},
        tr_(*tracer),
        r_(*result) {
    for (size_t t = 0; t < kTenants; ++t) {
      for (size_t i = t; i < feed->size(); i += kTenants) {
        streams_[t].push_back(i);
      }
    }
  }

  /// Offers whole passes of the feed at `rate` until at least
  /// `min_seconds` have gone by, or until the generator's lag passes
  /// `abort_lag_s` (the rate cannot be sustained). Every open session is
  /// closed at the end.
  StepResult Step(double rate, double min_seconds, double abort_lag_s,
                  uint64_t step_id);

  /// Compares every session closed so far with batch Algorithm 3 over its
  /// slice and pinned epoch, then drops the kept fingerprints.
  void VerifyClosed();

  LayerTotals& totals() { return totals_; }

 private:
  struct Tenant {
    bool open = false;
    TenantId id = 0;
    Kind kind = Kind::kA;
    size_t pos = 0;    // next substream position to feed
    size_t begin = 0;  // first position of the open session
    Clock::time_point last_due;
  };

  size_t SliceLength(size_t t) const { return kSliceEvents * (3 + t) / 3; }
  bool Open(Tenant* tenant, StepResult* step);
  bool Close(size_t t, Tenant* tenant, StepResult* step);
  void CloseAll(StepResult* step);
  const std::vector<std::string>& Batch(size_t t, size_t begin, size_t end,
                                        Kind kind);

  const EntityRegistry* registry_;
  DetectorService* service_;
  const Feed* feed_;
  const PatternSnapshot* snapshots_[2];
  std::string paths_[2];
  Tracer& tr_;
  WorkloadResult& r_;
  std::vector<size_t> streams_[kTenants];
  Tenant tenants_[kTenants];
  Kind current_ = Kind::kA;
  std::vector<ClosedSession> closed_;
  std::map<std::tuple<size_t, size_t, size_t, int>, std::vector<std::string>>
      batch_cache_;
  LayerTotals totals_;
};

bool ServeRun::Open(Tenant* tenant, StepResult* step) {
  const Clock::time_point o0 = Clock::now();
  Result<TenantId> id = Status::Internal("not opened");
  {
    auto span = tr_.Open("serve", "OpenSession");
    id = service_->OpenSession();
    if (id.ok()) span.SetRequest(*id);
  }
  step->open_ms.push_back(1e3 * SecondsBetween(o0, Clock::now()));
  ++r_.attempted;
  if (!id.ok()) {
    r_.errors.push_back("OpenSession: " + id.status().ToString());
    ++r_.failed;
    return false;
  }
  tenant->open = true;
  tenant->id = *id;
  tenant->kind = current_;
  tenant->begin = tenant->pos;
  return true;
}

bool ServeRun::Close(size_t t, Tenant* tenant, StepResult* step) {
  const Clock::time_point c0 = Clock::now();
  Result<TenantReport> report = Status::Internal("not closed");
  {
    auto span = tr_.Open("serve", "CloseSession", tenant->id);
    report = service_->CloseSession(tenant->id);
  }
  const Clock::time_point c1 = Clock::now();
  step->close_ms.push_back(1e3 * SecondsBetween(c0, c1));
  step->result_ms.push_back(1e3 * SecondsBetween(tenant->last_due, c1));
  tenant->open = false;
  if (!report.ok()) {
    r_.errors.push_back("CloseSession: " + report.status().ToString());
    ++r_.failed;
    return false;
  }
  totals_.AddSession(report->session);
  ClosedSession closed{t, tenant->begin, tenant->pos, tenant->kind, {}, {}};
  for (const OnlineAlert& alert : report->session.alerts) {
    closed.pattern_ids.push_back(alert.pattern_id);
    closed.fingerprints.push_back(ReportFingerprint(alert.report));
  }
  closed_.push_back(std::move(closed));
  return true;
}

StepResult ServeRun::Step(double rate, double min_seconds, double abort_lag_s,
                          uint64_t step_id) {
  StepResult step;
  step.rate = rate;
  auto span = tr_.Open("bench", "serve.step", step_id);
  const Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const OpenLoop schedule(start, rate);
  const uint64_t n = feed_->size();
  bool healthy = true;
  double idle_s = 0;  // generator asleep until the next due time
  // Whole passes over the feed: every step sees the same mix of cheap and
  // expensive sessions, whatever its rate.
  for (uint64_t j = 0; healthy && (j % n != 0 || j == 0 ||
                                   SecondsBetween(start, Clock::now()) <
                                       min_seconds);
       ++j) {
    const Clock::time_point due = schedule.Due(j);
    const Clock::time_point w0 = Clock::now();
    OpenLoop::WaitUntil(due);
    idle_s += SecondsBetween(w0, Clock::now());
    const size_t i = j % n;
    // Hot-swap at fixed positions of every pass, and back to A at its
    // start, so each pass pins the same epochs to the same sessions.
    const bool swap = i == 0 ? current_ != Kind::kA : i % kHotSwapEvents == 0;
    if (swap) {
      current_ = current_ == Kind::kA ? Kind::kB : Kind::kA;
      const Clock::time_point p0 = Clock::now();
      Result<EpochId> epoch = Status::Internal("not published");
      {
        auto publish = tr_.Open("serve", "PublishSnapshotFile");
        epoch =
            service_->PublishSnapshotFile(paths_[static_cast<int>(current_)]);
      }
      step.publish_ms.push_back(1e3 * SecondsBetween(p0, Clock::now()));
      if (!epoch.ok()) {
        r_.errors.push_back("publish: " + epoch.status().ToString());
        return step;
      }
    }
    const size_t t = i % kTenants;
    Tenant& tenant = tenants_[t];
    tenant.pos = i / kTenants;
    if (!tenant.open && !Open(&tenant, &step)) return step;
    const auto& [action, sequence] = (*feed_)[i];
    const Clock::time_point send = Clock::now();
    step.lag_s.push_back(SecondsBetween(due, send));
    FeedResult fed = service_->Feed(tenant.id, action, sequence);
    while (fed == FeedResult::kOverloaded) {
      // Shed: delivered nowhere; retried so delivery stays exactly-once.
      ++step.shed;
      ++r_.failed;
      fed = service_->Feed(tenant.id, action, sequence);
    }
    const Clock::time_point accepted = Clock::now();
    step.feed_s += SecondsBetween(send, accepted);
    ++step.events;
    ++r_.attempted;
    if (fed != FeedResult::kOk) {
      r_.errors.push_back("feed refused");
      return step;
    }
    step.accept_us.push_back(1e6 * SecondsBetween(due, accepted));
    tenant.last_due = due;
    ++tenant.pos;
    const bool stream_done = i + kTenants >= n;
    if (stream_done || tenant.pos - tenant.begin >= SliceLength(t)) {
      if (!Close(t, &tenant, &step)) return step;
    }
    // A rate the system cannot absorb shows as lag that keeps growing; stop
    // offering it once the lag is far past any passing value.
    healthy = step.lag_s.back() < abort_lag_s;
  }
  CloseAll(&step);
  step.seconds = SecondsBetween(start, Clock::now());
  step.cpu_s = ProcessCpuSeconds() - cpu0;
  tr_.Attribute("serve", "Feed", step.feed_s);
  tr_.Attribute("idle", "OpenLoop::WaitUntil", idle_s);
  const Summary accept = Summarize(step.accept_us);
  step.passed = healthy && step.shed == 0 &&
                accept.tail <= kAcceptTailLimitUs &&
                !LagGrew(step.lag_s, kLagLimitS);
  totals_.shed += static_cast<double>(step.shed);
  totals_.retries += static_cast<double>(step.shed);
  return step;
}

void ServeRun::CloseAll(StepResult* step) {
  for (size_t t = 0; t < kTenants; ++t) {
    if (tenants_[t].open && !Close(t, &tenants_[t], step)) return;
  }
}

const std::vector<std::string>& ServeRun::Batch(size_t t, size_t begin,
                                                size_t end, Kind kind) {
  auto key = std::make_tuple(t, begin, end, static_cast<int>(kind));
  auto it = batch_cache_.find(key);
  if (it != batch_cache_.end()) return it->second;
  // The slice's events in canonical rank order make the batch store.
  std::vector<std::pair<uint64_t, const Action*>> events;
  for (size_t p = begin; p < end; ++p) {
    const auto& [action, rank] = (*feed_)[streams_[t][p]];
    events.emplace_back(rank, &action);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  RevisionStore store;
  for (const auto& [rank, action] : events) store.Add(*action);
  PartialDetectorOptions options;
  options.max_abstraction_lift = 1;
  PartialUpdateDetector batch(registry_, &store, options);
  std::vector<std::string> fingerprints;
  for (const StoredPattern& sp :
       snapshots_[static_cast<int>(kind)]->patterns) {
    Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
    fingerprints.push_back(report.ok() ? ReportFingerprint(*report)
                                       : "error:" + report.status().ToString());
  }
  return batch_cache_.emplace(key, std::move(fingerprints)).first->second;
}

void ServeRun::VerifyClosed() {
  for (const ClosedSession& s : closed_) {
    const std::vector<std::string>& expected =
        Batch(s.tenant, s.begin, s.end, s.kind);
    bool same = s.fingerprints.size() == expected.size();
    for (size_t i = 0; same && i < expected.size(); ++i) {
      same = s.pattern_ids[i] == i && s.fingerprints[i] == expected[i];
    }
    if (!same) {
      r_.errors.push_back("session over tenant " + std::to_string(s.tenant) +
                          " slice [" + std::to_string(s.begin) + "," +
                          std::to_string(s.end) +
                          ") differs from batch over its pinned epoch");
    }
  }
  closed_.clear();
}

}  // namespace

WorkloadResult RunServe(const WorkloadContext& ctx) {
  WorkloadResult r;
  Tracer& tr = *ctx.tracer;
  const std::string wcal_path = JoinPath(ctx.data_dir, kActionLogFile);
  const std::string path_a = JoinPath(ctx.data_dir, kSnapshotAFile);
  const std::string path_b = JoinPath(ctx.data_dir, kSnapshotBFile);

  DetectorServiceOptions options;
  options.max_tenants = kTenants;
  options.shards_per_tenant = 1;
  options.tenant_queue_capacity = 256;
  options.feed_deadline_ms = 50;
  options.detector.detector.max_abstraction_lift = 1;

  // Set-up: alignment, WCAL open + replay, snapshot load, service start and
  // first publish. Repeated; the last one serves.
  Alignment al;
  RevisionStore store;
  std::unique_ptr<DetectorService> service;
  PatternSnapshot snapshot_a, snapshot_b;
  std::vector<double> setup_s, open_s, replay_s, load_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    service.reset();
    auto span = tr.Open("bench", "serve.setup", k);
    const double cpu0 = ProcessCpuSeconds();
    Result<Alignment> loaded = LoadAlignmentDir(ctx.data_dir);
    if (!loaded.ok()) return Failed(loaded.status());
    al = std::move(loaded).value();
    store = RevisionStore();
    ReplayTiming timing;
    Status s = ReplayInto(wcal_path, &store, &tr, k, &timing);
    if (!s.ok()) return Failed(s);
    open_s.push_back(timing.open_s);
    replay_s.push_back(timing.total_s - timing.open_s);
    const Clock::time_point l0 = Clock::now();
    Result<PatternSnapshot> a = Status::Internal("not loaded");
    Result<PatternSnapshot> b = Status::Internal("not loaded");
    {
      auto load = tr.Open("serve", "LoadSnapshotFile", k);
      a = LoadSnapshotFile(path_a, *al.taxonomy);
      b = LoadSnapshotFile(path_b, *al.taxonomy);
    }
    if (!a.ok()) return Failed(a.status());
    if (!b.ok()) return Failed(b.status());
    load_s.push_back(SecondsBetween(l0, Clock::now()));
    snapshot_a = std::move(a).value();
    snapshot_b = std::move(b).value();
    service = std::make_unique<DetectorService>(al.registry.get(), options);
    {
      auto publish = tr.Open("serve", "PublishSnapshot", k);
      service->PublishSnapshot(snapshot_a);
    }
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  // The replay rate: repeated cold replays of the set-up's WCAL, after a
  // few untimed ones that warm the allocator and caches up.
  std::vector<double> replay_cpu_s;
  for (int k = 0; k < kReplayWarmup + kReplayRepeats; ++k) {
    RevisionStore fresh;
    ReplayTiming timing;
    Status s = ReplayInto(wcal_path, &fresh, nullptr, k, &timing);
    if (!s.ok()) return Failed(s);
    if (k >= kReplayWarmup) replay_cpu_s.push_back(timing.cpu_s);
  }

  const Feed feed = BuildCanonicalFeed(*al.registry, store);
  if (feed.size() < kTenants * kSliceEvents) {
    return Failed(Status::FailedPrecondition("serve corpus too small"));
  }
  const Clock::time_point run_start = Clock::now();
  ServeRun run(al.registry.get(), service.get(), &feed, &snapshot_a,
               &snapshot_b, path_a, path_b, &tr, &r);

  // Calibration samples: a few before the first step and one after every
  // step, when no session is open.
  for (int k = 0; k < kCalibrationSamples; ++k) ctx.calibrator->Sample();
  uint64_t step_id = 0;
  const StepResult reference = run.Step(
      kReferenceRate, kReferenceShare * ctx.seconds, kAbortLagS, step_id++);
  run.VerifyClosed();
  ctx.calibrator->Sample();
  StepResult saturation;
  for (int pass = 0; pass < kSaturationPasses; ++pass) {
    StepResult one = run.Step(kSaturationRate, 0,
                              std::numeric_limits<double>::infinity(),
                              step_id++);
    saturation.events += one.events;
    saturation.seconds += one.seconds;
    saturation.cpu_s += one.cpu_s;
    saturation.publish_ms.insert(saturation.publish_ms.end(),
                                 one.publish_ms.begin(), one.publish_ms.end());
    ctx.calibrator->Sample();
  }
  run.VerifyClosed();
  const double capacity_eps =
      static_cast<double>(saturation.events) / saturation.seconds;
  std::vector<double> publish_ms = reference.publish_ms;
  publish_ms.insert(publish_ms.end(), saturation.publish_ms.begin(),
                    saturation.publish_ms.end());
  double lag_max_s = 0;
  for (double lag : reference.lag_s) lag_max_s = std::max(lag_max_s, lag);
  double max_eps = reference.passed ? reference.rate : 0;
  int rungs = 0;
  for (double rate = kReferenceRate * kLadderRatio;
       reference.passed &&
       SecondsBetween(run_start, Clock::now()) < ctx.seconds;
       rate *= kLadderRatio, ++rungs) {
    const StepResult step = run.Step(rate, 0, kAbortLagS, step_id++);
    run.VerifyClosed();
    ctx.calibrator->Sample();
    publish_ms.insert(publish_ms.end(), step.publish_ms.begin(),
                      step.publish_ms.end());
    if (!step.passed) break;
    max_eps = rate;
  }
  if (!reference.passed) {
    r.errors.push_back("the reference rate itself fails the latency limit");
  }

  // Epoch lifecycle: nothing pinned, only the current epoch live, every
  // retired epoch's snapshot destroyed.
  const SnapshotRegistryStats epochs = service->registry_stats();
  if (epochs.outstanding_pins != 0 || epochs.live_epochs != 1 ||
      epochs.snapshots_freed != epochs.epochs_retired) {
    r.errors.push_back("retired epochs not freed");
  }
  LayerTotals& totals = run.totals();
  totals.epochs_published = static_cast<double>(epochs.epochs_published);
  totals.epochs_retired = static_cast<double>(epochs.epochs_retired);
  totals.epochs_freed = static_cast<double>(epochs.snapshots_freed);
  totals.patterns = static_cast<double>(snapshot_a.patterns.size());
  totals.snapshot_bytes = static_cast<double>(FileBytes(path_a));
  totals.actions_per_unit = store.num_actions();
  totals.log_bytes = static_cast<double>(FileBytes(wcal_path));

  const Summary accept = Summarize(reference.accept_us);
  const Summary result = Summarize(reference.result_ms);
  const Summary open = Summarize(reference.open_ms);
  const Summary close = Summarize(reference.close_ms);
  const Summary publish = Summarize(publish_ms);
  // The gated workloads' clock (CPU time, every thread) applied to this
  // lane: CPU per session at the reference rate, events per CPU-second at
  // saturation. The latencies users see are in the report below.
  const double n_actions = static_cast<double>(store.num_actions());
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["result_cpu_ms"] =
      reference.result_ms.empty()
          ? 0
          : 1e3 * reference.cpu_s /
                static_cast<double>(reference.result_ms.size());
  r.e2e["actions_per_cpu_s"] =
      static_cast<double>(saturation.events) / saturation.cpu_s;
  r.e2e["replay_mactions_per_cpu_s"] = n_actions / Median(replay_cpu_s) / 1e6;

  // The mean, not the median, of session result latency: sessions over the
  // start of the feed finalize for 100 ms and more while the rest close in
  // a few, so the median sits on the noisy edge between the two groups.
  const double result_mean_ms =
      reference.result_ms.empty()
          ? 0
          : std::accumulate(reference.result_ms.begin(),
                            reference.result_ms.end(), 0.0) /
                static_cast<double>(reference.result_ms.size());
  r.report["serve_max_eps"] = max_eps;
  r.report["serve_capacity_eps"] = capacity_eps;
  r.report["serve_accept_p50_us"] = accept.p50;
  r.report["serve_accept_p99_us"] = accept.tail;
  r.report["serve_result_p50_ms"] = result.p50;
  r.report["serve_result_mean_ms"] = result_mean_ms;
  r.report["serve_result_p99_ms"] = result.tail;
  r.report["serve_open_p99_ms"] = open.tail;

  r.layer["log.open_s"] = Median(open_s);
  r.layer["log.replay_s"] = Median(replay_s);
  r.layer["serve.snapshot_load_s"] = Median(load_s);
  r.layer["serve.publish_ms_p99"] = publish.tail;
  r.layer["serve.open_ms_p50"] = open.p50;
  r.layer["serve.feed_busy_s"] = reference.feed_s;
  r.layer["serve.generator_lag_ms_max"] = 1e3 * lag_max_s;
  r.layer["serve.max_eps"] = max_eps;
  r.layer["serve.close_ms_p50"] = close.p50;
  r.layer["serve.close_ms_p99"] = close.tail;
  totals.Emit(1, &r.layer);

  r.info["tenants"] = std::to_string(kTenants);
  r.info["shards_per_tenant"] = "1";
  r.info["feed_events"] = std::to_string(feed.size());
  r.info["patterns_a"] = std::to_string(snapshot_a.patterns.size());
  r.info["patterns_b"] = std::to_string(snapshot_b.patterns.size());
  r.info["reference_rate"] = std::to_string(kReferenceRate);
  r.info["accept_samples"] = std::to_string(accept.n);
  r.info["accept_tail_pct"] = std::to_string(accept.tail_pct);
  r.info["result_samples"] = std::to_string(result.n);
  r.info["result_tail_pct"] = std::to_string(result.tail_pct);
  r.info["open_samples"] = std::to_string(open.n);
  r.info["open_tail_pct"] = std::to_string(open.tail_pct);
  r.info["ladder_rungs"] = std::to_string(rungs);
  return r;
}

}  // namespace wcbench
