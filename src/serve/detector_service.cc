#include "serve/detector_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "serve/pattern_store.h"

namespace wiclean {

std::string QuarantineCause::ToString() const {
  std::string out = kind == Kind::kShardFailure ? "shard-failure" :
                                                  "stuck-shard";
  out += " on shard " + std::to_string(shard) + " after " +
         std::to_string(events_fed) + " event(s)";
  if (!status.ok()) out += ": " + status.ToString();
  return out;
}

DetectorService::DetectorService(const EntityRegistry* registry,
                                 DetectorServiceOptions options)
    : registry_(registry), options_(options) {
  if (options_.max_tenants == 0) options_.max_tenants = 1;
  if (options_.shards_per_tenant == 0) options_.shards_per_tenant = 1;
}

DetectorService::~DetectorService() = default;

void DetectorService::Tenant::RunShard(size_t s) {
  Shard& shard = *shards[s];
  FeedItem item;
  Timer busy;
  double busy_seconds = 0;
  for (;;) {
    if (s == fault.stall_shard &&
        shard.consumed.load(std::memory_order_relaxed) >= fault.stall_after) {
      // Injected wedge: park *before* the next Pop so the backlog visibly
      // piles up while the consumed heartbeat freezes — the signature the
      // watchdog keys on. Only a cancel releases the worker.
      while (!shard.queue.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      break;
    }
    if (!shard.queue.Pop(&item)) break;
    busy.Restart();
    Status status;
    if (s == fault.poison_shard &&
        shard.consumed.load(std::memory_order_relaxed) >= fault.poison_after) {
      status = Status::Internal("injected fault: shard " + std::to_string(s) +
                                " poisoned after " +
                                std::to_string(fault.poison_after) +
                                " event(s)");
    } else {
      status = shard.detector->Observe(item.action, item.sequence,
                                       &shard.alerts);
    }
    busy_seconds += busy.ElapsedSeconds();
    shard.consumed.fetch_add(1, std::memory_order_release);
    if (!status.ok()) {
      {
        MutexLock lock(&failure_mu);
        if (failure.status.ok()) {
          failure.shard = s;
          failure.status = std::move(status);
        }
      }
      // Cancel every queue, not just this shard's: the producer may be
      // blocked on any of them, and the tenant's merged output is lost.
      for (auto& other : shards) other->queue.Cancel();
      break;
    }
  }
  shard.busy_seconds = busy_seconds;
}

void DetectorService::Tenant::StopWorkers() {
  for (auto& shard : shards) shard->queue.Cancel();
  if (pool != nullptr) pool->Wait();
}

EpochId DetectorService::PublishSnapshot(PatternSnapshot snapshot) {
  return epochs_.Publish(std::move(snapshot));
}

Result<EpochId> DetectorService::PublishSnapshotFile(
    const std::string& path) {
  // Decode failures (truncation, bit flips, a half-written temp file) stop
  // here: the current epoch keeps serving untouched.
  WICLEAN_ASSIGN_OR_RETURN(
      PatternSnapshot snapshot,
      LoadSnapshotFile(path, registry_->taxonomy()));
  return epochs_.Publish(std::move(snapshot));
}

Result<TenantId> DetectorService::OpenSession() {
  return OpenSession(ShardFaultPlan{});
}

Result<TenantId> DetectorService::OpenSession(const ShardFaultPlan& fault) {
  {
    // Fast-fail before paying for LoadPatterns; re-checked at insert.
    MutexLock lock(&mu_);
    if (tenants_.size() >= options_.max_tenants) {
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "tenant limit reached (" + std::to_string(options_.max_tenants) +
          ")");
    }
  }
  WICLEAN_ASSIGN_OR_RETURN(SnapshotRef pin, epochs_.Acquire());

  auto tenant = std::make_shared<Tenant>();
  tenant->epoch = pin.epoch();
  tenant->fault = fault;
  // Build and start outside mu_: per-shard LoadPatterns over a large
  // snapshot (plus thread spawn) must not stall every other tenant's Feed
  // behind the table lock. On an early return the tenant destructor stops
  // the workers and the pin destructor releases the epoch.
  const size_t num_shards = options_.shards_per_tenant;
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>(options_.tenant_queue_capacity);
    OnlineDetectorOptions detector_options = options_.detector;
    detector_options.shard_index = s;
    detector_options.num_shards = num_shards;
    shard->detector =
        std::make_unique<OnlineDetector>(registry_, detector_options);
    WICLEAN_RETURN_IF_ERROR(shard->detector->LoadPatterns(pin.shared()));
    tenant->shards.push_back(std::move(shard));
  }
  tenant->pool = std::make_unique<ThreadPool>(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Tenant* raw = tenant.get();
    tenant->pool->Submit([raw, s] { raw->RunShard(s); });
  }
  {
    MutexLock tenant_lock(&tenant->mu);
    tenant->pin = std::move(pin);
  }
  {
    MutexLock lock(&mu_);
    if (tenants_.size() < options_.max_tenants) {
      tenant->id = ++next_tenant_;
      tenants_.emplace(tenant->id, tenant);
      sessions_opened_.fetch_add(1, std::memory_order_relaxed);
      return tenant->id;
    }
    sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  // Lost the re-check: a concurrent open took the last slot while this one
  // was loading. The tenant dies on return, outside mu_ (its destructor
  // joins the workers).
  return Status::ResourceExhausted(
      "tenant limit reached (" + std::to_string(options_.max_tenants) + ")");
}

std::shared_ptr<DetectorService::Tenant> DetectorService::FindTenant(
    TenantId id) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

void DetectorService::Quarantine(Tenant* t, QuarantineCause cause) {
  t->quarantined = true;
  cause.events_fed = t->events_fed;
  t->cause = std::move(cause);
  // Discards backlogs and joins the tenant's workers (a parked stalled
  // worker exits on seeing the cancel). Other tenants' queues are untouched
  // — containment is per-tenant by construction.
  t->StopWorkers();
  tenants_quarantined_.fetch_add(1, std::memory_order_relaxed);
}

FeedResult DetectorService::Feed(TenantId tenant, const Action& action) {
  return FeedInternal(tenant, action, /*has_sequence=*/false, 0);
}

FeedResult DetectorService::Feed(TenantId tenant, const Action& action,
                                 uint64_t sequence) {
  return FeedInternal(tenant, action, /*has_sequence=*/true, sequence);
}

FeedResult DetectorService::FeedInternal(TenantId tenant,
                                         const Action& action,
                                         bool has_sequence,
                                         uint64_t sequence) {
  std::shared_ptr<Tenant> t = FindTenant(tenant);
  if (t == nullptr) return FeedResult::kUnknownTenant;
  // feed_mu (held across the whole attempt) serializes this tenant's
  // producers and keeps its shards alive: CloseSession acquires it before
  // draining. t->mu is NOT held across the push — a producer parked on a
  // full queue must not wedge the watchdog or a concurrent close.
  MutexLock feed_lock(&t->feed_mu);
  {
    MutexLock lock(&t->mu);
    if (t->quarantined) return FeedResult::kQuarantined;
    // CloseSession can unlink and drain the tenant between FindTenant and
    // here; the tenant is then gone, not quarantined.
    if (t->closed) return FeedResult::kUnknownTenant;
    if (!has_sequence) sequence = t->events_fed;
  }
  Timer timer;
  const std::vector<std::unique_ptr<Shard>>& shards = t->shards;
  // A refused push means the queues were cancelled: a shard failed or the
  // watchdog quarantined the tenant.
  bool admitted = true;
  bool overloaded = false;
  size_t first = 0;
  if (options_.feed_deadline_ms > 0) {
    // Admission gate: the deadline applies at shard 0 only (see the class
    // comment); the remaining shards take blocking pushes.
    if (!shards[0]->queue.TryPushFor(
            FeedItem{action, sequence},
            std::chrono::milliseconds(options_.feed_deadline_ms))) {
      admitted = false;
      overloaded = !shards[0]->queue.cancelled();
    }
    first = 1;
  }
  for (size_t s = first; admitted && s < shards.size(); ++s) {
    admitted = shards[s]->queue.Push(FeedItem{action, sequence});
  }
  t->feed_seconds += timer.ElapsedSeconds();
  if (overloaded) ++t->events_shed;

  MutexLock lock(&t->mu);
  if (admitted) {
    ++t->events_fed;
    events_accepted_.fetch_add(1, std::memory_order_relaxed);
    return FeedResult::kOk;
  }
  if (overloaded) {
    events_shed_.fetch_add(1, std::memory_order_relaxed);
    return FeedResult::kOverloaded;
  }
  // The watchdog may have quarantined the tenant while this feed was
  // blocked on its queues; its structured cause wins.
  if (t->quarantined) return FeedResult::kQuarantined;
  QuarantineCause cause;
  {
    MutexLock failure_lock(&t->failure_mu);
    cause = t->failure;
  }
  Quarantine(t.get(), std::move(cause));
  return FeedResult::kQuarantined;
}

Result<TenantReport> DetectorService::CloseSession(TenantId tenant) {
  std::shared_ptr<Tenant> t;
  {
    // Unlink first so no new Feed can find the tenant mid-close.
    MutexLock table_lock(&mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant " + std::to_string(tenant));
    }
    t = std::move(it->second);
    tenants_.erase(it);
  }
  // feed_mu first: waits out any producer still feeding (a FindTenant from
  // before the unlink), so the drain below never runs concurrently with a
  // feed and the shards die with no one inside them.
  MutexLock feed_lock(&t->feed_mu);
  MutexLock tenant_lock(&t->mu);
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  t->closed = true;
  Result<SessionReport> drained = Drain(t.get());
  // Join the workers and free the detectors before dropping the pin, so a
  // retiring epoch's snapshot is freed right here.
  t->pool.reset();
  t->shards.clear();
  t->pin.Release();
  if (!drained.ok()) return drained.status();
  TenantReport report;
  report.tenant = t->id;
  report.epoch = t->epoch;
  report.session = std::move(drained).value();
  return report;
}

Result<SessionReport> DetectorService::Drain(Tenant* t) {
  if (t->quarantined) {
    return t->cause.status.ok()
               ? Status::Internal("tenant quarantined: " + t->cause.ToString())
               : t->cause.status;
  }
  for (auto& shard : t->shards) shard->queue.Close();
  t->pool->Wait();
  {
    // A shard that failed after the last feed is reported here instead.
    MutexLock failure_lock(&t->failure_mu);
    if (!t->failure.status.ok()) return t->failure.status;
  }
  SessionReport report;
  report.events_fed = t->events_fed;
  report.events_shed = t->events_shed;
  report.feed_seconds = t->feed_seconds;
  for (auto& shard : t->shards) {
    WICLEAN_RETURN_IF_ERROR(shard->detector->FinishStream(&shard->alerts));
    const OnlineDetectorStats& s = shard->detector->stats();
    report.stats.events_observed += s.events_observed;
    report.stats.events_matched += s.events_matched;
    report.stats.slot_hits += s.slot_hits;
    report.stats.late_events += s.late_events;
    report.stats.patterns_finalized += s.patterns_finalized;
    report.stats.alerts_with_partials += s.alerts_with_partials;
    report.stats.finalize_seconds += s.finalize_seconds;
    report.shard_busy_seconds.push_back(shard->busy_seconds);
    report.alerts.insert(report.alerts.end(),
                         std::make_move_iterator(shard->alerts.begin()),
                         std::make_move_iterator(shard->alerts.end()));
  }
  std::sort(report.alerts.begin(), report.alerts.end(),
            [](const OnlineAlert& a, const OnlineAlert& b) {
              return a.pattern_id < b.pattern_id;
            });
  return report;
}

size_t DetectorService::RunWatchdogScan() {
  watchdog_scans_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Tenant>> snapshot;
  {
    MutexLock table_lock(&mu_);
    snapshot.reserve(tenants_.size());
    for (auto& [id, tenant] : tenants_) snapshot.push_back(tenant);
  }
  size_t newly_quarantined = 0;
  for (auto& t : snapshot) {
    MutexLock tenant_lock(&t->mu);
    if (t->quarantined || t->closed) continue;
    const size_t shards = t->shards.size();
    t->last_consumed.resize(shards, 0);
    t->last_backlogged.resize(shards, false);
    size_t stuck_shard = ShardFaultPlan::kNoShard;
    for (size_t i = 0; i < shards; ++i) {
      const Shard& shard = *t->shards[i];
      const uint64_t consumed =
          shard.consumed.load(std::memory_order_acquire);
      const bool backlogged = shard.queue.size() > 0;
      // Stuck = work queued across two consecutive scans with a frozen
      // consumed heartbeat. The first scan only baselines.
      if (t->scanned_once && backlogged && t->last_backlogged[i] &&
          consumed == t->last_consumed[i] &&
          stuck_shard == ShardFaultPlan::kNoShard) {
        stuck_shard = i;
      }
      t->last_consumed[i] = consumed;
      t->last_backlogged[i] = backlogged;
    }
    t->scanned_once = true;
    if (stuck_shard != ShardFaultPlan::kNoShard) {
      QuarantineCause cause;
      cause.kind = QuarantineCause::Kind::kStuckShard;
      cause.shard = stuck_shard;
      cause.status = Status::Internal(
          "shard " + std::to_string(stuck_shard) +
          " made no progress across two watchdog scans with a non-empty "
          "backlog");
      Quarantine(t.get(), std::move(cause));
      ++newly_quarantined;
    }
  }
  return newly_quarantined;
}

Result<QuarantineCause> DetectorService::cause(TenantId tenant) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  MutexLock lock(&t->mu);
  if (!t->quarantined) {
    return Status::FailedPrecondition(
        "tenant " + std::to_string(tenant) + " is not quarantined");
  }
  return t->cause;
}

size_t DetectorService::num_tenants() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

DetectorServiceStats DetectorService::stats() const {
  DetectorServiceStats stats;
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_rejected =
      sessions_rejected_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.events_accepted = events_accepted_.load(std::memory_order_relaxed);
  stats.events_shed = events_shed_.load(std::memory_order_relaxed);
  stats.tenants_quarantined =
      tenants_quarantined_.load(std::memory_order_relaxed);
  stats.watchdog_scans = watchdog_scans_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace wiclean
