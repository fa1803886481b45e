#ifndef WICLEAN_SERVE_DETECTOR_SERVICE_H_
#define WICLEAN_SERVE_DETECTOR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "serve/detector_session.h"
#include "serve/online_detector.h"
#include "serve/snapshot_registry.h"

namespace wiclean {

/// Opaque handle of one serving session. Ids are never reused.
using TenantId = uint64_t;

/// Outcome of one Feed into the service.
enum class FeedResult {
  kOk,
  /// The tenant's queue quota stayed exhausted for the feed deadline; the
  /// event reached no shard. Retryable; other tenants are unaffected.
  kOverloaded,
  /// The tenant is quarantined (now or previously); the event was dropped.
  /// cause() has the structured reason. Terminal for this tenant.
  kQuarantined,
  /// No such tenant (never opened, or already closed).
  kUnknownTenant,
};

/// Structured reason a tenant was quarantined — kept queryable until the
/// tenant is closed, so operators can distinguish a detector failure from a
/// wedged consumer.
struct QuarantineCause {
  enum class Kind {
    /// A shard's detector returned an error (or panicked via fault
    /// injection); `status` carries it.
    kShardFailure,
    /// The watchdog saw the shard's backlog stay non-empty across two scans
    /// with a frozen consumed heartbeat.
    kStuckShard,
  };
  Kind kind = Kind::kShardFailure;
  size_t shard = 0;
  Status status = Status::OK();
  /// Events the tenant had successfully fed when quarantined.
  uint64_t events_fed = 0;

  std::string ToString() const;
};

struct DetectorServiceOptions {
  /// Admission cap: OpenSession fails with ResourceExhausted beyond this.
  size_t max_tenants = 64;
  /// Shards (worker threads) per tenant session.
  size_t shards_per_tenant = 1;
  /// Per-shard queue capacity of each tenant — the tenant's queue quota.
  size_t tenant_queue_capacity = 256;
  /// How long one Feed may wait on an exhausted quota before kOverloaded.
  /// <= 0 blocks indefinitely (no load shedding).
  int64_t feed_deadline_ms = 50;
  /// Detector options shared by every session (allowed_skew, join options).
  OnlineDetectorOptions detector;
};

/// What CloseSession returns for a healthy tenant.
struct TenantReport {
  TenantId tenant = 0;
  /// The snapshot epoch the session was pinned to for its whole lifetime.
  EpochId epoch = 0;
  SessionReport session;
};

/// Service-lifetime counters (monotonic).
struct DetectorServiceStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_rejected = 0;
  uint64_t sessions_closed = 0;
  uint64_t events_accepted = 0;
  uint64_t events_shed = 0;
  uint64_t tenants_quarantined = 0;
  uint64_t watchdog_scans = 0;
};

/// Long-running multi-tenant front-end of online detection. Each tenant is
/// one serving session: a stream of events broadcast to the tenant's
/// OnlineDetector shards, each shard with its own BoundedQueue and worker
/// thread. Every shard sees the whole stream and owns a disjoint slice of
/// the patterns (pattern-parallel, not data-parallel), so the merged alert
/// set is identical at any shard count.
///
///   - **Epoch hot-swap.** PublishSnapshot installs a new pattern snapshot
///     in the SnapshotRegistry without touching live traffic: sessions pin
///     the current epoch at OpenSession and keep it until closed, so a
///     reload never changes what an in-flight session detects, and a
///     corrupt snapshot file simply fails PublishSnapshotFile while the old
///     epoch keeps serving.
///   - **Admission control.** max_tenants bounds concurrent sessions;
///     each tenant's per-shard queue quota plus the feed deadline turns
///     overload into an explicit, deterministic kOverloaded instead of
///     unbounded queueing — and one slow tenant cannot displace others,
///     because quotas are per-tenant by construction. The deadline applies
///     at shard 0 only — the *admission gate*: shards have equal capacity
///     and get events in the same order from the tenant's one producer, so
///     shard 0 full for the whole deadline means the quota is exhausted.
///     Once shard 0 admits, the other shards take blocking pushes, so
///     acceptance is all-or-nothing (kOverloaded ⇒ the event reached no
///     shard). A stalled shard other than 0 is the watchdog's job.
///   - **Failure containment.** A shard failure aborts only its own
///     tenant; the service quarantines the tenant with a structured cause
///     and every other tenant's stream is untouched. RunWatchdogScan
///     (called on the operator's cadence) additionally quarantines tenants
///     whose shards are wedged: backlog non-empty across two consecutive
///     scans while the shard's consumed heartbeat stands still.
///
/// Thread-safety: everything is callable from any thread. The tenant table
/// is guarded by mu_; each tenant carries two mutexes with distinct jobs.
/// `feed_mu` serializes the tenant's producers (one logical stream per
/// tenant) and is the only lock held across a possibly-blocking queue push;
/// `mu` guards the tenant's state (quarantine flag, counters, heartbeat
/// baselines) and is only ever held briefly. The split is load-bearing: a
/// producer parked on a full queue (feed_deadline_ms <= 0, stuck shard)
/// holds only feed_mu, so RunWatchdogScan can still read the heartbeats,
/// quarantine the tenant, and — by cancelling its queues — wake that very
/// producer; with the state lock held across the push instead, the watchdog
/// could never reach the exact condition it exists to detect. Feeds of
/// different tenants never contend with each other (only with the table
/// lookup). Shard workers take neither lock: Quarantine joins them while
/// holding `mu`.
class DetectorService {
 public:
  /// `registry` (entities + taxonomy) must outlive the service.
  DetectorService(const EntityRegistry* registry,
                  DetectorServiceOptions options);
  ~DetectorService();

  DetectorService(const DetectorService&) = delete;
  DetectorService& operator=(const DetectorService&) = delete;

  /// Installs `snapshot` as the new current epoch; returns its id. Sessions
  /// already open keep their pinned epoch.
  EpochId PublishSnapshot(PatternSnapshot snapshot);

  /// Loads + validates a WCPS file, then publishes it. A half-written or
  /// corrupt file fails here and the previous epoch keeps serving.
  [[nodiscard]] Result<EpochId> PublishSnapshotFile(const std::string& path);

  /// Admits a new tenant pinned to the current epoch. Fails with
  /// ResourceExhausted at max_tenants and FailedPrecondition before the
  /// first publish. The fault-plan overload is the test harness's hook.
  [[nodiscard]] Result<TenantId> OpenSession() WC_EXCLUDES(mu_);
  [[nodiscard]] Result<TenantId> OpenSession(const ShardFaultPlan& fault)
      WC_EXCLUDES(mu_);

  /// Feeds one event into the tenant's stream (canonical sequence = feed
  /// order). A shard failure surfaces here: the tenant is quarantined.
  FeedResult Feed(TenantId tenant, const Action& action) WC_EXCLUDES(mu_);

  /// Feed with an explicit canonical sequence rank — for streams whose
  /// canonical order (e.g. pre-sort entity-log rank) is not the feed order.
  FeedResult Feed(TenantId tenant, const Action& action, uint64_t sequence)
      WC_EXCLUDES(mu_);

  /// Drains a healthy tenant and returns its merged report; releases the
  /// epoch pin (possibly retiring the epoch). For a quarantined tenant,
  /// returns the failure Status instead — query cause() first for the
  /// structured reason. Either way the tenant is gone afterwards.
  [[nodiscard]] Result<TenantReport> CloseSession(TenantId tenant)
      WC_EXCLUDES(mu_);

  /// One watchdog pass over all tenants; returns how many were newly
  /// quarantined for stuck shards. The caller owns the cadence — each scan
  /// compares against the previous one, so "stuck" means "no progress for
  /// one full scan interval with work queued".
  size_t RunWatchdogScan() WC_EXCLUDES(mu_);

  /// Structured quarantine cause; NotFound for unknown tenants,
  /// FailedPrecondition for healthy ones.
  [[nodiscard]] Result<QuarantineCause> cause(TenantId tenant) const
      WC_EXCLUDES(mu_);

  size_t num_tenants() const WC_EXCLUDES(mu_);
  SnapshotRegistryStats registry_stats() const { return epochs_.stats(); }
  DetectorServiceStats stats() const;

 private:
  struct FeedItem {
    Action action;
    uint64_t sequence = 0;
  };

  /// Everything one pattern shard owns. Until the tenant's pool is joined,
  /// its worker touches only this Shard and the tenant's failure slot, and
  /// other threads touch only the queue and the atomic heartbeat.
  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}
    BoundedQueue<FeedItem> queue;
    std::unique_ptr<OnlineDetector> detector;
    std::vector<OnlineAlert> alerts;
    double busy_seconds = 0;
    /// Heartbeat: events consumed, published after each Pop. Read lock-free
    /// by the watchdog while the worker runs.
    std::atomic<uint64_t> consumed{0};
  };

  struct Tenant {
    ~Tenant() { StopWorkers(); }

    /// Worker body of shard `s`: observes events until its queue closes or
    /// is cancelled, recording the first failure in the failure slot.
    void RunShard(size_t s) WC_EXCLUDES(failure_mu);
    /// Cancels every shard queue (discarding backlogs, waking a parked
    /// worker or a blocked producer) and joins the workers. Idempotent.
    void StopWorkers();

    TenantId id = 0;
    EpochId epoch = 0;     // immutable after open
    ShardFaultPlan fault;  // immutable after open
    /// Built by OpenSession before the tenant is published and destroyed
    /// only by CloseSession while it holds both feed_mu and mu — so
    /// producers (feed_mu) and the watchdog (mu) use them without a further
    /// lock.
    std::vector<std::unique_ptr<Shard>> shards;
    std::unique_ptr<ThreadPool> pool;

    /// Serializes this tenant's producers: Feed holds it (WITHOUT mu)
    /// across the possibly-blocking push, and CloseSession acquires it
    /// before draining, so the drain never runs concurrently with a feed.
    /// Never acquired while holding mu.
    Mutex feed_mu WC_ACQUIRED_BEFORE(mu);
    uint64_t events_shed WC_GUARDED_BY(feed_mu) = 0;
    double feed_seconds WC_GUARDED_BY(feed_mu) = 0;

    /// Guards this tenant's state. Held only briefly — never across a
    /// blocking queue push — so quarantine, close, and the watchdog's
    /// heartbeat reads always make progress. Distinct tenants never contend.
    Mutex mu;
    SnapshotRef pin WC_GUARDED_BY(mu);
    bool closed WC_GUARDED_BY(mu) = false;
    bool quarantined WC_GUARDED_BY(mu) = false;
    QuarantineCause cause WC_GUARDED_BY(mu);
    uint64_t events_fed WC_GUARDED_BY(mu) = 0;
    /// Watchdog state: last scan's per-shard heartbeat snapshot.
    bool scanned_once WC_GUARDED_BY(mu) = false;
    std::vector<uint64_t> last_consumed WC_GUARDED_BY(mu);
    std::vector<bool> last_backlogged WC_GUARDED_BY(mu);

    /// First shard failure (status and shard index), written by the failing
    /// worker before it cancels the queues — so a producer whose push was
    /// refused finds the cause here. Its own lock, because workers must
    /// never take mu.
    Mutex failure_mu;
    QuarantineCause failure WC_GUARDED_BY(failure_mu);
  };

  std::shared_ptr<Tenant> FindTenant(TenantId id) const WC_EXCLUDES(mu_);
  FeedResult FeedInternal(TenantId tenant, const Action& action,
                          bool has_sequence, uint64_t sequence)
      WC_EXCLUDES(mu_);
  /// Marks the tenant quarantined, cancels its queues and joins its
  /// workers. Callers must have checked `!t->quarantined`.
  void Quarantine(Tenant* t, QuarantineCause cause) WC_REQUIRES(t->mu);
  /// Closes the shard queues, lets every worker consume its backlog,
  /// finalizes the remaining patterns and merges the shard alerts. Fails
  /// with the quarantine cause or the first shard failure instead.
  Result<SessionReport> Drain(Tenant* t) WC_REQUIRES(t->feed_mu, t->mu);

  const EntityRegistry* registry_;
  DetectorServiceOptions options_;
  SnapshotRegistry epochs_;

  mutable Mutex mu_;
  /// Declared after epochs_, so on destruction every tenant stops its
  /// workers and releases its pin while the epoch table still exists.
  std::map<TenantId, std::shared_ptr<Tenant>> tenants_ WC_GUARDED_BY(mu_);
  TenantId next_tenant_ WC_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> events_accepted_{0};
  std::atomic<uint64_t> events_shed_{0};
  std::atomic<uint64_t> tenants_quarantined_{0};
  std::atomic<uint64_t> watchdog_scans_{0};
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_DETECTOR_SERVICE_H_
