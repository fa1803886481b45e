// Fault-injected serving tests: the resilience matrix of the multi-tenant
// DetectorService — {corrupt-snapshot reload, shard failure mid-stream,
// stalled tenant, reload-during-feed} × {1, 4 shards} — plus SnapshotRegistry
// epoch lifecycle units, admission-control behavior, and the hot-swap
// torture test the TSan CI lane runs: concurrent feeders across repeated
// snapshot publishes, every session's alerts differentially checked against
// a batch replay of its pinned epoch, every retired epoch verifiably freed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/timer.h"
#include "core/partial.h"
#include "core/window_search.h"
#include "serve/detector_service.h"
#include "serve/detector_session.h"
#include "serve/pattern_store.h"
#include "serve/snapshot_registry.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

// ---------------------------------------------------------------------------
// SnapshotRegistry epoch lifecycle.

PatternSnapshot TinySnapshot(TypeId player, const std::string& corpus_id) {
  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id = corpus_id;
  snapshot.provenance.tool = "serve_fault_test";
  Pattern p;
  int a = p.AddVar(player);
  int b = p.AddVar(player);
  EXPECT_TRUE(p.AddAction(EditOp::kAdd, a, "teammate", b).ok());
  EXPECT_TRUE(p.SetSourceVar(a).ok());
  snapshot.patterns.push_back(StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});
  return snapshot;
}

class SnapshotRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    player_ = *tax_.AddType("player", thing_);
  }

  TypeTaxonomy tax_;
  TypeId thing_, player_;
};

TEST_F(SnapshotRegistryTest, AcquireBeforePublishFails) {
  SnapshotRegistry registry;
  Result<SnapshotRef> ref = registry.Acquire();
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.stats().current_epoch, 0u);
}

TEST_F(SnapshotRegistryTest, PublishRetiresUnpinnedPredecessor) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Publish(TinySnapshot(player_, "e1")), 1u);
  EXPECT_EQ(registry.Publish(TinySnapshot(player_, "e2")), 2u);
  SnapshotRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.epochs_published, 2u);
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.snapshots_freed, 1u);
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.current_epoch, 2u);
}

TEST_F(SnapshotRegistryTest, PinKeepsRetiringEpochAliveUntilRelease) {
  SnapshotRegistry registry;
  registry.Publish(TinySnapshot(player_, "e1"));
  Result<SnapshotRef> ref = registry.Acquire();
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->epoch(), 1u);
  EXPECT_EQ(ref->snapshot().provenance.corpus_id, "e1");

  registry.Publish(TinySnapshot(player_, "e2"));
  // Epoch 1 is pinned: it survives the publish, and its payload is intact.
  SnapshotRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.live_epochs, 2u);
  EXPECT_EQ(stats.epochs_retired, 0u);
  EXPECT_EQ(stats.snapshots_freed, 0u);
  EXPECT_EQ(stats.outstanding_pins, 1u);
  EXPECT_EQ(ref->snapshot().provenance.corpus_id, "e1");

  ref->Release();
  stats = registry.stats();
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.snapshots_freed, 1u);
  EXPECT_EQ(stats.outstanding_pins, 0u);
  EXPECT_FALSE(ref->valid());
  ref->Release();  // idempotent
  EXPECT_EQ(registry.stats().epochs_retired, 1u);
}

TEST_F(SnapshotRegistryTest, SharedBorrowOutlivesReleasedPin) {
  SnapshotRegistry registry;
  registry.Publish(TinySnapshot(player_, "e1"));
  std::shared_ptr<const PatternSnapshot> borrowed;
  {
    Result<SnapshotRef> ref = registry.Acquire();
    ASSERT_TRUE(ref.ok());
    borrowed = ref->shared();
  }
  registry.Publish(TinySnapshot(player_, "e2"));
  // The epoch table entry retired, but the borrowed payload must not have
  // been freed while a shared handle is alive.
  SnapshotRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.snapshots_freed, 0u);
  EXPECT_EQ(borrowed->provenance.corpus_id, "e1");
  borrowed.reset();
  EXPECT_EQ(registry.stats().snapshots_freed, 1u);
}

TEST_F(SnapshotRegistryTest, MovedFromRefReleasesOnlyOnce) {
  SnapshotRegistry registry;
  registry.Publish(TinySnapshot(player_, "e1"));
  Result<SnapshotRef> acquired = registry.Acquire();
  ASSERT_TRUE(acquired.ok());
  SnapshotRef moved = std::move(acquired).value();
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(registry.stats().outstanding_pins, 1u);
  moved.Release();
  EXPECT_EQ(registry.stats().outstanding_pins, 0u);
}

// ---------------------------------------------------------------------------
// Shared world + two snapshot epochs for the service-level tests.

/// Order-normalized fingerprint of one pattern's detection result (same
/// shape as serve_test.cc's differential suite).
std::string Fingerprint(const PartialUpdateReport& report) {
  std::vector<std::string> sigs;
  for (const PartialRealization& pr : report.partials) {
    sigs.push_back(pr.Signature());
  }
  std::sort(sigs.begin(), sigs.end());
  std::string out = "full=" + std::to_string(report.full_count);
  for (const std::string& s : sigs) out += "|" + s;
  return out;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthOptions synth;
    synth.seed_entities = 24;
    synth.years = 2;
    synth.rng_seed = 2024;
    Result<SynthWorld> world = Synthesize(synth);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    world_ = new SynthWorld(std::move(world).value());

    WindowSearchOptions options;
    options.initial_threshold = 0.8;
    options.miner.max_abstraction_lift = 1;
    options.miner.max_pattern_actions = 6;
    options.mine_relative = true;
    WindowSearch search(world_->registry.get(), &world_->store, options);
    Result<WindowSearchResult> result =
        search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    snapshot_a_ = new PatternSnapshot();
    snapshot_a_->provenance.corpus_id = "fault-test-epoch-a";
    snapshot_a_->provenance.tool = "serve_fault_test";
    for (const DiscoveredPattern& dp : result->patterns) {
      if (dp.mined.pattern.num_actions() < 2) continue;
      snapshot_a_->patterns.push_back({dp.mined.pattern, dp.mined.window,
                                       dp.mined.frequency, dp.mined.support,
                                       dp.threshold});
    }
    ASSERT_GE(snapshot_a_->patterns.size(), 4u) << "corpus mined too little";

    // Epoch B: the even-indexed subset of A — a genuinely different pattern
    // set, so a session pinned to the wrong epoch cannot accidentally pass
    // the differential check.
    snapshot_b_ = new PatternSnapshot();
    snapshot_b_->provenance = snapshot_a_->provenance;
    snapshot_b_->provenance.corpus_id = "fault-test-epoch-b";
    for (size_t i = 0; i < snapshot_a_->patterns.size(); i += 2) {
      snapshot_b_->patterns.push_back(snapshot_a_->patterns[i]);
    }

    PartialDetectorOptions detector_options;
    detector_options.max_abstraction_lift = 1;
    PartialUpdateDetector batch(world_->registry.get(), &world_->store,
                                detector_options);
    batch_a_ = new std::vector<std::string>();
    for (const StoredPattern& sp : snapshot_a_->patterns) {
      Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      batch_a_->push_back(Fingerprint(*report));
    }
    batch_b_ = new std::vector<std::string>();
    for (size_t i = 0; i < snapshot_a_->patterns.size(); i += 2) {
      batch_b_->push_back((*batch_a_)[i]);
    }

    feed_ = new std::vector<std::pair<Action, uint64_t>>();
    const EntityRegistry& registry = *world_->registry;
    for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
      for (const Action& a : world_->store.LogOf(e)) {
        feed_->emplace_back(a, static_cast<uint64_t>(feed_->size()));
      }
    }
    std::stable_sort(feed_->begin(), feed_->end(),
                     [](const auto& a, const auto& b) {
                       return a.first.time < b.first.time;
                     });
    ASSERT_GE(feed_->size(), 100u);
  }

  static void TearDownTestSuite() {
    delete feed_;
    feed_ = nullptr;
    delete batch_b_;
    batch_b_ = nullptr;
    delete batch_a_;
    batch_a_ = nullptr;
    delete snapshot_b_;
    snapshot_b_ = nullptr;
    delete snapshot_a_;
    snapshot_a_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static DetectorServiceOptions ServiceOptions(size_t shards) {
    DetectorServiceOptions options;
    options.shards_per_tenant = shards;
    // Blocking batch-replay mode: the correctness tests must never shed an
    // event just because a sanitizer lane starved a consumer thread. The
    // stall test opts back into a deadline explicitly.
    options.feed_deadline_ms = 0;
    options.detector.detector.max_abstraction_lift = 1;
    return options;
  }

  /// Asserts a closed tenant's alerts are differentially identical to the
  /// batch detector replaying the tenant's pinned snapshot.
  static void ExpectBatchIdentical(const TenantReport& report,
                                   const std::vector<std::string>& batch) {
    ASSERT_EQ(report.session.alerts.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const OnlineAlert& alert = report.session.alerts[i];
      ASSERT_EQ(alert.pattern_id, i);
      EXPECT_EQ(Fingerprint(alert.report), batch[i])
          << "tenant " << report.tenant << " (epoch " << report.epoch
          << ") diverges from its pinned epoch's batch replay at pattern "
          << i;
    }
  }

  /// Feeds the whole canonical stream into one tenant, asserting every event
  /// is accepted.
  static void FeedAll(DetectorService* service, TenantId tenant) {
    for (const auto& [action, sequence] : *feed_) {
      ASSERT_EQ(service->Feed(tenant, action), FeedResult::kOk);
    }
  }

  static SynthWorld* world_;
  static PatternSnapshot* snapshot_a_;
  static PatternSnapshot* snapshot_b_;
  static std::vector<std::string>* batch_a_;
  static std::vector<std::string>* batch_b_;
  static std::vector<std::pair<Action, uint64_t>>* feed_;
};

SynthWorld* ServeFaultTest::world_ = nullptr;
PatternSnapshot* ServeFaultTest::snapshot_a_ = nullptr;
PatternSnapshot* ServeFaultTest::snapshot_b_ = nullptr;
std::vector<std::string>* ServeFaultTest::batch_a_ = nullptr;
std::vector<std::string>* ServeFaultTest::batch_b_ = nullptr;
std::vector<std::pair<Action, uint64_t>>* ServeFaultTest::feed_ = nullptr;

/// The fault matrix runs each scenario at 1 and 4 shards per tenant.
class ServeFaultMatrix : public ServeFaultTest,
                         public ::testing::WithParamInterface<size_t> {};

TEST_P(ServeFaultMatrix, CorruptSnapshotReloadKeepsOldEpochServing) {
  DetectorService service(world_->registry.get(), ServiceOptions(GetParam()));
  service.PublishSnapshot(*snapshot_a_);
  Result<TenantId> tenant = service.OpenSession();
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();

  const size_t half = feed_->size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_EQ(service.Feed(*tenant, (*feed_)[i].first), FeedResult::kOk);
  }

  // A half-written snapshot file (the torn state an atomic publish prevents,
  // forced here by hand): encode B, truncate, write. The reload must be
  // rejected wholesale and epoch A must keep serving.
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(*snapshot_b_, world_->registry->taxonomy(),
                             &bytes)
                  .ok());
  const std::string path =
      ::testing::TempDir() + "/serve_fault_corrupt_" +
      std::to_string(GetParam()) + ".wcps";
  {
    std::string torn = bytes.substr(0, bytes.size() - 11);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  Result<EpochId> reloaded = service.PublishSnapshotFile(path);
  EXPECT_FALSE(reloaded.ok());
  SnapshotRegistryStats stats = service.registry_stats();
  EXPECT_EQ(stats.epochs_published, 1u);
  EXPECT_EQ(stats.current_epoch, 1u);

  for (size_t i = half; i < feed_->size(); ++i) {
    ASSERT_EQ(service.Feed(*tenant, (*feed_)[i].first), FeedResult::kOk);
  }
  Result<TenantReport> report = service.CloseSession(*tenant);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 1u);
  ExpectBatchIdentical(*report, *batch_a_);
}

TEST_P(ServeFaultMatrix, ShardFailureQuarantinesOnlyItsTenant) {
  const size_t shards = GetParam();
  DetectorService service(world_->registry.get(), ServiceOptions(shards));
  service.PublishSnapshot(*snapshot_a_);

  ShardFaultPlan poison;
  poison.poison_shard = shards - 1;
  poison.poison_after = 3;
  Result<TenantId> faulty = service.OpenSession(poison);
  ASSERT_TRUE(faulty.ok());
  Result<TenantId> healthy = service.OpenSession();
  ASSERT_TRUE(healthy.ok());

  // Interleave the two tenants' streams; the faulty one must flip to
  // kQuarantined mid-stream while the healthy one never notices.
  size_t quarantined_at = feed_->size();
  for (size_t i = 0; i < feed_->size(); ++i) {
    FeedResult r = service.Feed(*faulty, (*feed_)[i].first);
    if (r == FeedResult::kQuarantined && quarantined_at == feed_->size()) {
      quarantined_at = i;
    }
    ASSERT_EQ(service.Feed(*healthy, (*feed_)[i].first), FeedResult::kOk);
  }
  ASSERT_LT(quarantined_at, feed_->size()) << "poison fault never fired";

  Result<QuarantineCause> cause = service.cause(*faulty);
  ASSERT_TRUE(cause.ok()) << cause.status().ToString();
  EXPECT_EQ(cause->kind, QuarantineCause::Kind::kShardFailure);
  EXPECT_EQ(cause->shard, shards - 1);
  EXPECT_NE(cause->status.ToString().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(service.stats().tenants_quarantined, 1u);

  // Closing the quarantined tenant surfaces the failure, not a report.
  Result<TenantReport> faulty_close = service.CloseSession(*faulty);
  EXPECT_FALSE(faulty_close.ok());
  EXPECT_NE(faulty_close.status().ToString().find("injected fault"),
            std::string::npos);

  Result<TenantReport> healthy_close = service.CloseSession(*healthy);
  ASSERT_TRUE(healthy_close.ok()) << healthy_close.status().ToString();
  EXPECT_EQ(healthy_close->session.events_shed, 0u);
  ExpectBatchIdentical(*healthy_close, *batch_a_);

  // Both pins released: the epoch stays live (it is current) with no pins.
  SnapshotRegistryStats stats = service.registry_stats();
  EXPECT_EQ(stats.outstanding_pins, 0u);
  EXPECT_EQ(stats.live_epochs, 1u);
}

TEST_P(ServeFaultMatrix, StalledTenantShedsLoadThenWatchdogQuarantines) {
  const size_t shards = GetParam();
  DetectorServiceOptions options = ServiceOptions(shards);
  options.tenant_queue_capacity = 4;
  options.feed_deadline_ms = 20;
  DetectorService service(world_->registry.get(), options);
  service.PublishSnapshot(*snapshot_a_);

  ShardFaultPlan stall;
  stall.stall_shard = 0;
  stall.stall_after = 2;
  Result<TenantId> stalled = service.OpenSession(stall);
  ASSERT_TRUE(stalled.ok());
  Result<TenantId> healthy = service.OpenSession();
  ASSERT_TRUE(healthy.ok());

  // Feed the stalled tenant until its quota fills; the overload must become
  // an explicit, deadline-bounded kOverloaded — not a hang, not an error.
  FeedResult r = FeedResult::kOk;
  size_t fed = 0;
  for (; fed < 64 && r == FeedResult::kOk; ++fed) {
    r = service.Feed(*stalled, (*feed_)[fed].first);
  }
  ASSERT_EQ(r, FeedResult::kOverloaded) << "stalled tenant never shed load";
  Timer deadline_timer;
  EXPECT_EQ(service.Feed(*stalled, (*feed_)[fed].first),
            FeedResult::kOverloaded);
  const double elapsed = deadline_timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);  // the deadline was honored, not skipped
  EXPECT_LT(elapsed, 10.0);   // ... and bounded
  EXPECT_GT(service.stats().events_shed, 0u);

  // The healthy tenant is unaffected by its neighbor's overload. A shed
  // event is delivered nowhere (all-or-nothing), so retrying until accepted
  // delivers exactly once even if a sanitizer lane starves the consumer past
  // the 20ms deadline.
  for (const auto& [action, sequence] : *feed_) {
    FeedResult result = FeedResult::kOverloaded;
    while (result == FeedResult::kOverloaded) {
      result = service.Feed(*healthy, action);
    }
    ASSERT_EQ(result, FeedResult::kOk);
  }

  // Watchdog: the stalled shard has backlog but a frozen heartbeat. The
  // first scan baselines; a later scan must quarantine. Retry a few times so
  // the worker has provably parked (consumed frozen) between two scans.
  size_t quarantined = 0;
  for (int scan = 0; scan < 50 && quarantined == 0; ++scan) {
    quarantined = service.RunWatchdogScan();
    if (quarantined == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(quarantined, 1u) << "watchdog never caught the stuck shard";
  Result<QuarantineCause> cause = service.cause(*stalled);
  ASSERT_TRUE(cause.ok());
  EXPECT_EQ(cause->kind, QuarantineCause::Kind::kStuckShard);
  EXPECT_EQ(cause->shard, 0u);
  EXPECT_EQ(service.Feed(*stalled, (*feed_)[0].first),
            FeedResult::kQuarantined);
  EXPECT_FALSE(service.CloseSession(*stalled).ok());

  Result<TenantReport> healthy_close = service.CloseSession(*healthy);
  ASSERT_TRUE(healthy_close.ok()) << healthy_close.status().ToString();
  ExpectBatchIdentical(*healthy_close, *batch_a_);
}

TEST_P(ServeFaultMatrix, ReloadDuringFeedPinsEachTenantToItsEpoch) {
  DetectorService service(world_->registry.get(), ServiceOptions(GetParam()));
  service.PublishSnapshot(*snapshot_a_);
  Result<TenantId> first = service.OpenSession();
  ASSERT_TRUE(first.ok());

  const size_t half = feed_->size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_EQ(service.Feed(*first, (*feed_)[i].first), FeedResult::kOk);
  }

  // Hot swap mid-feed: the first tenant must keep epoch A to the end; a
  // tenant opened after the publish pins epoch B.
  EXPECT_EQ(service.PublishSnapshot(*snapshot_b_), 2u);
  Result<TenantId> second = service.OpenSession();
  ASSERT_TRUE(second.ok());

  for (size_t i = half; i < feed_->size(); ++i) {
    ASSERT_EQ(service.Feed(*first, (*feed_)[i].first), FeedResult::kOk);
  }
  FeedAll(&service, *second);

  Result<TenantReport> first_close = service.CloseSession(*first);
  ASSERT_TRUE(first_close.ok()) << first_close.status().ToString();
  EXPECT_EQ(first_close->epoch, 1u);
  ExpectBatchIdentical(*first_close, *batch_a_);

  // First tenant's close drained epoch A's last pin: retired and freed.
  SnapshotRegistryStats stats = service.registry_stats();
  EXPECT_EQ(stats.epochs_retired, 1u);
  EXPECT_EQ(stats.snapshots_freed, 1u);

  Result<TenantReport> second_close = service.CloseSession(*second);
  ASSERT_TRUE(second_close.ok()) << second_close.status().ToString();
  EXPECT_EQ(second_close->epoch, 2u);
  ExpectBatchIdentical(*second_close, *batch_b_);

  stats = service.registry_stats();
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.outstanding_pins, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ServeFaultMatrix,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "shard";
                         });

// ---------------------------------------------------------------------------
// Admission control and service API edges.

TEST_F(ServeFaultTest, AdmissionCapRejectsThenRecovers) {
  DetectorServiceOptions options = ServiceOptions(1);
  options.max_tenants = 2;
  DetectorService service(world_->registry.get(), options);
  service.PublishSnapshot(*snapshot_a_);

  Result<TenantId> t1 = service.OpenSession();
  Result<TenantId> t2 = service.OpenSession();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  Result<TenantId> t3 = service.OpenSession();
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().sessions_rejected, 1u);

  // Closing one slot frees admission for the next tenant.
  ASSERT_TRUE(service.CloseSession(*t1).ok());
  Result<TenantId> t4 = service.OpenSession();
  ASSERT_TRUE(t4.ok());
  EXPECT_EQ(service.num_tenants(), 2u);
  ASSERT_TRUE(service.CloseSession(*t2).ok());
  ASSERT_TRUE(service.CloseSession(*t4).ok());
}

TEST_F(ServeFaultTest, OpenBeforePublishFails) {
  DetectorService service(world_->registry.get(), ServiceOptions(1));
  Result<TenantId> tenant = service.OpenSession();
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFaultTest, UnknownTenantIsExplicit) {
  DetectorService service(world_->registry.get(), ServiceOptions(1));
  service.PublishSnapshot(*snapshot_a_);
  EXPECT_EQ(service.Feed(99, (*feed_)[0].first), FeedResult::kUnknownTenant);
  EXPECT_FALSE(service.CloseSession(99).ok());
  EXPECT_EQ(service.cause(99).status().code(), StatusCode::kNotFound);
  Result<TenantId> healthy = service.OpenSession();
  ASSERT_TRUE(healthy.ok());
  // cause() of a healthy tenant is an error, not an empty cause.
  EXPECT_EQ(service.cause(*healthy).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.CloseSession(*healthy).ok());
}

TEST_F(ServeFaultTest, DestructorAbortsLiveTenantsCleanly) {
  DetectorService service(world_->registry.get(), ServiceOptions(2));
  service.PublishSnapshot(*snapshot_a_);
  Result<TenantId> tenant = service.OpenSession();
  ASSERT_TRUE(tenant.ok());
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_EQ(service.Feed(*tenant, (*feed_)[i].first), FeedResult::kOk);
  }
  // No CloseSession: the destructor must cancel the session, join its
  // workers, and release the pin without deadlock or leak (ASan/TSan lanes
  // verify the latter).
}

TEST_F(ServeFaultTest, CloseDuringConcurrentFeedIsAnExplicitMiss) {
  // Regression: Feed could look up the tenant just before CloseSession
  // unlinked it, then dereference the already-destroyed session — a crash.
  // A feed that loses the race must instead report kUnknownTenant, exactly
  // like feeding after the close returned. Several rounds so the TSan lane
  // sees real interleavings on both sides of the unlink.
  DetectorService service(world_->registry.get(), ServiceOptions(1));
  service.PublishSnapshot(*snapshot_a_);
  for (int round = 0; round < 8; ++round) {
    Result<TenantId> tenant = service.OpenSession();
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    std::thread feeder([&] {
      for (size_t i = 0;; i = (i + 1) % feed_->size()) {
        const FeedResult r = service.Feed(*tenant, (*feed_)[i].first);
        if (r == FeedResult::kUnknownTenant) return;  // the close won
        ASSERT_EQ(r, FeedResult::kOk);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Close races the feeder; it must wait out any in-flight feed, drain
    // cleanly, and leave later feeds an explicit miss (the partial stream
    // makes no differential promise, so only the status is checked).
    Result<TenantReport> closed = service.CloseSession(*tenant);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    feeder.join();
    EXPECT_EQ(service.Feed(*tenant, (*feed_)[0].first),
              FeedResult::kUnknownTenant);
  }
  EXPECT_EQ(service.num_tenants(), 0u);
}

TEST_F(ServeFaultTest, WatchdogReachesTenantWhoseProducerIsParked) {
  // Regression: in blocking mode (feed_deadline_ms <= 0) a producer parked
  // on a stuck shard's full queue used to hold the tenant's state lock for
  // the whole push, so RunWatchdogScan could never quarantine the very
  // condition it exists to detect — and CloseSession wedged behind the same
  // lock. The feed lock / state lock split lets the watchdog quarantine the
  // tenant, whose Cancel is what wakes the parked producer.
  DetectorServiceOptions options = ServiceOptions(1);
  options.tenant_queue_capacity = 2;
  options.feed_deadline_ms = 0;  // blocking batch-replay mode: no shedding
  DetectorService service(world_->registry.get(), options);
  service.PublishSnapshot(*snapshot_a_);

  ShardFaultPlan stall;
  stall.stall_shard = 0;
  stall.stall_after = 1;
  Result<TenantId> stalled = service.OpenSession(stall);
  ASSERT_TRUE(stalled.ok());

  std::thread producer([&] {
    // Fills the stalled shard's queue, then parks inside Feed until the
    // watchdog's quarantine cancels the session out from under it.
    for (size_t i = 0; i < feed_->size(); ++i) {
      const FeedResult r = service.Feed(*stalled, (*feed_)[i].first);
      if (r != FeedResult::kOk) {
        EXPECT_EQ(r, FeedResult::kQuarantined);
        return;
      }
    }
    ADD_FAILURE() << "producer drained the feed without ever blocking";
  });

  // If the state lock were held across the blocked push, this loop would
  // never observe a quarantine and the join below would hang — the old
  // deadlock, now the test's failure mode.
  size_t quarantined = 0;
  for (int scan = 0; scan < 5000 && quarantined == 0; ++scan) {
    quarantined = service.RunWatchdogScan();
    if (quarantined == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(quarantined, 1u) << "watchdog never reached the parked tenant";
  producer.join();

  Result<QuarantineCause> cause = service.cause(*stalled);
  ASSERT_TRUE(cause.ok()) << cause.status().ToString();
  EXPECT_EQ(cause->kind, QuarantineCause::Kind::kStuckShard);
  EXPECT_EQ(cause->shard, 0u);
  EXPECT_FALSE(service.CloseSession(*stalled).ok());
}

// ---------------------------------------------------------------------------
// Hot-swap torture: the TSan lane's centerpiece. Four concurrent feeder
// threads run back-to-back sessions (open → full canonical feed → close →
// differential check against the pinned epoch's batch replay) while the
// main thread keeps publishing alternating snapshots. Zero sessions may be
// dropped, no session may observe a mixed epoch, and when the dust settles
// every retired epoch must be refcount-drained and its payload freed.

TEST_F(ServeFaultTest, HotSwapTortureServesEveryEpochExactly) {
  constexpr size_t kFeeders = 4;
  constexpr size_t kWavesPerFeeder = 3;
  constexpr size_t kPublishes = 8;

  DetectorServiceOptions options = ServiceOptions(2);
  options.max_tenants = 2 * kFeeders;
  DetectorService service(world_->registry.get(), options);

  // epoch id -> expected per-pattern batch fingerprints for that snapshot.
  Mutex expected_mu;
  std::map<EpochId, const std::vector<std::string>*> expected;
  {
    EpochId first = service.PublishSnapshot(*snapshot_a_);
    MutexLock lock(&expected_mu);
    expected[first] = batch_a_;
  }

  std::atomic<uint64_t> sessions_completed{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> feeders;
  for (size_t f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&] {
      for (size_t wave = 0; wave < kWavesPerFeeder; ++wave) {
        Result<TenantId> tenant = service.OpenSession();
        if (!tenant.ok()) {
          ADD_FAILURE() << "open dropped: " << tenant.status().ToString();
          failed.store(true);
          return;
        }
        for (const auto& [action, sequence] : *feed_) {
          if (service.Feed(*tenant, action) != FeedResult::kOk) {
            ADD_FAILURE() << "feed dropped mid-session";
            failed.store(true);
            return;
          }
        }
        Result<TenantReport> report = service.CloseSession(*tenant);
        if (!report.ok()) {
          ADD_FAILURE() << "close dropped: " << report.status().ToString();
          failed.store(true);
          return;
        }
        const std::vector<std::string>* batch = nullptr;
        {
          MutexLock lock(&expected_mu);
          auto it = expected.find(report->epoch);
          if (it != expected.end()) batch = it->second;
        }
        if (batch == nullptr) {
          ADD_FAILURE() << "session pinned unknown epoch " << report->epoch;
          failed.store(true);
          return;
        }
        ExpectBatchIdentical(*report, *batch);
        sessions_completed.fetch_add(1);
      }
    });
  }

  // Publish alternating snapshots under live traffic. The tiny sleep spreads
  // publishes across the feeders' session lifetimes; correctness must not
  // depend on where they land.
  for (size_t p = 0; p < kPublishes; ++p) {
    const bool use_b = (p % 2) == 0;
    EpochId epoch =
        service.PublishSnapshot(use_b ? *snapshot_b_ : *snapshot_a_);
    {
      MutexLock lock(&expected_mu);
      expected[epoch] = use_b ? batch_b_ : batch_a_;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : feeders) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(sessions_completed.load(), kFeeders * kWavesPerFeeder);

  // Quiescence: every session closed, so only the current epoch survives,
  // nothing is pinned, and every retired epoch's payload was actually
  // destroyed (refcount drained to zero — not merely dropped from the
  // table).
  SnapshotRegistryStats stats = service.registry_stats();
  EXPECT_EQ(stats.epochs_published, 1 + kPublishes);
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.outstanding_pins, 0u);
  EXPECT_EQ(stats.epochs_retired, kPublishes);
  EXPECT_EQ(stats.snapshots_freed, kPublishes);
  EXPECT_EQ(service.stats().tenants_quarantined, 0u);
  EXPECT_EQ(service.stats().sessions_closed,
            sessions_completed.load());
}

}  // namespace
}  // namespace wiclean
