// Serving-layer tests: WCPS snapshot round-trip and corruption handling,
// inverted pattern-index dispatch (checked against a scan of every pattern
// action), and the differential suite proving a DetectorService session
// replays to exactly the batch detector's alert set — across three
// synthetic domains, 1 and 4 shards, and in-order vs bounded-skew
// out-of-order delivery.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/action_index.h"
#include "core/partial.h"
#include "core/window_search.h"
#include "report/report.h"
#include "serve/detector_service.h"
#include "serve/online_detector.h"
#include "serve/pattern_index.h"
#include "serve/pattern_store.h"
#include "synth/catalog.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

// ---------------------------------------------------------------------------
// Pattern store.

/// Small fixed taxonomy + a two-action join pattern with one bound variable —
/// exercises every field the WCPS format persists.
class PatternStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    club_ = *tax_.AddType("club", thing_);
  }

  PatternSnapshot MakeSnapshot() const {
    PatternSnapshot snapshot;
    snapshot.provenance.corpus_id = "unit-test corpus";
    snapshot.provenance.tool = "serve_test";
    snapshot.provenance.created_unix = 1700000000;
    snapshot.provenance.frequency_threshold = 0.75;
    snapshot.provenance.max_abstraction_lift = 1;
    snapshot.provenance.max_pattern_actions = 6;
    snapshot.provenance.mine_relative = false;

    Pattern p;
    int pl = p.AddVar(player_);
    int c = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    EXPECT_TRUE(p.BindVar(c, 42).ok());
    snapshot.patterns.push_back(
        StoredPattern{p, TimeWindow{100, 2000}, 0.875, 14, 0.8});

    Pattern q;
    int a = q.AddVar(person_);
    int b = q.AddVar(person_);
    EXPECT_TRUE(q.AddAction(EditOp::kRemove, a, "spouse", b).ok());
    EXPECT_TRUE(q.AddAction(EditOp::kRemove, b, "spouse", a).ok());
    EXPECT_TRUE(q.SetSourceVar(a).ok());
    snapshot.patterns.push_back(
        StoredPattern{q, TimeWindow{0, 500}, 1.0, 3, 0.7});
    return snapshot;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, club_;
};

TEST_F(PatternStoreTest, RoundTripIsByteIdentical) {
  PatternSnapshot snapshot = MakeSnapshot();
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(snapshot, tax_, &bytes).ok());

  Result<PatternSnapshot> decoded = DecodeSnapshot(bytes, tax_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->provenance, snapshot.provenance);
  ASSERT_EQ(decoded->patterns.size(), snapshot.patterns.size());
  for (size_t i = 0; i < snapshot.patterns.size(); ++i) {
    const StoredPattern& in = snapshot.patterns[i];
    const StoredPattern& out = decoded->patterns[i];
    EXPECT_EQ(out.pattern.ToString(tax_), in.pattern.ToString(tax_));
    EXPECT_EQ(out.pattern.var_binding(1), in.pattern.var_binding(1));
    EXPECT_EQ(out.window.begin, in.window.begin);
    EXPECT_EQ(out.window.end, in.window.end);
    EXPECT_EQ(out.frequency, in.frequency);
    EXPECT_EQ(out.support, in.support);
    EXPECT_EQ(out.threshold, in.threshold);
  }

  std::string bytes2;
  ASSERT_TRUE(EncodeSnapshot(*decoded, tax_, &bytes2).ok());
  EXPECT_EQ(bytes2, bytes);
}

TEST_F(PatternStoreTest, EveryTruncationFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<PatternSnapshot> r =
        DecodeSnapshot(std::string_view(bytes.data(), len), tax_);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes decoded";
  }
}

TEST_F(PatternStoreTest, EverySingleBitFlipFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      Result<PatternSnapshot> r = DecodeSnapshot(corrupt, tax_);
      EXPECT_FALSE(r.ok()) << "flip of byte " << i << " bit " << bit
                           << " decoded";
    }
  }
}

TEST_F(PatternStoreTest, TrailingGarbageFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  bytes += '\0';
  EXPECT_FALSE(DecodeSnapshot(bytes, tax_).ok());
}

TEST_F(PatternStoreTest, UnknownTypeNameFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  TypeTaxonomy other;
  ASSERT_TRUE(other.AddRoot("thing").ok());  // lacks player/club/person
  Result<PatternSnapshot> r = DecodeSnapshot(bytes, other);
  EXPECT_FALSE(r.ok());
}

TEST_F(PatternStoreTest, EncodeRejectsInvalidType) {
  PatternSnapshot snapshot = MakeSnapshot();
  TypeTaxonomy tiny;
  ASSERT_TRUE(tiny.AddRoot("thing").ok());
  std::string bytes;
  EXPECT_FALSE(EncodeSnapshot(snapshot, tiny, &bytes).ok());
}

TEST(PatternStoreFileTest, SaveLoadRoundTrip) {
  TypeTaxonomy tax;
  TypeId thing = *tax.AddRoot("thing");
  TypeId player = *tax.AddType("player", thing);

  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id = "file-test";
  snapshot.provenance.tool = "serve_test";
  Pattern p;
  int a = p.AddVar(player);
  int b = p.AddVar(player);
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, a, "teammate", b).ok());
  ASSERT_TRUE(p.SetSourceVar(a).ok());
  snapshot.patterns.push_back(StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});

  std::string path = ::testing::TempDir() + "/serve_test_snapshot.wcps";
  ASSERT_TRUE(SaveSnapshotFile(snapshot, tax, path).ok());
  Result<PatternSnapshot> loaded = LoadSnapshotFile(path, tax);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->provenance, snapshot.provenance);
  EXPECT_EQ(loaded->patterns.size(), 1u);

  EXPECT_FALSE(LoadSnapshotFile(path + ".missing", tax).ok());
}

// ---------------------------------------------------------------------------
// Pattern index.

class PatternIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    keeper_ = *tax_.AddType("goalkeeper", player_);
    club_ = *tax_.AddType("club", thing_);
  }

  Pattern JoinPattern(TypeId src_type, TypeId dst_type) const {
    Pattern p;
    int a = p.AddVar(src_type);
    int b = p.AddVar(dst_type);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, a, "current_club", b).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kRemove, b, "squad", a).ok());
    EXPECT_TRUE(p.SetSourceVar(a).ok());
    return p;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, keeper_, club_;
};

TEST_F(PatternIndexTest, ExactAndLiftedLookup) {
  PatternIndex index(&tax_, /*max_abstraction_lift=*/1);
  ASSERT_TRUE(index.AddPattern(7, JoinPattern(person_, club_)).ok());
  EXPECT_EQ(index.num_slots(), 2u);

  // Exact type: matches.
  std::vector<PatternSlot> slots =
      index.Lookup(person_, "current_club", club_);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0], (PatternSlot{7, 0}));

  // One level below the pattern var type: within lift 1.
  EXPECT_EQ(index.Lookup(player_, "current_club", club_).size(), 1u);
  // Two levels below: beyond lift 1 — the batch ActionIndex would not have
  // routed this edit either.
  EXPECT_TRUE(index.Lookup(keeper_, "current_club", club_).empty());
  // More general than the pattern var: never matches.
  EXPECT_TRUE(index.Lookup(thing_, "current_club", club_).empty());
  // Unknown relation.
  EXPECT_TRUE(index.Lookup(person_, "manages", club_).empty());
  // Invalid types are rejected, not UB.
  EXPECT_TRUE(index.Lookup(kInvalidTypeId, "current_club", club_).empty());
}

TEST_F(PatternIndexTest, LookupIsOpAgnostic) {
  // The "squad" action is a *remove*; an incoming add on the same signature
  // must still route to it so inverse edits cancel during reduction.
  PatternIndex index(&tax_, 1);
  ASSERT_TRUE(index.AddPattern(0, JoinPattern(player_, club_)).ok());
  std::vector<PatternSlot> slots = index.Lookup(club_, "squad", player_);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0], (PatternSlot{0, 1}));
}

TEST_F(PatternIndexTest, DeterministicRegistrationOrder) {
  PatternIndex index(&tax_, 0);
  ASSERT_TRUE(index.AddPattern(1, JoinPattern(player_, club_)).ok());
  ASSERT_TRUE(index.AddPattern(2, JoinPattern(player_, club_)).ok());
  std::vector<PatternSlot> slots =
      index.Lookup(player_, "current_club", club_);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].pattern_id, 1u);
  EXPECT_EQ(slots[1].pattern_id, 2u);
}

/// Serving routes an edit to a pattern action exactly when mining would file
/// the edit under that action's key: on the synthetic catalog taxonomy, for
/// every (subject type, relation, object type) edit, the keys ActionIndex
/// files it under equal the keys of the one-action patterns PatternIndex
/// returns for it.
TEST(PatternIndexRoutingTest, AgreesWithActionIndexOnCatalogTaxonomy) {
  Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const TypeTaxonomy& taxonomy = *catalog->taxonomy;
  const TypeId num_types = static_cast<TypeId>(taxonomy.num_types());
  const Relation relations[] = {Relation("current_club"), Relation("squad")};

  // One object entity per type, and one subject entity per edit, so each
  // ActionIndex row names the one edit it came from.
  EntityRegistry registry(&taxonomy);
  std::vector<EntityId> objects;
  for (TypeId t = 0; t < num_types; ++t) {
    objects.push_back(*registry.Register("O" + std::to_string(t), t));
  }
  struct Edit {
    TypeId subject_type;
    Relation relation;
    TypeId object_type;
  };
  std::vector<Edit> edits;
  std::unordered_map<EntityId, size_t> edit_of;  // subject -> edit
  RevisionStore store;
  for (TypeId s = 0; s < num_types; ++s) {
    for (Relation r : relations) {
      for (TypeId o = 0; o < num_types; ++o) {
        const EntityId subject = *registry.Register(
            "S" + std::to_string(edits.size()), s);
        store.Add(Action{EditOp::kAdd, r, subject, objects[o], 1});
        edit_of[subject] = edits.size();
        edits.push_back({s, r, o});
      }
    }
  }

  auto less = [](const AbstractActionKey& a, const AbstractActionKey& b) {
    return std::tie(a.source_type, a.relation, a.target_type) <
           std::tie(b.source_type, b.relation, b.target_type);
  };
  for (int lift : {0, 1, 2}) {
    SCOPED_TRACE("lift " + std::to_string(lift));
    ActionIndex actions(&registry, &store, TimeWindow{0, 10}, lift);
    ASSERT_EQ(actions.AddEntitiesOfType(taxonomy.root()), registry.size());
    std::vector<std::vector<AbstractActionKey>> filed(edits.size());
    for (const AbstractActionEntry& entry : actions.entries()) {
      const relational::Column& subjects = entry.realizations.column(0);
      for (size_t r = 0; r < entry.realizations.num_rows(); ++r) {
        filed[edit_of.at(subjects.Int64At(r))].push_back(entry.key);
      }
    }

    // Every possible key as a one-action pattern; pattern id = position.
    PatternIndex patterns(&taxonomy, lift);
    std::vector<AbstractActionKey> pattern_keys;
    for (TypeId s = 0; s < num_types; ++s) {
      for (Relation r : relations) {
        for (TypeId o = 0; o < num_types; ++o) {
          Pattern p;
          const int u = p.AddVar(s);
          const int v = p.AddVar(o);
          ASSERT_TRUE(p.AddAction(EditOp::kAdd, u, r, v).ok());
          ASSERT_TRUE(p.SetSourceVar(u).ok());
          ASSERT_TRUE(
              patterns
                  .AddPattern(static_cast<uint32_t>(pattern_keys.size()), p)
                  .ok());
          pattern_keys.push_back({EditOp::kAdd, s, r, o});
        }
      }
    }

    std::vector<PatternSlot> slots;
    size_t routed = 0;
    for (size_t e = 0; e < edits.size(); ++e) {
      const Edit& edit = edits[e];
      patterns.Lookup(edit.subject_type, edit.relation, edit.object_type,
                      &slots);
      std::vector<AbstractActionKey> looked_up;
      for (const PatternSlot& slot : slots) {
        EXPECT_EQ(slot.action_index, 0u);
        looked_up.push_back(pattern_keys[slot.pattern_id]);
      }
      std::vector<AbstractActionKey> want = filed[e];
      std::sort(want.begin(), want.end(), less);
      std::sort(looked_up.begin(), looked_up.end(), less);
      ASSERT_EQ(looked_up, want)
          << taxonomy.Name(edit.subject_type) << " -"
          << edit.relation.name() << "-> " << taxonomy.Name(edit.object_type);
      routed += want.size();
    }
    // One key per edit at lift 0; lifts add the abstractions.
    if (lift == 0) {
      EXPECT_EQ(routed, edits.size());
    } else {
      EXPECT_GT(routed, edits.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: online replay == batch detector.

/// Order-normalized fingerprint of one pattern's detection result.
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

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthOptions synth;
    synth.seed_entities = 60;
    synth.years = 2;
    synth.rng_seed = 2021;
    synth.cinema = true;
    synth.politics = true;
    Result<SynthWorld> world = Synthesize(synth);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    world_ = new SynthWorld(std::move(world).value());

    snapshot_ = new PatternSnapshot();
    snapshot_->provenance.corpus_id = "differential-test";
    snapshot_->provenance.tool = "serve_test";
    const TypeId seeds[] = {world_->types.soccer_player,
                            world_->types.film_actor, world_->types.senator};
    for (TypeId seed : seeds) {
      WindowSearchOptions options;
      options.initial_threshold = 0.8;
      options.miner.max_abstraction_lift = 1;
      options.miner.max_pattern_actions = 6;
      options.mine_relative = true;
      WindowSearch search(world_->registry.get(), &world_->store, options);
      Result<WindowSearchResult> result =
          search.Run(seed, 0, kSecondsPerYear);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const DiscoveredPattern& dp : result->patterns) {
        if (dp.mined.pattern.num_actions() < 2) continue;
        snapshot_->patterns.push_back({dp.mined.pattern, dp.mined.window,
                                       dp.mined.frequency, dp.mined.support,
                                       dp.threshold});
      }
    }
    ASSERT_FALSE(snapshot_->patterns.empty()) << "corpus mined no patterns";

    // Batch baseline fingerprints, one per snapshot pattern.
    PartialDetectorOptions detector_options;
    detector_options.max_abstraction_lift = 1;
    PartialUpdateDetector batch(world_->registry.get(), &world_->store,
                                detector_options);
    batch_fingerprints_ = new std::vector<std::string>();
    for (const StoredPattern& sp : snapshot_->patterns) {
      Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      batch_fingerprints_->push_back(Fingerprint(*report));
    }
  }

  static void TearDownTestSuite() {
    delete batch_fingerprints_;
    batch_fingerprints_ = nullptr;
    delete snapshot_;
    snapshot_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  /// Canonical feed: entity logs concatenated in id order, sequence stamped
  /// pre-sort, stably sorted by time (= the batch store's tie order).
  static std::vector<std::pair<Action, uint64_t>> CanonicalFeed() {
    std::vector<std::pair<Action, uint64_t>> events;
    const EntityRegistry& registry = *world_->registry;
    for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
      for (const Action& a : world_->store.LogOf(e)) {
        events.emplace_back(a, static_cast<uint64_t>(events.size()));
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.time < b.first.time;
                     });
    return events;
  }

  /// Runs one blocking session (feed_deadline_ms = 0, the CLI's replay
  /// mode) of a 1-tenant service over `feed` and asserts the merged alert
  /// set equals the batch baseline pattern-by-pattern.
  void ExpectBatchIdentical(
      const std::vector<std::pair<Action, uint64_t>>& feed, size_t shards,
      Timestamp allowed_skew) {
    DetectorServiceOptions options;
    options.max_tenants = 1;
    options.shards_per_tenant = shards;
    options.feed_deadline_ms = 0;
    options.detector.allowed_skew = allowed_skew;
    options.detector.detector.max_abstraction_lift = 1;
    DetectorService service(world_->registry.get(), options);
    service.PublishSnapshot(*snapshot_);
    Result<TenantId> tenant = service.OpenSession();
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    for (const auto& [action, sequence] : feed) {
      ASSERT_EQ(service.Feed(*tenant, action, sequence), FeedResult::kOk);
    }
    Result<TenantReport> closed = service.CloseSession(*tenant);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    const SessionReport& report = closed->session;

    EXPECT_EQ(report.events_fed, feed.size());
    EXPECT_EQ(report.stats.events_observed, feed.size() * shards);
    EXPECT_EQ(report.stats.late_events, 0u);
    ASSERT_EQ(report.alerts.size(), snapshot_->patterns.size());
    for (size_t i = 0; i < report.alerts.size(); ++i) {
      const OnlineAlert& alert = report.alerts[i];
      ASSERT_EQ(alert.pattern_id, i) << "alerts not sorted by pattern id";
      EXPECT_EQ(Fingerprint(alert.report), (*batch_fingerprints_)[i])
          << "pattern " << i << " diverges at " << shards
          << " shard(s), skew " << allowed_skew;
      EXPECT_EQ(alert.suggestions.size(), alert.report.partials.size());
    }
  }

  static SynthWorld* world_;
  static PatternSnapshot* snapshot_;
  static std::vector<std::string>* batch_fingerprints_;
};

SynthWorld* DifferentialTest::world_ = nullptr;
PatternSnapshot* DifferentialTest::snapshot_ = nullptr;
std::vector<std::string>* DifferentialTest::batch_fingerprints_ = nullptr;

TEST_F(DifferentialTest, InOrderSingleThread) {
  ExpectBatchIdentical(CanonicalFeed(), 1, /*allowed_skew=*/0);
}

TEST_F(DifferentialTest, InOrderFourThreads) {
  ExpectBatchIdentical(CanonicalFeed(), 4, /*allowed_skew=*/0);
}

TEST_F(DifferentialTest, OutOfOrderSingleThread) {
  std::vector<std::pair<Action, uint64_t>> feed = CanonicalFeed();
  // Bounded disorder: each event's *delivery* rank is jittered by up to
  // kSkew seconds while its canonical sequence number is kept, so a
  // detector with allowed_skew >= kSkew must still buffer every event.
  constexpr Timestamp kSkew = 3 * kSecondsPerDay;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Timestamp> jitter(0, kSkew);
  std::vector<std::pair<Timestamp, size_t>> order;
  order.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    order.emplace_back(feed[i].first.time + jitter(rng), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<Action, uint64_t>> shuffled;
  shuffled.reserve(feed.size());
  for (const auto& [ignored, i] : order) shuffled.push_back(feed[i]);

  ExpectBatchIdentical(shuffled, 1, kSkew);
}

TEST_F(DifferentialTest, OutOfOrderFourThreads) {
  std::vector<std::pair<Action, uint64_t>> feed = CanonicalFeed();
  constexpr Timestamp kSkew = 3 * kSecondsPerDay;
  std::mt19937 rng(13);
  std::uniform_int_distribution<Timestamp> jitter(0, kSkew);
  std::vector<std::pair<Timestamp, size_t>> order;
  order.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    order.emplace_back(feed[i].first.time + jitter(rng), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<Action, uint64_t>> shuffled;
  shuffled.reserve(feed.size());
  for (const auto& [ignored, i] : order) shuffled.push_back(feed[i]);

  ExpectBatchIdentical(shuffled, 4, kSkew);
}

TEST_F(DifferentialTest, IndexLookupMatchesScanOfEveryPatternAction) {
  // Index dispatch must route every event to exactly the pattern actions a
  // scan of every action of every pattern finds under the same within-lift
  // predicate — same slots, same multiplicities.
  constexpr int kLift = 1;
  const TypeTaxonomy& taxonomy = world_->registry->taxonomy();
  PatternIndex index(&taxonomy, kLift);
  for (size_t i = 0; i < snapshot_->patterns.size(); ++i) {
    ASSERT_TRUE(index
                    .AddPattern(static_cast<uint32_t>(i),
                                snapshot_->patterns[i].pattern)
                    .ok());
  }
  auto within_lift = [&](TypeId concrete, TypeId general) {
    return taxonomy.IsA(concrete, general) &&
           taxonomy.Depth(concrete) - taxonomy.Depth(general) <= kLift;
  };

  using Slot = std::pair<uint32_t, uint32_t>;  // (pattern id, action index)
  std::vector<PatternSlot> slots;
  size_t events = 0;
  size_t hits = 0;
  for (const auto& [action, sequence] : CanonicalFeed()) {
    const TypeId subject_type = world_->registry->TypeOf(action.subject);
    const TypeId object_type = world_->registry->TypeOf(action.object);
    if (subject_type == kInvalidTypeId || object_type == kInvalidTypeId) {
      continue;
    }
    std::vector<Slot> scanned;
    for (uint32_t p = 0; p < snapshot_->patterns.size(); ++p) {
      const Pattern& pattern = snapshot_->patterns[p].pattern;
      for (uint32_t a = 0; a < pattern.num_actions(); ++a) {
        const AbstractAction& pa = pattern.actions()[a];
        if (pa.relation == action.relation &&
            within_lift(subject_type, pattern.var_type(pa.source_var)) &&
            within_lift(object_type, pattern.var_type(pa.target_var))) {
          scanned.emplace_back(p, a);
        }
      }
    }
    index.Lookup(subject_type, action.relation, object_type, &slots);
    std::vector<Slot> looked_up;
    for (const PatternSlot& slot : slots) {
      looked_up.emplace_back(slot.pattern_id, slot.action_index);
    }
    std::sort(scanned.begin(), scanned.end());
    std::sort(looked_up.begin(), looked_up.end());
    ASSERT_EQ(looked_up, scanned) << "event with sequence " << sequence;
    ++events;
    hits += looked_up.size();
  }
  EXPECT_GT(events, 0u);
  EXPECT_GT(hits, 0u) << "no event reached any pattern: the check is vacuous";
}

TEST_F(DifferentialTest, ProvenanceSurvivesStoreAndStampsReports) {
  // Round-trip the mined snapshot through the binary store, then check the
  // JSON detection report carries the provenance block — the path `wiclean
  // serve --json` takes.
  std::string bytes;
  ASSERT_TRUE(
      EncodeSnapshot(*snapshot_, world_->registry->taxonomy(), &bytes).ok());
  Result<PatternSnapshot> decoded =
      DecodeSnapshot(bytes, world_->registry->taxonomy());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->provenance, snapshot_->provenance);

  ReportProvenance provenance;
  provenance.snapshot_format_version = kSnapshotFormatVersion;
  provenance.corpus_id = decoded->provenance.corpus_id;
  provenance.tool = decoded->provenance.tool;
  provenance.created_unix = decoded->provenance.created_unix;
  provenance.frequency_threshold = decoded->provenance.frequency_threshold;
  provenance.max_abstraction_lift = decoded->provenance.max_abstraction_lift;
  provenance.max_pattern_actions = decoded->provenance.max_pattern_actions;
  provenance.mine_relative = decoded->provenance.mine_relative;

  std::ostringstream json;
  ASSERT_TRUE(WriteDetectionReportsJson({}, world_->registry->taxonomy(),
                                        *world_->registry, &json, &provenance)
                  .ok());
  EXPECT_NE(json.str().find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.str().find("\"differential-test\""), std::string::npos);
  EXPECT_NE(json.str().find("\"snapshot_format_version\": 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Online detector edge cases.

class OnlineDetectorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    player_ = *tax_.AddType("player", thing_);
    club_ = *tax_.AddType("club", thing_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);
    p0_ = *registry_->Register("P0", player_);
    c0_ = *registry_->Register("C0", club_);

    Pattern p;
    int a = p.AddVar(player_);
    int b = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, a, "current_club", b).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, b, "squad", a).ok());
    EXPECT_TRUE(p.SetSourceVar(a).ok());
    snapshot_.patterns.push_back(
        StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});
  }

  Action MakeAction(EntityId subject, const std::string& relation,
                    EntityId object, Timestamp time) const {
    Action a;
    a.subject = subject;
    a.relation = relation;
    a.object = object;
    a.time = time;
    return a;
  }

  TypeTaxonomy tax_;
  TypeId thing_, player_, club_;
  std::unique_ptr<EntityRegistry> registry_;
  EntityId p0_, c0_;
  PatternSnapshot snapshot_;
};

TEST_F(OnlineDetectorEdgeTest, LateEventIsCountedAndDropped) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(
      std::make_shared<const PatternSnapshot>(snapshot_)).ok());
  std::vector<OnlineAlert> alerts;
  // The watermark jumps past the window end: the pattern finalizes with one
  // routed edit (a partial realization).
  ASSERT_TRUE(
      detector.Observe(MakeAction(p0_, "current_club", c0_, 10), 0, &alerts)
          .ok());
  ASSERT_TRUE(
      detector.Observe(MakeAction(p0_, "noise", c0_, 200), 1, &alerts).ok());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].report.partials.size(), 1u);
  EXPECT_EQ(detector.stats().late_events, 0u);

  // An in-window event arriving after finalization (disorder beyond the
  // promised skew) is dropped and counted, not crashed on.
  ASSERT_TRUE(
      detector.Observe(MakeAction(c0_, "squad", p0_, 20), 2, &alerts).ok());
  EXPECT_EQ(detector.stats().late_events, 1u);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST_F(OnlineDetectorEdgeTest, CancellingEditsLeaveNoRealization) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(
      std::make_shared<const PatternSnapshot>(snapshot_)).ok());
  std::vector<OnlineAlert> alerts;
  Action add = MakeAction(p0_, "current_club", c0_, 10);
  Action remove = add;
  remove.op = EditOp::kRemove;
  remove.time = 20;
  ASSERT_TRUE(detector.Observe(add, 0, &alerts).ok());
  ASSERT_TRUE(detector.Observe(remove, 1, &alerts).ok());
  ASSERT_TRUE(detector.FinishStream(&alerts).ok());
  ASSERT_EQ(alerts.size(), 1u);
  // The add and its inverse cancelled during reduction: nothing realized.
  EXPECT_TRUE(alerts[0].report.partials.empty());
  EXPECT_EQ(alerts[0].report.full_count, 0u);
}

TEST_F(OnlineDetectorEdgeTest, ObserveAfterFinishFails) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(
      std::make_shared<const PatternSnapshot>(snapshot_)).ok());
  std::vector<OnlineAlert> alerts;
  ASSERT_TRUE(detector.FinishStream(&alerts).ok());
  EXPECT_FALSE(
      detector.Observe(MakeAction(p0_, "current_club", c0_, 10), 0, &alerts)
          .ok());
  EXPECT_FALSE(detector.FinishStream(&alerts).ok());
}

TEST_F(OnlineDetectorEdgeTest, ShardPartitionCoversEveryPatternOnce) {
  // Two more patterns so sharding has something to split.
  for (int i = 0; i < 2; ++i) {
    Pattern p;
    int a = p.AddVar(player_);
    int b = p.AddVar(club_);
    ASSERT_TRUE(
        p.AddAction(EditOp::kAdd, a, "loaned_to_" + std::to_string(i), b)
            .ok());
    ASSERT_TRUE(p.AddAction(EditOp::kAdd, b, "squad", a).ok());
    ASSERT_TRUE(p.SetSourceVar(a).ok());
    snapshot_.patterns.push_back(
        StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});
  }

  std::vector<uint32_t> seen;
  for (size_t shard = 0; shard < 2; ++shard) {
    OnlineDetectorOptions options;
    options.shard_index = shard;
    options.num_shards = 2;
    OnlineDetector detector(registry_.get(), options);
    ASSERT_TRUE(detector.LoadPatterns(
      std::make_shared<const PatternSnapshot>(snapshot_)).ok());
    std::vector<OnlineAlert> alerts;
    ASSERT_TRUE(detector.FinishStream(&alerts).ok());
    for (const OnlineAlert& alert : alerts) seen.push_back(alert.pattern_id);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace wiclean
