#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/action_index.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_action_index.h"

namespace wiclean {
namespace {

class ActionIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    athlete_ = *tax_.AddType("athlete", person_);
    player_ = *tax_.AddType("player", athlete_);
    club_ = *tax_.AddType("club", thing_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);
    p0_ = *registry_->Register("P0", player_);
    p1_ = *registry_->Register("P1", player_);
    c0_ = *registry_->Register("C0", club_);
  }

  void Add(EntityId subject, const std::string& relation, EntityId object,
           Timestamp time, EditOp op = EditOp::kAdd) {
    store_.Add(Action{op, relation, subject, object, time});
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, athlete_, player_, club_;
  std::unique_ptr<EntityRegistry> registry_;
  RevisionStore store_;
  EntityId p0_, p1_, c0_;
};

TEST_F(ActionIndexTest, KeyEncodingIsInjective) {
  // == and the one key hash each tell every field apart, including the two
  // type fields swapped and a type id whose decimal spelling prefixes
  // another's.
  const AbstractActionKey a{EditOp::kAdd, 1, "r", 2};
  const AbstractActionKey others[] = {
      {EditOp::kRemove, 1, "r", 2}, {EditOp::kAdd, 12, "r", 2},
      {EditOp::kAdd, 1, "r2", 2},   {EditOp::kAdd, 1, "r", 21},
      {EditOp::kAdd, 2, "r", 1},
  };
  const AbstractActionKeyHash hash;
  for (const AbstractActionKey& b : others) {
    EXPECT_FALSE(a == b);
    EXPECT_NE(hash(a), hash(b));
  }
  const AbstractActionKey same{EditOp::kAdd, 1, "r", 2};
  EXPECT_TRUE(a == same);
  EXPECT_EQ(hash(a), hash(same));
}

TEST_F(ActionIndexTest, EntryIdsSurviveLaterIngestion) {
  Add(p0_, "current_club", c0_, 10);
  Add(p1_, "current_club", c0_, 11);
  Add(c0_, "squad", p0_, 12);
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 1);
  index.AddEntities({p0_});
  const AbstractActionKey key{EditOp::kAdd, player_, "current_club", club_};
  const AbstractActionEntry* entry = index.Find(key);
  ASSERT_NE(entry, nullptr);
  const size_t id = entry - index.entries().data();
  const size_t entries_before = index.entries().size();
  ASSERT_EQ(entry->realizations.num_rows(), 1u);

  // player brings P1's row to the same entry; thing brings the club's squad
  // edit, which files under new keys only.
  EXPECT_EQ(index.AddEntitiesOfType(player_), 1u);
  EXPECT_EQ(index.AddEntitiesOfType(thing_), 1u);
  ASSERT_GT(index.entries().size(), entries_before);
  entry = index.Find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(static_cast<size_t>(entry - index.entries().data()), id);
  EXPECT_EQ(entry->key, key);
  // Rows only grow: the first ingestion's row keeps its place.
  ASSERT_EQ(entry->realizations.num_rows(), 2u);
  EXPECT_EQ(entry->realizations.column(0).Int64At(0), p0_);
  EXPECT_EQ(entry->realizations.column(0).Int64At(1), p1_);
  // Every entry sits at its id, and Find reaches it by key.
  for (size_t i = 0; i < index.entries().size(); ++i) {
    EXPECT_EQ(index.Find(index.entries()[i].key), &index.entries()[i]);
  }
}

TEST_F(ActionIndexTest, AddEntitiesOfTypeIngestsEachTypeOnce) {
  Add(p0_, "current_club", c0_, 10);
  Add(c0_, "squad", p0_, 11);
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 1);
  EXPECT_EQ(index.AddEntitiesOfType(player_), 2u);
  EXPECT_EQ(index.AddEntitiesOfType(player_), 0u);
  EXPECT_EQ(index.num_actions_ingested(), 1u);
  // thing = every entity; only the club is new. person adds nothing.
  EXPECT_EQ(index.AddEntitiesOfType(thing_), 1u);
  EXPECT_EQ(index.AddEntitiesOfType(person_), 0u);
  EXPECT_EQ(index.num_entities_ingested(), 3u);
  EXPECT_EQ(index.num_actions_ingested(), 2u);
  EXPECT_EQ(index.max_abstraction_lift(), 1);
}

TEST_F(ActionIndexTest, AbstractionLevelsRespectLift) {
  Add(p0_, "current_club", c0_, 10);
  // player has ancestors player < athlete < person < thing; club < thing.
  {
    ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100},
                      /*max_abstraction_lift=*/0);
    index.AddEntities({p0_});
    // Base types only: 1 entry.
    EXPECT_EQ(index.entries().size(), 1u);
  }
  {
    ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100},
                      /*max_abstraction_lift=*/1);
    index.AddEntities({p0_});
    // Source at {player, athlete} x target at {club, thing} = 4 entries.
    EXPECT_EQ(index.entries().size(), 4u);
  }
  {
    ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100},
                      /*max_abstraction_lift=*/3);
    index.AddEntities({p0_});
    // Source at 4 levels x target capped at 2 levels = 8 entries.
    EXPECT_EQ(index.entries().size(), 8u);
  }
}

TEST_F(ActionIndexTest, RealizationRowsCarryTimestamps) {
  Add(p0_, "current_club", c0_, 42);
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 0);
  index.AddEntities({p0_});
  const AbstractActionEntry& entry = index.entries().front();
  ASSERT_EQ(entry.realizations.num_rows(), 1u);
  EXPECT_EQ(entry.realizations.column(0).Int64At(0), p0_);
  EXPECT_EQ(entry.realizations.column(1).Int64At(0), c0_);
  EXPECT_EQ(entry.realizations.column(2).Int64At(0), 42);
}

TEST_F(ActionIndexTest, IngestionIsIdempotentPerEntity) {
  Add(p0_, "current_club", c0_, 10);
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 0);
  EXPECT_EQ(index.AddEntities({p0_}), 1u);
  EXPECT_EQ(index.AddEntities({p0_}), 0u);  // already ingested
  EXPECT_EQ(index.AddEntities({p0_, p1_}), 1u);
  EXPECT_TRUE(index.HasEntity(p0_));
  EXPECT_EQ(index.num_entities_ingested(), 2u);
  const AbstractActionEntry& entry = index.entries().front();
  EXPECT_EQ(entry.realizations.num_rows(), 1u);  // no duplicate rows
}

TEST_F(ActionIndexTest, WindowFiltersAndReduces) {
  Add(p0_, "current_club", c0_, 10);
  Add(p0_, "current_club", c0_, 20, EditOp::kRemove);  // cancels within window
  Add(p1_, "current_club", c0_, 150);                  // outside window
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 0);
  index.AddEntities({p0_, p1_});
  EXPECT_TRUE(index.entries().empty());
  EXPECT_EQ(index.num_actions_ingested(), 0u);
}

TEST_F(ActionIndexTest, FilterRealizationsByBindings) {
  Add(p0_, "current_club", c0_, 10);
  Add(p1_, "current_club", c0_, 11);
  ActionIndex index(registry_.get(), &store_, TimeWindow{0, 100}, 0);
  index.AddEntities({p0_, p1_});
  const relational::Table& all = index.entries().front().realizations;
  ASSERT_EQ(all.num_rows(), 2u);

  relational::Table only_p0 =
      FilterRealizationsByBindings(all, p0_, kInvalidEntityId);
  ASSERT_EQ(only_p0.num_rows(), 1u);
  EXPECT_EQ(only_p0.column(0).Int64At(0), p0_);

  relational::Table both_free =
      FilterRealizationsByBindings(all, kInvalidEntityId, kInvalidEntityId);
  EXPECT_EQ(both_free.num_rows(), 2u);

  relational::Table none =
      FilterRealizationsByBindings(all, p0_, p1_);  // mismatched pair
  EXPECT_EQ(none.num_rows(), 0u);
}

/// The library index must hold exactly the reference's entries — the same
/// keys, each with the same rows in the same order — and counters, and Find
/// must reach each entry. Entry order is the library's ingestion order and
/// the reference's key order, so entries are matched by key.
void ExpectSameIndex(const ActionIndex& got, const ReferenceActionIndex& want) {
  EXPECT_EQ(got.num_entities_ingested(), want.num_entities_ingested());
  EXPECT_EQ(got.num_actions_ingested(), want.num_actions_ingested());
  ASSERT_EQ(got.entries().size(), want.entries().size());
  for (const auto& [name, want_entry] : want.entries()) {
    const AbstractActionEntry* entry = got.Find(want_entry.key);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->key, want_entry.key) << name;
    const relational::Table& rows = entry->realizations;
    const relational::Table& want_rows = want_entry.realizations;
    ASSERT_EQ(rows.num_rows(), want_rows.num_rows()) << name;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(rows.column(c).int64_data(), want_rows.column(c).int64_data())
          << name << " column " << c;
    }
  }
}

TEST(ActionIndexOracleTest, MatchesReferenceIngestOnSynthWorlds) {
  for (uint64_t seed : {5u, 23u, 61u}) {
    SynthOptions so;
    so.seed_entities = 40;
    so.years = 1;
    so.rng_seed = seed;
    so.cinema = seed != 23;
    so.background_entities = 30;
    Result<SynthWorld> world = Synthesize(so);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    const size_t num_entities = world->registry->size();
    Rng rng(seed);
    for (int lift : {0, 1, 2}) {
      const TimeWindow windows[] = {
          world->YearWindow(0),
          world->WindowOf(static_cast<int>(rng.NextBelow(20)))};
      for (const TimeWindow& window : windows) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " lift " +
                     std::to_string(lift) + " window " + window.ToString());
        ActionIndex got(world->registry.get(), &world->store, window, lift);
        ReferenceActionIndex want(world->registry.get(), &world->store,
                                  window, lift);
        std::vector<TypeId> types(world->taxonomy->num_types());
        std::iota(types.begin(), types.end(), 0);
        rng.Shuffle(&types);
        // Every type once, in random order, with random entity batches
        // interleaved: the two indexes must agree after every call.
        for (TypeId t : types) {
          if (rng.NextBernoulli(0.3)) {
            std::vector<EntityId> batch;
            for (int k = 0; k < 5; ++k) {
              batch.push_back(static_cast<EntityId>(rng.NextBelow(num_entities)));
            }
            EXPECT_EQ(got.AddEntities(batch), want.AddEntities(batch));
          }
          EXPECT_EQ(got.AddEntitiesOfType(t), want.AddEntitiesOfType(t));
          ExpectSameIndex(got, want);
        }
        if (window == world->YearWindow(0)) {
          EXPECT_FALSE(got.entries().empty());
        }
        EXPECT_EQ(got.Find({EditOp::kAdd, 0, "no_such_relation", 0}), nullptr);
      }
    }
  }
}

}  // namespace
}  // namespace wiclean
