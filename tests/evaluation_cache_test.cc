#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/evaluation_cache.h"

namespace wiclean {
namespace {

TEST(PairHashSetTest, ExtremeHashesAreOrdinaryMembers) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  PairHashSet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(kMax));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(kMax));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Insert(kMax));
  EXPECT_FALSE(set.Insert(kMax));
  EXPECT_TRUE(set.Contains(kMax));
  EXPECT_EQ(set.size(), 2u);

  // Zero held before the first slot array exists survives growth.
  PairHashSet late;
  EXPECT_TRUE(late.Insert(kMax));
  for (uint64_t v = 1; v <= 1000; ++v) EXPECT_TRUE(late.Insert(v << 20));
  EXPECT_FALSE(late.Contains(0));
  EXPECT_TRUE(late.Insert(0));
  for (uint64_t v = 1001; v <= 2000; ++v) EXPECT_TRUE(late.Insert(v << 20));
  EXPECT_TRUE(late.Contains(0));
  EXPECT_TRUE(late.Contains(kMax));
  EXPECT_EQ(late.size(), 2002u);
}

TEST(PairHashSetTest, MatchesStdSetThroughGrowth) {
  Rng rng(7);
  PairHashSet set;
  std::unordered_set<uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    // A narrow range forces repeats; the high bits vary too, as in
    // HashCombine outputs.
    const uint64_t v = rng.NextBelow(8192) * 0x100000001ULL;
    EXPECT_EQ(set.Insert(v), reference.insert(v).second) << v;
    ASSERT_EQ(set.size(), reference.size());
  }
  for (uint64_t v = 0; v < 9000; ++v) {
    const uint64_t probe = v * 0x100000001ULL;
    EXPECT_EQ(set.Contains(probe), reference.count(probe) > 0) << probe;
  }
}

/// Distinct keys that look like canonical pattern keys.
std::string KeyOf(int i) {
  return "src=0:" + std::to_string(i % 7) + "|+ 0:" + std::to_string(i % 7) +
         " rel" + std::to_string(i) + " 1:" + std::to_string(i / 7);
}

TEST(EvaluationCacheTest, FindsEveryKeyThroughGrowth) {
  EvaluationCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find("absent"), EvaluationCache::kAbsent);
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = KeyOf(i);
    const uint64_t hash = EvaluationCache::HashKey(key);
    ASSERT_EQ(cache.Find(key, hash), EvaluationCache::kAbsent) << key;
    const EvaluationCache::Id id =
        cache.Insert(key, hash, i / double{kKeys}, static_cast<size_t>(i));
    EXPECT_EQ(id, static_cast<EvaluationCache::Id>(i));
    // Every earlier key is still found after each insert (and growth).
    if (i % 997 == 0) {
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(cache.Find(KeyOf(j)), static_cast<EvaluationCache::Id>(j));
      }
    }
  }
  ASSERT_EQ(cache.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = KeyOf(i);
    const EvaluationCache::Id id = cache.Find(key);
    ASSERT_EQ(id, static_cast<EvaluationCache::Id>(i));
    EXPECT_EQ(cache.key(id), key);
    EXPECT_EQ(cache.hash(id), Fnv1a64(key));
    EXPECT_EQ(cache.state(id).support, static_cast<size_t>(i));
    EXPECT_EQ(cache.state(id).frequency, i / double{kKeys});
    EXPECT_FALSE(cache.state(id).frequent);
    EXPECT_EQ(cache.state(id).realized, nullptr);
  }
  EXPECT_EQ(cache.Find("src=0:0"), EvaluationCache::kAbsent);
  EXPECT_EQ(cache.Find(KeyOf(0) + "x"), EvaluationCache::kAbsent);
}

TEST(EvaluationCacheTest, EqualHashesAreToldApartByKey) {
  // Entries whose stored hashes collide (a caller-supplied hash) share probe
  // chains; lookups must still compare keys.
  EvaluationCache cache;
  const EvaluationCache::Id a = cache.Insert("alpha", 42, 0.5, 1);
  const EvaluationCache::Id b = cache.Insert("beta", 42, 0.25, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.Find("alpha", 42), a);
  EXPECT_EQ(cache.Find("beta", 42), b);
  EXPECT_EQ(cache.Find("gamma", 42), EvaluationCache::kAbsent);
}

TEST(EvaluationCacheTest, IdsVisitEachEntryOnceAndKeptStateIsStable) {
  EvaluationCache cache;
  std::vector<const EvaluationCache::Realized*> kept;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = KeyOf(i);
    const EvaluationCache::Id id =
        cache.Insert(key, EvaluationCache::HashKey(key), 0.0, 0);
    if (i % 3 == 0) {
      Pattern p;
      p.AddVar(static_cast<TypeId>(i));
      relational::Schema schema;
      schema.AddField(relational::Field{"v0", relational::DataType::kInt64});
      relational::Table table(schema);
      table.AppendInt64Row({i});
      cache.Keep(id, std::move(p), std::move(table));
      kept.push_back(cache.state(id).realized);
    }
  }
  // Kept patterns and tables never move while the cache grows.
  std::set<std::string> seen;
  size_t with_table = 0;
  for (EvaluationCache::Id id = 0; id < cache.size(); ++id) {
    EXPECT_TRUE(seen.insert(std::string(cache.key(id))).second);
    EXPECT_EQ(cache.Find(cache.key(id)), id);
    const EvaluationCache::Realized* r = cache.state(id).realized;
    if (id % 3 != 0) {
      EXPECT_EQ(r, nullptr);
      continue;
    }
    ASSERT_EQ(r, kept[id / 3]);
    EXPECT_EQ(r->pattern.var_type(0), static_cast<TypeId>(id));
    EXPECT_EQ(r->realizations.column(0).Int64At(0), static_cast<int64_t>(id));
    ++with_table;
  }
  EXPECT_EQ(seen.size(), 3000u);
  EXPECT_EQ(with_table, 1000u);
}

}  // namespace
}  // namespace wiclean
