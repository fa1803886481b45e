#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
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

/// Distinct codes shaped like canonical pattern codes: a size word, type
/// words, a source word and action words, of varying length. Some share
/// every word but the last, or are prefixes of one another.
std::vector<uint64_t> CodeOf(int i) {
  const uint64_t actions = 1 + static_cast<uint64_t>(i % 5);
  std::vector<uint64_t> code = {uint64_t{3} << 32 | actions,
                                static_cast<uint64_t>(i % 7) << 32 | 2, 1};
  for (uint64_t a = 0; a + 1 < actions; ++a) code.push_back(a << 16 | 1);
  code.push_back(static_cast<uint64_t>(i / 5) << 32 | 2);
  return code;
}

uint64_t HashOf(const std::vector<uint64_t>& code) { return HashWords(code); }

TEST(EvaluationCacheTest, FindsEveryKeyThroughGrowth) {
  EvaluationCache cache;
  EXPECT_EQ(cache.size(), 0u);
  const std::vector<uint64_t> absent = {42};
  EXPECT_EQ(cache.Find(absent, HashOf(absent)), EvaluationCache::kAbsent);
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    const std::vector<uint64_t> code = CodeOf(i);
    const uint64_t hash = HashOf(code);
    ASSERT_EQ(cache.Find(code, hash), EvaluationCache::kAbsent) << i;
    const EvaluationCache::Id id =
        cache.Insert(code, hash, i / double{kKeys}, static_cast<size_t>(i));
    EXPECT_EQ(id, static_cast<EvaluationCache::Id>(i));
    // Every earlier code is still found after each insert (and growth).
    if (i % 997 == 0) {
      for (int j = 0; j <= i; ++j) {
        const std::vector<uint64_t> earlier = CodeOf(j);
        ASSERT_EQ(cache.Find(earlier, HashOf(earlier)),
                  static_cast<EvaluationCache::Id>(j));
      }
    }
  }
  ASSERT_EQ(cache.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const std::vector<uint64_t> code = CodeOf(i);
    const EvaluationCache::Id id = cache.Find(code, HashOf(code));
    ASSERT_EQ(id, static_cast<EvaluationCache::Id>(i));
    EXPECT_TRUE(std::ranges::equal(cache.code(id), code));
    EXPECT_EQ(cache.hash(id), HashOf(code));
    EXPECT_EQ(cache.state(id).support, static_cast<size_t>(i));
    EXPECT_EQ(cache.state(id).frequency, i / double{kKeys});
    EXPECT_FALSE(cache.state(id).frequent);
    EXPECT_EQ(cache.state(id).realized, nullptr);
  }
  // A proper prefix and an extension of a stored code are absent.
  std::vector<uint64_t> prefix = CodeOf(0);
  prefix.pop_back();
  EXPECT_EQ(cache.Find(prefix, HashOf(prefix)), EvaluationCache::kAbsent);
  std::vector<uint64_t> longer = CodeOf(0);
  longer.push_back(0);
  EXPECT_EQ(cache.Find(longer, HashOf(longer)), EvaluationCache::kAbsent);
}

TEST(EvaluationCacheTest, EqualHashesAreToldApartByKey) {
  // Entries whose stored hashes collide (a caller-supplied hash) share probe
  // chains; lookups must still compare code words, and lengths.
  EvaluationCache cache;
  const std::vector<uint64_t> alpha = {1, 2, 3};
  const std::vector<uint64_t> beta = {1, 2, 4};
  const std::vector<uint64_t> alpha_prefix = {1, 2};
  const EvaluationCache::Id a = cache.Insert(alpha, 42, 0.5, 1);
  const EvaluationCache::Id b = cache.Insert(beta, 42, 0.25, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.Find(alpha, 42), a);
  EXPECT_EQ(cache.Find(beta, 42), b);
  EXPECT_EQ(cache.Find(alpha_prefix, 42), EvaluationCache::kAbsent);
  EXPECT_EQ(cache.Find(std::vector<uint64_t>{1, 2, 5}, 42),
            EvaluationCache::kAbsent);
}

TEST(EvaluationCacheTest, IdsVisitEachEntryOnceAndKeptStateIsStable) {
  EvaluationCache cache;
  std::vector<const EvaluationCache::Realized*> kept;
  for (int i = 0; i < 3000; ++i) {
    const std::vector<uint64_t> code = CodeOf(i);
    const EvaluationCache::Id id = cache.Insert(code, HashOf(code), 0.0, 0);
    if (i % 3 == 0) {
      Pattern p;
      p.AddVar(static_cast<TypeId>(i));
      relational::Table table(1);
      table.AppendInt64Row({i});
      cache.Keep(id,
                 EvaluationCache::Realized{std::move(p), std::move(table)});
      kept.push_back(cache.state(id).realized);
    }
  }
  // Kept patterns and tables never move while the cache grows.
  std::set<std::vector<uint64_t>> seen;
  size_t with_table = 0;
  for (EvaluationCache::Id id = 0; id < cache.size(); ++id) {
    const std::span<const uint64_t> code = cache.code(id);
    EXPECT_TRUE(seen.emplace(code.begin(), code.end()).second);
    EXPECT_EQ(cache.Find(code, cache.hash(id)), id);
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

TEST(CodeTableTest, ClearForgetsCodesAndRenumbers) {
  CodeTable table;
  for (int round = 0; round < 3; ++round) {
    // Each round inserts a different number of codes into the cleared
    // table, so slots left from a larger round must read as empty.
    const int count = 700 - 300 * round;
    for (int i = 0; i < count; ++i) {
      const std::vector<uint64_t> code = CodeOf(i + 1000 * round);
      ASSERT_EQ(table.Find(code, HashOf(code)), CodeTable::kAbsent);
      ASSERT_EQ(table.Insert(code, HashOf(code)),
                static_cast<CodeTable::Id>(i));
    }
    ASSERT_EQ(table.size(), static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      const std::vector<uint64_t> code = CodeOf(i + 1000 * round);
      ASSERT_EQ(table.Find(code, HashOf(code)), static_cast<CodeTable::Id>(i));
    }
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    const std::vector<uint64_t> first = CodeOf(1000 * round);
    EXPECT_EQ(table.Find(first, HashOf(first)), CodeTable::kAbsent);
  }
}

TEST(ExtensionBoundsTest, KeysAreToldApartAndKeepTheLowerBound) {
  ExtensionBounds bounds;
  bounds.SyncTo(7, 3);
  EXPECT_EQ(bounds.first_id(), 3u);
  // Keys differing in one field each, glue target -1 included, through
  // several growths of the slot array.
  std::vector<ExtensionBounds::Key> keys;
  for (uint32_t base = 0; base < 40; ++base) {
    for (uint32_t action = 0; action < 5; ++action) {
      for (int32_t source = 0; source < 3; ++source) {
        for (int32_t target = -1; target < 2; ++target) {
          keys.push_back({base, action, source, target});
        }
      }
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(bounds.Find(keys[i]), nullptr);
    bounds.Record(keys[i], static_cast<double>(i));
  }
  EXPECT_EQ(bounds.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const double* bound = bounds.Find(keys[i]);
    ASSERT_NE(bound, nullptr);
    EXPECT_EQ(*bound, static_cast<double>(i));
  }
  // A second record of a key keeps the lower bound.
  bounds.Record(keys[5], 100.0);
  bounds.Record(keys[6], 0.5);
  EXPECT_EQ(*bounds.Find(keys[5]), 5.0);
  EXPECT_EQ(*bounds.Find(keys[6]), 0.5);
  EXPECT_EQ(bounds.size(), keys.size());

  // Syncing to the same state keeps everything; a new state forgets it all
  // and notes the cache size it starts at.
  bounds.SyncTo(7, 50);
  EXPECT_EQ(bounds.first_id(), 3u);
  EXPECT_NE(bounds.Find(keys[0]), nullptr);
  bounds.SyncTo(9, 50);
  EXPECT_EQ(bounds.first_id(), 50u);
  EXPECT_EQ(bounds.size(), 0u);
  for (const ExtensionBounds::Key& key : keys) {
    EXPECT_EQ(bounds.Find(key), nullptr);
  }
  bounds.Record(keys[1], 0.25);
  EXPECT_EQ(*bounds.Find(keys[1]), 0.25);
  EXPECT_EQ(bounds.Find(keys[2]), nullptr);
}

}  // namespace
}  // namespace wiclean
