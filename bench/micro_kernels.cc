// Micro-benchmarks (google-benchmark) for the hot kernels behind the paper's
// two optimizations: the join engines used for pattern-realization tables
// (hash vs nested loop — the PM vs PM−join ablation at operator granularity),
// the full outer join behind Algorithm 3, the action-reduction step, and
// pattern canonicalization (the canonical code the miner keys its cache by).

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/rng.h"
#include "core/pattern.h"
#include "relational/ops.h"
#include "revision/revision_store.h"

namespace wiclean {
namespace {

namespace rel = ::wiclean::relational;

rel::Table RandomPairs(Rng* rng, size_t rows, int64_t domain) {
  rel::Schema schema;
  schema.AddField(rel::Field{"u", rel::DataType::kInt64});
  schema.AddField(rel::Field{"v", rel::DataType::kInt64});
  rel::Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    t.AppendInt64Row({static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(domain))});
  }
  return t;
}

void BM_HashJoin(benchmark::State& state) {
  Rng rng(1);
  size_t n = static_cast<size_t>(state.range(0));
  rel::Table left = RandomPairs(&rng, n, static_cast<int64_t>(n));
  rel::Table right = RandomPairs(&rng, n, static_cast<int64_t>(n));
  rel::JoinSpec spec;
  spec.equal_cols = {{1, 0}};
  for (auto _ : state) {
    auto out = rel::HashJoin(left, right, spec);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HashJoin)->Range(256, 16384);

void BM_NestedLoopJoin(benchmark::State& state) {
  Rng rng(1);
  size_t n = static_cast<size_t>(state.range(0));
  rel::Table left = RandomPairs(&rng, n, static_cast<int64_t>(n));
  rel::Table right = RandomPairs(&rng, n, static_cast<int64_t>(n));
  rel::JoinSpec spec;
  spec.equal_cols = {{1, 0}};
  for (auto _ : state) {
    auto out = rel::NestedLoopJoin(left, right, spec);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NestedLoopJoin)->Range(256, 4096);

void BM_FullOuterJoin(benchmark::State& state) {
  Rng rng(2);
  size_t n = static_cast<size_t>(state.range(0));
  rel::Table left = RandomPairs(&rng, n, static_cast<int64_t>(2 * n));
  rel::Table right = RandomPairs(&rng, n, static_cast<int64_t>(2 * n));
  rel::JoinSpec spec;
  spec.equal_cols = {{1, 0}};
  for (auto _ : state) {
    auto out = rel::FullOuterJoin(left, right, spec);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FullOuterJoin)->Range(256, 16384);

void BM_ReduceActions(benchmark::State& state) {
  Rng rng(3);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Action> soup;
  soup.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Action a;
    a.op = rng.NextBernoulli(0.5) ? EditOp::kAdd : EditOp::kRemove;
    a.subject = static_cast<EntityId>(rng.NextBelow(n / 4 + 1));
    a.relation = "relation" + std::to_string(rng.NextBelow(4));
    a.object = static_cast<EntityId>(rng.NextBelow(n / 4 + 1));
    a.time = static_cast<Timestamp>(rng.NextBelow(1'000'000));
    soup.push_back(std::move(a));
  }
  for (auto _ : state) {
    auto out = ReduceActions(soup);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ReduceActions)->Range(256, 16384);

void BM_CanonicalCode(benchmark::State& state) {
  // A transfer-with-league pattern: 5 variables, 6 actions, with a club and
  // a league variable pair of equal types (worst case for the permutation
  // canonicalizer at realistic pattern sizes). Times what the miner pays per
  // candidate for its cache identity: the code and its hash.
  TypeTaxonomy taxonomy;
  TypeId thing = *taxonomy.AddRoot("thing");
  TypeId player = *taxonomy.AddType("player", thing);
  TypeId club = *taxonomy.AddType("club", thing);
  TypeId league = *taxonomy.AddType("league", thing);
  Pattern p;
  int pl = p.AddVar(player);
  int c1 = p.AddVar(club);
  int c2 = p.AddVar(club);
  int l1 = p.AddVar(league);
  int l2 = p.AddVar(league);
  (void)p.AddAction(EditOp::kAdd, pl, "current_club", c1);
  (void)p.AddAction(EditOp::kRemove, pl, "current_club", c2);
  (void)p.AddAction(EditOp::kAdd, c1, "squad", pl);
  (void)p.AddAction(EditOp::kRemove, c2, "squad", pl);
  (void)p.AddAction(EditOp::kAdd, pl, "in_league", l1);
  (void)p.AddAction(EditOp::kRemove, pl, "in_league", l2);
  (void)p.SetSourceVar(pl);
  RelationTable relations;
  for (const char* name : {"current_club", "squad", "in_league"}) {
    relations.Intern(name);
  }
  std::vector<uint64_t> code;
  for (auto _ : state) {
    if (!p.CanonicalCode(relations, &code)) state.SkipWithError("unknown");
    benchmark::DoNotOptimize(HashWords(code));
  }
}
BENCHMARK(BM_CanonicalCode);

void BM_IsSpecializationOf(benchmark::State& state) {
  TypeTaxonomy taxonomy;
  TypeId thing = *taxonomy.AddRoot("thing");
  TypeId player = *taxonomy.AddType("player", thing);
  TypeId club = *taxonomy.AddType("club", thing);
  Pattern big;
  int pl = big.AddVar(player);
  int c1 = big.AddVar(club);
  int c2 = big.AddVar(club);
  (void)big.AddAction(EditOp::kAdd, pl, "current_club", c1);
  (void)big.AddAction(EditOp::kRemove, pl, "current_club", c2);
  (void)big.AddAction(EditOp::kAdd, c1, "squad", pl);
  (void)big.AddAction(EditOp::kRemove, c2, "squad", pl);
  (void)big.SetSourceVar(pl);
  Pattern small;
  pl = small.AddVar(player);
  int c = small.AddVar(club);
  (void)small.AddAction(EditOp::kAdd, pl, "current_club", c);
  (void)small.SetSourceVar(pl);
  for (auto _ : state) {
    bool result = IsSpecializationOf(big, small, taxonomy);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_IsSpecializationOf);

}  // namespace
}  // namespace wiclean

BENCHMARK_MAIN();
