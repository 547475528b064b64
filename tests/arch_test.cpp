#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "arch/architecture.h"
#include "arch/fabricpp.h"
#include "arch/reorder.h"
#include "arch/xov.h"
#include "common/rng.h"
#include "store/kv_store.h"

namespace pbc::arch {
namespace {

using txn::Op;
using txn::Transaction;

Transaction T(txn::TxnId id, std::vector<Op> ops) {
  Transaction t;
  t.id = id;
  t.ops = std::move(ops);
  return t;
}

std::vector<Transaction> DisjointBlock(int n, txn::TxnId base = 0) {
  std::vector<Transaction> block;
  for (int i = 0; i < n; ++i) {
    block.push_back(
        T(base + i, {Op::Increment("key" + std::to_string(i), 1)}));
  }
  return block;
}

// Block where every transaction increments the same hot key.
std::vector<Transaction> HotBlock(int n, txn::TxnId base = 0) {
  std::vector<Transaction> block;
  for (int i = 0; i < n; ++i) {
    block.push_back(T(base + i, {Op::Increment("hot", 1)}));
  }
  return block;
}

// Random block of `n` txns over `keys` keys, 1–3 Read/Write/Increment
// ops each.
std::vector<Transaction> RandomBlock(Rng* rng, size_t n, uint64_t keys,
                                     txn::TxnId base) {
  std::vector<Transaction> block;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Op> ops;
    size_t num_ops = 1 + rng->NextU64(3);
    for (size_t o = 0; o < num_ops; ++o) {
      std::string k = "k" + std::to_string(rng->NextU64(keys));
      switch (rng->NextU64(3)) {
        case 0:
          ops.push_back(Op::Read(k));
          break;
        case 1:
          ops.push_back(Op::Write(k, "v" + std::to_string(rng->NextU64())));
          break;
        default:
          ops.push_back(Op::Increment(k, 1 + rng->NextU64(9)));
      }
    }
    block.push_back(T(base + i, std::move(ops)));
  }
  return block;
}

// Canonical latest-state dump, so "same state" comparisons are literal
// byte comparisons.
std::string DumpState(const store::KvStore& s) {
  std::string out;
  s.ForEachLatest(
      [&out](const store::Key& k, const store::VersionedValue& v) {
        out += k + "=" + v.value + "@" + std::to_string(v.version) + ";";
      });
  out += "last=" + std::to_string(s.last_committed());
  return out;
}

template <typename A>
std::unique_ptr<A> Make(ThreadPool* pool) {
  return std::make_unique<A>(pool);
}

// ---------------------------------------------------------------------------
// Shared behaviours.
// ---------------------------------------------------------------------------

template <typename A>
class ArchCommonTest : public ::testing::Test {};
using AllArchitectures =
    ::testing::Types<OxArchitecture, OxiiArchitecture, XovArchitecture,
                     FastFabricArchitecture, XoxArchitecture,
                     FabricPPArchitecture, FabricSharpArchitecture>;
TYPED_TEST_SUITE(ArchCommonTest, AllArchitectures);

TYPED_TEST(ArchCommonTest, CommitsDisjointBlockEntirely) {
  ThreadPool pool(4);
  auto arch = Make<TypeParam>(&pool);
  arch->ProcessBlock(DisjointBlock(20));
  EXPECT_EQ(arch->stats().committed, 20u);
  EXPECT_EQ(arch->stats().aborted, 0u);
  for (int i = 0; i < 20; ++i) {
    auto v = arch->store().Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(txn::DecodeInt(v.ValueOrDie().value), 1);
  }
}

TYPED_TEST(ArchCommonTest, LedgerRecordsCommittedTxns) {
  ThreadPool pool(4);
  auto arch = Make<TypeParam>(&pool);
  arch->ProcessBlock(DisjointBlock(5));
  arch->ProcessBlock(DisjointBlock(5, /*base=*/100));
  EXPECT_EQ(arch->chain().height(), 2u);
  EXPECT_TRUE(arch->chain().Audit().ok());
  EXPECT_EQ(arch->chain().at(0).txns.size(), 5u);
}

TYPED_TEST(ArchCommonTest, EmptyBlockIsHarmless) {
  ThreadPool pool(2);
  auto arch = Make<TypeParam>(&pool);
  arch->ProcessBlock(std::vector<Transaction>{});
  EXPECT_EQ(arch->stats().committed, 0u);
  EXPECT_EQ(arch->chain().height(), 0u);
}

// Deterministic-outcome architectures (pessimistic or re-executing) must
// match OX's final state exactly on any workload.
template <typename A>
class DeterministicArchTest : public ::testing::Test {};
using DeterministicArchitectures =
    ::testing::Types<OxiiArchitecture, XoxArchitecture>;
TYPED_TEST_SUITE(DeterministicArchTest, DeterministicArchitectures);

TYPED_TEST(DeterministicArchTest, MatchesOxOnContendedWorkload) {
  ThreadPool pool(4);
  OxArchitecture ox(&pool);
  auto arch = Make<TypeParam>(&pool);

  Rng rng(7);
  for (int b = 0; b < 5; ++b) {
    std::vector<Transaction> block;
    for (int i = 0; i < 30; ++i) {
      std::string k = "k" + std::to_string(rng.NextU64(6));
      block.push_back(T(b * 100 + i, {Op::Increment(k, 1)}));
    }
    ox.ProcessBlock(block);
    arch->ProcessBlock(block);
  }
  // XOX re-executes conflicting increments serially; OXII serializes them
  // through the dependency graph. Both preserve all effects.
  EXPECT_TRUE(ox.store().SameLatestState(arch->store()));
}

// ---------------------------------------------------------------------------
// Contention behaviour (the survey's §2.3.3 discussion).
// ---------------------------------------------------------------------------

TEST(XovTest, HotBlockAbortsAllButOne) {
  ThreadPool pool(4);
  XovArchitecture xov(&pool);
  xov.ProcessBlock(HotBlock(10));
  // All ten endorsed against the same snapshot; the first commit bumps the
  // hot key's version, invalidating the other nine.
  EXPECT_EQ(xov.stats().committed, 1u);
  EXPECT_EQ(xov.stats().aborted, 9u);
  EXPECT_EQ(txn::DecodeInt(xov.store().Get("hot").ValueOrDie().value), 1);
}

TEST(XovTest, OxiiCommitsSameHotBlockFully) {
  ThreadPool pool(4);
  OxiiArchitecture oxii(&pool);
  oxii.ProcessBlock(HotBlock(10));
  EXPECT_EQ(oxii.stats().committed, 10u);
  EXPECT_EQ(txn::DecodeInt(oxii.store().Get("hot").ValueOrDie().value), 10);
}

TEST(XovTest, CrossBlockStalenessDetected) {
  ThreadPool pool(2);
  XovArchitecture xov(&pool);
  xov.ProcessBlock({T(1, {Op::Write("k", "v1")})});
  // Reads k at version 1, then a conflicting write in the same block from
  // an earlier transaction — version check fails for the reader.
  xov.ProcessBlock({T(2, {Op::Write("k", "v2")}),
                    T(3, {Op::Read("k"), Op::Write("out", "x")})});
  EXPECT_EQ(xov.stats().aborted, 1u);
  EXPECT_FALSE(xov.store().Get("out").ok());
}

TEST(XovTest, BlindWritesNeverConflict) {
  ThreadPool pool(2);
  XovArchitecture xov(&pool);
  std::vector<Transaction> block;
  for (int i = 0; i < 8; ++i) {
    block.push_back(T(i, {Op::Write("k", "v" + std::to_string(i))}));
  }
  xov.ProcessBlock(block);
  // Fabric's MVCC check validates reads only; blind writes all pass.
  EXPECT_EQ(xov.stats().committed, 8u);
  EXPECT_EQ(xov.store().Get("k").ValueOrDie().value, "v7");
}

TEST(XoxTest, ReexecutesInsteadOfAborting) {
  ThreadPool pool(4);
  XoxArchitecture xox(&pool);
  xox.ProcessBlock(HotBlock(10));
  EXPECT_EQ(xox.stats().committed, 10u);
  EXPECT_EQ(xox.stats().aborted, 0u);
  EXPECT_EQ(xox.stats().reexecuted, 9u);
  EXPECT_EQ(txn::DecodeInt(xox.store().Get("hot").ValueOrDie().value), 10);
}

TEST(FastFabricTest, SameSemanticsAsXov) {
  ThreadPool pool(4);
  XovArchitecture xov(&pool, /*validation_cost_rounds=*/50);
  FastFabricArchitecture ff(&pool, /*validation_cost_rounds=*/50);
  Rng rng(11);
  for (int b = 0; b < 4; ++b) {
    std::vector<Transaction> block;
    for (int i = 0; i < 25; ++i) {
      std::string k = "k" + std::to_string(rng.NextU64(8));
      block.push_back(
          T(b * 100 + i, {Op::Read(k), Op::Write(k + "-mirror", "x")}));
    }
    xov.ProcessBlock(block);
    ff.ProcessBlock(block);
  }
  EXPECT_EQ(xov.stats().committed, ff.stats().committed);
  EXPECT_EQ(xov.stats().aborted, ff.stats().aborted);
  EXPECT_TRUE(xov.store().SameLatestState(ff.store()));
}

// FastFabric, the parallel validator, must match the serial oracle —
// same final state, same committed/aborted counts, same ledger txns —
// for every seed and every pool width.
TEST(FastFabricTest, MatchesSerialValidatorAcrossSeedsAndJobs) {
  constexpr int kBlocks = 3;
  constexpr size_t kTxnsPerBlock = 40;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t jobs : {1u, 2u, 8u}) {
      ThreadPool pool(jobs);
      FastFabricArchitecture ff(&pool, /*validation_cost_rounds=*/5);
      store::KvStore oracle;
      block::SerialValidator serial(&oracle);
      uint64_t committed = 0;
      std::vector<txn::TxnId> valid_ids;
      Rng rng(seed);
      for (int b = 0; b < kBlocks; ++b) {
        auto block = RandomBlock(&rng, kTxnsPerBlock, 8,
                                 static_cast<txn::TxnId>(b) * 1000);
        ff.ProcessBlock(block);
        std::vector<bool> flags = serial.ProcessBlock(block);
        for (size_t i = 0; i < block.size(); ++i) {
          if (flags[i]) valid_ids.push_back(block[i].id);
        }
        committed += std::count(flags.begin(), flags.end(), true);
      }
      std::string where =
          "seed=" + std::to_string(seed) + " jobs=" + std::to_string(jobs);
      EXPECT_EQ(DumpState(ff.store()), DumpState(oracle)) << where;
      EXPECT_EQ(ff.stats().committed, committed) << where;
      EXPECT_EQ(ff.stats().aborted, kBlocks * kTxnsPerBlock - committed)
          << where;
      std::vector<txn::TxnId> ledger_ids;
      for (uint64_t h = 0; h < ff.chain().height(); ++h) {
        for (const auto& t : ff.chain().at(h).txns) ledger_ids.push_back(t.id);
      }
      EXPECT_EQ(ledger_ids, valid_ids) << where;
    }
  }
}

// FastFabric reports its blocks' conflict-graph shape.
TEST(FastFabricTest, ReportsConflictShape) {
  ThreadPool pool(4);
  FastFabricArchitecture ff(&pool);
  ff.ProcessBlock({T(0, {Op::Write("a", "x")}),
                   T(1, {Op::Read("a"), Op::Write("b", "y")}),
                   T(2, {Op::Write("c", "z")})});
  EXPECT_EQ(ff.stats().blocks, 1u);
  EXPECT_GE(ff.stats().dag_edges, 1u);
  EXPECT_EQ(ff.stats().dag_levels, 2u);  // {t0,t2} then {t1}
}

// ---------------------------------------------------------------------------
// Reordering (Fabric++ / FabricSharp).
// ---------------------------------------------------------------------------

// Build endorsements directly for graph tests.
std::vector<Endorsed> Endorse(XovBase* /*unused*/,
                              const std::vector<Transaction>& block,
                              ThreadPool* pool) {
  // Endorse against an empty store (all reads at version 0).
  const store::KvStore empty;
  return block::EndorseAll(block, empty, /*validation_cost_rounds=*/0, pool);
}

TEST(ReorderTest, ConflictGraphEdgesPointReaderToWriter) {
  ThreadPool pool(2);
  // t0 reads a; t1 writes a. Edge 0 -> 1.
  std::vector<Transaction> block = {
      T(0, {Op::Read("a")}),
      T(1, {Op::Write("a", "x")}),
  };
  auto endorsed = Endorse(nullptr, block, &pool);
  auto g = BuildConflictGraph(endorsed);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0], std::vector<size_t>{1});
  EXPECT_TRUE(g[1].empty());
}

TEST(ReorderTest, AcyclicBlockKeepsEverything) {
  ThreadPool pool(2);
  std::vector<Transaction> block = {
      T(0, {Op::Write("a", "x")}),          // writer of a
      T(1, {Op::Read("a"), Op::Write("b", "y")}),
      T(2, {Op::Read("b")}),
  };
  auto endorsed = Endorse(nullptr, block, &pool);
  auto plan = ReorderBlock(endorsed, false);
  EXPECT_TRUE(plan.aborted.empty());
  EXPECT_EQ(plan.order.size(), 3u);
  // Readers precede writers: 1 before 0 (t1 reads a, t0 writes a) and
  // 2 before 1.
  auto pos = [&](size_t v) {
    return std::find(plan.order.begin(), plan.order.end(), v) -
           plan.order.begin();
  };
  EXPECT_LT(pos(1), pos(0));
  EXPECT_LT(pos(2), pos(1));
}

TEST(ReorderTest, CycleAbortsWholeSccForFabricPP) {
  ThreadPool pool(2);
  // Two increments on the same key: mutual read-write conflict (cycle).
  auto endorsed = Endorse(nullptr, HotBlock(2), &pool);
  auto plan = ReorderBlock(endorsed, /*minimal_aborts=*/false);
  EXPECT_EQ(plan.aborted.size(), 2u);
  EXPECT_TRUE(plan.order.empty());
}

TEST(ReorderTest, CycleAbortsMinimalSetForFabricSharp) {
  ThreadPool pool(2);
  auto endorsed = Endorse(nullptr, HotBlock(2), &pool);
  auto plan = ReorderBlock(endorsed, /*minimal_aborts=*/true);
  EXPECT_EQ(plan.aborted.size(), 1u);
  EXPECT_EQ(plan.order.size(), 1u);
}

TEST(ReorderTest, SccComputation) {
  // 0 -> 1 -> 2 -> 0 (cycle), 3 isolated, 2 -> 3.
  std::vector<std::vector<size_t>> adj = {{1}, {2}, {0, 3}, {}};
  auto sccs = StronglyConnectedComponents(adj);
  size_t big = 0, single = 0;
  for (const auto& scc : sccs) {
    if (scc.size() == 3) {
      ++big;
    } else if (scc.size() == 1) {
      ++single;
    }
  }
  EXPECT_EQ(big, 1u);
  EXPECT_EQ(single, 1u);
}

TEST(FabricPPTest, RescuesReadersFromWriters) {
  ThreadPool pool(4);
  XovArchitecture xov(&pool);
  FabricPPArchitecture fpp(&pool);
  // Block: one writer of "a" first, many readers of "a" after. Plain
  // Fabric aborts every reader (their snapshot read of a is stale once the
  // writer commits); Fabric++ reorders readers first and commits all.
  std::vector<Transaction> block;
  block.push_back(T(0, {Op::Write("a", "new")}));
  for (int i = 1; i <= 9; ++i) {
    block.push_back(
        T(i, {Op::Read("a"), Op::Write("out" + std::to_string(i), "x")}));
  }
  xov.ProcessBlock(block);
  fpp.ProcessBlock(block);
  EXPECT_EQ(xov.stats().committed, 1u);
  EXPECT_EQ(xov.stats().aborted, 9u);
  EXPECT_EQ(fpp.stats().committed, 10u);
  EXPECT_EQ(fpp.stats().aborted, 0u);
}

TEST(FabricSharpTest, FewerAbortsThanFabricPPUnderContention) {
  ThreadPool pool(4);
  FabricPPArchitecture fpp(&pool);
  FabricSharpArchitecture fsharp(&pool);
  Rng rng(3);
  uint64_t txn_id = 0;
  for (int b = 0; b < 10; ++b) {
    std::vector<Transaction> block;
    for (int i = 0; i < 20; ++i) {
      std::string k = "hot" + std::to_string(rng.NextU64(3));
      block.push_back(T(txn_id++, {Op::Increment(k, 1)}));
    }
    fpp.ProcessBlock(block);
    fsharp.ProcessBlock(block);
  }
  EXPECT_LT(fsharp.stats().aborted, fpp.stats().aborted);
  EXPECT_GT(fsharp.stats().committed, fpp.stats().committed);
}

// Once t2 is aborted, t0 lies on no cycle (only t3 <-> t4 remains), so
// it must not be a victim even though it scores as high as t3 and t4.
TEST(FabricSharpTest, AbortsOnlyTxnsOnARemainingCycle) {
  std::vector<Transaction> block = {
      T(0, {Op::Read("a"), Op::Write("b", "x")}),
      T(1, {Op::Read("a"), Op::Write("a", "x")}),
      T(2, {Op::Increment("b", 1), Op::Write("a", "x")}),
      T(3, {Op::Increment("b", 1), Op::Write("b", "x")}),
      T(4, {Op::Read("b"), Op::Write("b", "x")}),
  };
  ThreadPool pool(2);
  auto plan = ReorderBlock(Endorse(nullptr, block, &pool),
                           /*minimal_aborts=*/true);
  EXPECT_EQ(plan.aborted, (std::vector<size_t>{2, 3}));
  EXPECT_EQ(plan.order, (std::vector<size_t>{4, 0, 1}));

  FabricSharpArchitecture fsharp(&pool);
  fsharp.ProcessBlock(block);
  EXPECT_EQ(fsharp.stats().committed, 3u);
  EXPECT_EQ(fsharp.stats().aborted, 2u);
}

// ReorderBlock's contract on seeded random blocks, for both policies:
// order and aborted partition the block; every reader->writer edge
// between survivors points forward in the order; Fabric++ aborts exactly
// the non-trivial SCCs; FabricSharp aborts a subset of them, never more;
// and through the architecture the gate aborts nothing beyond the plan.
TEST(ReorderPropertyTest, PlansAreTopologicalAndAbortOnlyCycleMembers) {
  ThreadPool pool(2);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    FabricPPArchitecture fpp(&pool);
    FabricSharpArchitecture fsharp(&pool);
    for (int b = 0; b < 8; ++b) {
      auto block = RandomBlock(&rng, 2 + rng.NextU64(60), 1 + rng.NextU64(12),
                               static_cast<txn::TxnId>(b) * 100);
      for (XovBase* arch : std::initializer_list<XovBase*>{&fpp, &fsharp}) {
        const bool minimal = arch == &fsharp;
        auto endorsed =
            block::EndorseAll(block, arch->store(), /*cost=*/0, &pool);
        auto adjacency = BuildConflictGraph(endorsed);
        std::vector<size_t> on_cycle;
        for (const auto& scc : StronglyConnectedComponents(adjacency)) {
          if (scc.size() > 1) on_cycle.insert(on_cycle.end(), scc.begin(),
                                              scc.end());
        }
        std::sort(on_cycle.begin(), on_cycle.end());
        auto plan = ReorderBlock(endorsed, minimal);
        std::string where = std::string(arch->name()) +
                            " seed=" + std::to_string(seed) +
                            " block=" + std::to_string(b);

        std::vector<size_t> pos(block.size(), block.size());
        for (size_t p = 0; p < plan.order.size(); ++p) {
          pos[plan.order[p]] = p;
        }
        std::vector<size_t> all = plan.order;
        all.insert(all.end(), plan.aborted.begin(), plan.aborted.end());
        std::sort(all.begin(), all.end());
        std::vector<size_t> expect_all(block.size());
        std::iota(expect_all.begin(), expect_all.end(), size_t{0});
        EXPECT_EQ(all, expect_all) << where;
        for (size_t u : plan.order) {
          for (size_t v : adjacency[u]) {
            if (pos[v] == block.size()) continue;  // v aborted
            EXPECT_LT(pos[u], pos[v]) << where;
          }
        }
        if (minimal) {
          EXPECT_TRUE(std::includes(on_cycle.begin(), on_cycle.end(),
                                    plan.aborted.begin(), plan.aborted.end()))
              << where;
          EXPECT_LE(plan.aborted.size(),
                    ReorderBlock(endorsed, false).aborted.size())
              << where;
        } else {
          EXPECT_EQ(plan.aborted, on_cycle) << where;
        }

        ArchStats before = arch->stats();
        arch->ProcessBlock(block);
        EXPECT_EQ(arch->stats().aborted - before.aborted, plan.aborted.size())
            << where;
        EXPECT_EQ(arch->stats().committed - before.committed,
                  plan.order.size())
            << where;
      }
    }
  }
}

TEST(ArchStatsTest, OxiiRecordsGraphMetrics) {
  ThreadPool pool(4);
  OxiiArchitecture oxii(&pool);
  oxii.ProcessBlock(HotBlock(5));
  EXPECT_GT(oxii.stats().dag_edges, 0u);
  EXPECT_EQ(oxii.stats().dag_levels, 5u);  // fully serialized chain
  oxii.ProcessBlock(DisjointBlock(5, 100));
  EXPECT_EQ(oxii.stats().dag_levels, 6u);  // disjoint block adds 1 level
}

// Property: on random workloads, XOV and FastFabric agree; OXII and XOX
// agree with OX; FabricSharp never commits fewer than Fabric++.
class ArchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArchPropertyTest, CrossArchitectureInvariants) {
  Rng rng(GetParam());
  ThreadPool pool(4);
  OxArchitecture ox(&pool);
  OxiiArchitecture oxii(&pool);
  XovArchitecture xov(&pool);
  FastFabricArchitecture ff(&pool);
  XoxArchitecture xox(&pool);
  FabricPPArchitecture fpp(&pool);
  FabricSharpArchitecture fsharp(&pool);

  XoxArchitecture xox2(&pool);  // determinism witness

  uint64_t txn_id = 0;
  uint64_t total_txns = 0;
  for (int b = 0; b < 6; ++b) {
    std::vector<Transaction> block;
    int n = 10 + rng.NextU64(20);
    for (int i = 0; i < n; ++i) {
      std::string k = "k" + std::to_string(rng.NextU64(10));
      std::string k2 = "k" + std::to_string(rng.NextU64(10));
      switch (rng.NextU64(3)) {
        case 0:
          block.push_back(T(txn_id++, {Op::Increment(k, 1)}));
          break;
        case 1:
          block.push_back(
              T(txn_id++, {Op::Read(k), Op::Write(k2 + "-m", "x")}));
          break;
        default:
          block.push_back(T(txn_id++, {Op::Write(k, "w")}));
      }
    }
    total_txns += block.size();
    for (Architecture* a : std::initializer_list<Architecture*>{
             &ox, &oxii, &xov, &ff, &xox, &xox2, &fpp, &fsharp}) {
      a->ProcessBlock(block);
    }
  }
  uint64_t seed = GetParam();
  EXPECT_TRUE(ox.store().SameLatestState(oxii.store())) << seed;
  // OX and OXII order before they execute, so nothing aborts at any
  // contention level (survey §2.3.3; EXPERIMENTS.md E2).
  for (Architecture* a : std::initializer_list<Architecture*>{&ox, &oxii}) {
    EXPECT_EQ(a->stats().committed, total_txns) << a->name() << " " << seed;
    EXPECT_EQ(a->stats().aborted, 0u) << a->name() << " " << seed;
  }
  // XOX never aborts (it re-executes) and is deterministic across
  // replicas; its serial-equivalent order moves re-executed transactions
  // after the block's valid ones, so it need not equal OX's block order.
  EXPECT_EQ(xox.stats().committed, total_txns) << seed;
  EXPECT_EQ(xox.stats().aborted, 0u) << seed;
  EXPECT_TRUE(xox.store().SameLatestState(xox2.store())) << seed;
  EXPECT_TRUE(xox.chain().SameAs(xox2.chain())) << seed;
  EXPECT_EQ(xov.stats().committed, ff.stats().committed) << seed;
  EXPECT_TRUE(xov.store().SameLatestState(ff.store())) << seed;
  EXPECT_GE(fsharp.stats().committed, fpp.stats().committed) << seed;
  EXPECT_GE(fpp.stats().committed, xov.stats().committed) << seed;
  // Everyone's ledgers must audit clean.
  for (Architecture* a : std::initializer_list<Architecture*>{
           &ox, &oxii, &xov, &ff, &xox, &fpp, &fsharp}) {
    EXPECT_TRUE(a->chain().Audit().ok()) << a->name() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{15}));

// ---------------------------------------------------------------------------
// The explicit snapshot/commit boundary (block::GateAndCommit).
// ---------------------------------------------------------------------------

// Regression pin for the intra-block conflict semantics shared by the
// whole XOV family: endorsement sees ONLY the pre-block snapshot, the
// serial gate re-reads committed state at each txn's turn. A reader of a
// key an earlier valid txn wrote must abort under block order (XOV,
// FastFabric) and must be SAVED by a reorder plan that gates the reader
// first (Fabric++/FabricSharp) — both behaviours flow through the same
// block::GateAndCommit, just with different orders.
TEST(SnapshotBoundaryTest, IntraBlockConflictPinnedAcrossValidators) {
  std::vector<Transaction> block = {
      T(1, {Op::Write("k", "v1")}),
      T(2, {Op::Read("k"), Op::Write("out", "x")}),
  };
  ThreadPool pool(4);

  XovArchitecture xov(&pool);
  xov.ProcessBlock(block);
  EXPECT_EQ(xov.stats().committed, 1u);
  EXPECT_EQ(xov.stats().aborted, 1u);
  EXPECT_FALSE(xov.store().Get("out").ok());

  FastFabricArchitecture ff(&pool);
  ff.ProcessBlock(block);
  EXPECT_EQ(ff.stats().committed, 1u);
  EXPECT_EQ(ff.stats().aborted, 1u);
  EXPECT_TRUE(ff.store().SameLatestState(xov.store()));

  FabricPPArchitecture fpp(&pool);
  fpp.ProcessBlock(block);
  EXPECT_EQ(fpp.stats().committed, 2u);  // reader gated before the writer
  EXPECT_EQ(fpp.stats().aborted, 0u);
  EXPECT_EQ(fpp.store().Get("out").ValueOrDie().value, "x");

  FabricSharpArchitecture fsharp(&pool);
  fsharp.ProcessBlock(block);
  EXPECT_EQ(fsharp.stats().committed, 2u);
  EXPECT_TRUE(fsharp.store().SameLatestState(fpp.store()));
}

}  // namespace
}  // namespace pbc::arch
