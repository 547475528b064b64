// Unit + property tests for the block pipeline (src/block): Fabric-style
// cut rules, sealed-block hash stability, the classified conflict graph,
// and the shared MVCC gate (DESIGN.md §11). FastFabric's equivalence with
// SerialValidator is pinned in tests/arch_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "block/builder.h"
#include "block/conflict.h"
#include "block/store.h"
#include "block/validator.h"
#include "common/rng.h"

namespace pbc::block {
namespace {

using txn::Op;
using txn::Transaction;

Transaction T(txn::TxnId id, std::vector<Op> ops) {
  Transaction t;
  t.id = id;
  t.ops = std::move(ops);
  return t;
}

// ---------------------------------------------------------------------------
// Cut rules.
// ---------------------------------------------------------------------------

TEST(CutRulesTest, NoCutBelowSizeAndDelay) {
  CutRules rules{/*max_txns=*/4, /*max_delay_us=*/5000};
  EXPECT_FALSE(rules.CutDue(0, 0, 1'000'000));  // nothing pending
  EXPECT_FALSE(rules.CutDue(3, 1000, 5999));    // 3 < 4, waited 4999 < 5000
}

TEST(CutRulesTest, SizeCutFiresAtCapacity) {
  CutRules rules{4, 5000};
  EXPECT_TRUE(rules.CutDue(4, 0, 0));  // full block cuts immediately
  EXPECT_TRUE(rules.CutDue(9, 0, 0));
}

TEST(CutRulesTest, TimerCutFiresOnceOldestHasWaited) {
  CutRules rules{100, 5000};
  EXPECT_FALSE(rules.CutDue(1, 1000, 5999));
  EXPECT_TRUE(rules.CutDue(1, 1000, 6000));
}

TEST(CutRulesTest, ZeroDelayDisablesTimerCut) {
  CutRules rules{4, 0};
  EXPECT_FALSE(rules.CutDue(3, 0, 3'600'000'000ULL));
  EXPECT_TRUE(rules.CutDue(4, 0, 0));  // size rule still applies
}

// ---------------------------------------------------------------------------
// Sealed-block identity (what consensus orders in place of the body).
// ---------------------------------------------------------------------------

TEST(BlockSealTest, HashIsStableForIdenticalContent) {
  std::vector<Transaction> txns = {T(1, {Op::Write("a", "x")}),
                                   T(2, {Op::Write("b", "y")})};
  ledger::Block b1 = BlockBuilder::Seal(3, crypto::Hash256{}, txns, 42);
  ledger::Block b2 = BlockBuilder::Seal(3, crypto::Hash256{}, txns, 42);
  EXPECT_EQ(b1.header.Hash(), b2.header.Hash());
  EXPECT_TRUE(b1.VerifyTxnRoot());
}

TEST(BlockSealTest, HashCommitsToOrderHeightAndTxns) {
  std::vector<Transaction> txns = {T(1, {Op::Write("a", "x")}),
                                   T(2, {Op::Write("b", "y")})};
  std::vector<Transaction> swapped = {txns[1], txns[0]};
  ledger::Block base = BlockBuilder::Seal(3, crypto::Hash256{}, txns, 42);
  EXPECT_NE(base.header.Hash(),
            BlockBuilder::Seal(3, crypto::Hash256{}, swapped, 42)
                .header.Hash());
  EXPECT_NE(base.header.Hash(),
            BlockBuilder::Seal(4, crypto::Hash256{}, txns, 42).header.Hash());
}

std::shared_ptr<const ledger::Block> Shared(ledger::Block b) {
  return std::make_shared<const ledger::Block>(std::move(b));
}

TEST(BlockStoreTest, PutGetIsIdempotentByHeaderHash) {
  BlockStore store;
  ledger::Block b = BlockBuilder::Seal(
      0, crypto::Hash256{}, {T(1, {Op::Write("a", "x")})}, 0);
  crypto::Hash256 h = b.header.Hash();
  EXPECT_EQ(store.Put(Shared(b)), h);
  EXPECT_EQ(store.Put(Shared(b)), h);  // an equal copy re-inserts fine
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Contains(h));
  EXPECT_EQ(store.Get(h)->body().txns.size(), 1u);
}

TEST(BlockStoreTest, RePuttingTheStoredObjectSharesIt) {
  auto body = Shared(BlockBuilder::Seal(
      0, crypto::Hash256{}, {T(1, {Op::Write("a", "x")})}, 0));
  BlockStore store;
  ASSERT_TRUE(store.Put(body));
  EXPECT_EQ(store.Put(body), body->header.Hash());
  EXPECT_EQ(store.size(), 1u);
  // The store holds the object it was given, not a copy.
  EXPECT_EQ(&store.Get(body->header.Hash())->body(), body.get());
}

TEST(BlockStoreTest, RejectsBodyThatFailsItsOwnHeader) {
  ledger::Block b = BlockBuilder::Seal(
      0, crypto::Hash256{}, {T(1, {Op::Write("a", "x")})}, 0);
  b.txns = {T(99, {Op::Write("a", "forged")})};  // header root now wrong
  BlockStore store;
  EXPECT_FALSE(store.Put(Shared(b)));
  EXPECT_FALSE(store.Put(nullptr));
  EXPECT_EQ(store.size(), 0u);
}

TEST(BlockStoreTest, RedeliveryUnderStoredHashMustEqualStoredBody) {
  auto b = Shared(BlockBuilder::Seal(
      0, crypto::Hash256{},
      {T(1, {Op::Write("a", "x")}), T(2, {Op::Write("b", "y")})}, 0));
  const crypto::Hash256 h = b->header.Hash();
  BlockStore store;
  ASSERT_TRUE(store.Put(b));

  // Same header (hence same hash), different bodies: none may replace or
  // pass as the stored one. Each replaces its copy's list; the stored
  // body's list is shared, never changed in place.
  const std::vector<Transaction>& txns = b->txns;
  ledger::Block tampered = *b;
  std::vector<Transaction> forged_txns = txns;
  forged_txns[1].ops[0].value = "forged";
  tampered.txns = forged_txns;
  ledger::Block truncated = *b;
  truncated.txns = std::vector<Transaction>(txns.begin(), txns.end() - 1);
  ledger::Block reordered = *b;
  reordered.txns = {txns[1], txns[0]};
  for (const ledger::Block* forged : {&tampered, &truncated, &reordered}) {
    ASSERT_EQ(forged->header.Hash(), h);
    EXPECT_FALSE(store.Put(Shared(*forged)));
  }
  ASSERT_NE(store.Get(h), nullptr);
  EXPECT_EQ(&store.Get(h)->body(), b.get());
  EXPECT_TRUE(store.Get(h)->body().VerifyTxnRoot());

  EXPECT_EQ(store.Put(Shared(*b)), h);  // identical re-delivery
  EXPECT_EQ(store.size(), 1u);
}

TEST(BlockStoreTest, VerifiedPutFollowsTheRedeliveryRule) {
  std::vector<Transaction> txns = {T(1, {Op::Write("a", "x")}),
                                   T(2, {Op::Write("ab", "")})};
  ledger::VerifiedBlock body =
      ledger::VerifiedBlock::Seal(0, crypto::Hash256{}, txns, 0);
  const crypto::Hash256 h = body.body().header.Hash();
  BlockStore store;
  EXPECT_EQ(store.Put(body), h);
  ASSERT_NE(store.Get(h), nullptr);
  // The store holds the very object it was given, not a copy.
  EXPECT_EQ(&store.Get(h)->body(), &body.body());
  EXPECT_EQ(store.Put(body), h);  // the stored object again

  // An equal copy is accepted and replaces nothing.
  std::optional<ledger::VerifiedBlock> copy =
      ledger::VerifiedBlock::Verify(Shared(body.body()));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(store.Put(*copy), h);
  EXPECT_EQ(&store.Get(h)->body(), &body.body());

  // A Byzantine body: the stored header over other txns. It does not
  // verify, so it can only arrive through the raw Put, which rejects it.
  ledger::Block other = body.body();
  std::vector<Transaction> other_txns = other.txns;
  other_txns[1].ops[0] = Op::Write("a", "b");
  other.txns = other_txns;
  ASSERT_EQ(other.header.Hash(), h);
  EXPECT_FALSE(ledger::VerifiedBlock::Verify(Shared(other)).has_value());
  EXPECT_FALSE(store.Put(Shared(other)));
  EXPECT_EQ(&store.Get(h)->body(), &body.body());
  EXPECT_EQ(store.Get(h)->body().txns, txns);
  EXPECT_EQ(store.size(), 1u);
}

// ---------------------------------------------------------------------------
// Conflict graph.
// ---------------------------------------------------------------------------

TEST(ConflictGraphTest, WrEdgeFromWriterToLaterReader) {
  auto g = ConflictGraph::Build(
      {T(0, {Op::Write("a", "x")}), T(1, {Op::Read("a")})});
  EXPECT_EQ(g.wr_edges(), 1u);
  EXPECT_EQ(g.rw_edges(), 0u);
  EXPECT_EQ(g.ww_edges(), 0u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
  EXPECT_TRUE(g.Successors(1).empty());
}

TEST(ConflictGraphTest, RwEdgeFromReaderToLaterWriter) {
  auto g = ConflictGraph::Build(
      {T(0, {Op::Read("a")}), T(1, {Op::Write("a", "x")})});
  EXPECT_EQ(g.rw_edges(), 1u);
  EXPECT_EQ(g.wr_edges(), 0u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
}

TEST(ConflictGraphTest, WwEdgeBetweenSuccessiveWriters) {
  auto g = ConflictGraph::Build(
      {T(0, {Op::Write("a", "x")}), T(1, {Op::Write("a", "y")})});
  EXPECT_EQ(g.ww_edges(), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
}

TEST(ConflictGraphTest, ReadReadIsNotConflict) {
  auto g = ConflictGraph::Build({T(0, {Op::Read("k")}), T(1, {Op::Read("k")})});
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.Levels().size(), 1u);
}

TEST(ConflictGraphTest, PairConflictingOnTwoKeysIsOneEdge) {
  auto g = ConflictGraph::Build(
      {T(0, {Op::Write("a", "x"), Op::Write("b", "y")}),
       T(1, {Op::Read("a"), Op::Read("b")})});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.wr_edges(), 1u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
}

TEST(ConflictGraphTest, PairThatIsBothWrAndRwIsOneEdgeOfEachKind) {
  // t0 writes a and reads b; t1 reads a (WR) and writes b (RW).
  auto g = ConflictGraph::Build(
      {T(0, {Op::Write("a", "x"), Op::Read("b")}),
       T(1, {Op::Read("a"), Op::Write("b", "y")})});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.wr_edges(), 1u);
  EXPECT_EQ(g.rw_edges(), 1u);
  EXPECT_EQ(g.ww_edges(), 0u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
}

TEST(ConflictGraphTest, ChainOfIncrementsFullySerializes) {
  std::vector<Transaction> txns;
  for (int i = 0; i < 5; ++i) txns.push_back(T(i, {Op::Increment("hot", 1)}));
  auto g = ConflictGraph::Build(txns);
  EXPECT_EQ(g.Levels().size(), 5u);
  EXPECT_EQ(g.MaxLevelWidth(), 1u);
}

TEST(ConflictGraphTest, IndependentTxnsShareOneWideLevel) {
  std::vector<Transaction> txns;
  for (int i = 0; i < 6; ++i) {
    txns.push_back(T(i, {Op::Write("k" + std::to_string(i), "v")}));
  }
  auto g = ConflictGraph::Build(txns);
  EXPECT_EQ(g.num_edges(), 0u);
  ASSERT_EQ(g.Levels().size(), 1u);
  EXPECT_EQ(g.MaxLevelWidth(), 6u);
}

TEST(ConflictGraphTest, ConflictChainSerializesIntoLevels) {
  auto g = ConflictGraph::Build({T(0, {Op::Write("a", "x")}),
                                 T(1, {Op::Read("a"), Op::Write("b", "y")}),
                                 T(2, {Op::Read("b")})});
  EXPECT_EQ(g.Levels().size(), 3u);
  EXPECT_EQ(g.MaxLevelWidth(), 1u);
}

TEST(ConflictGraphTest, LevelsRespectDependencies) {
  // t0 writes a; t1 reads a, writes b; t2 reads b; t3 independent.
  auto levels = ConflictGraph::Build({T(0, {Op::Write("a", "1")}),
                                      T(1, {Op::Read("a"), Op::Write("b", "2")}),
                                      T(2, {Op::Read("b")}),
                                      T(3, {Op::Write("z", "9")})})
                    .Levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<size_t>{0, 3}));
  EXPECT_EQ(levels[1], std::vector<size_t>{1});
  EXPECT_EQ(levels[2], std::vector<size_t>{2});
}

// Brute-force oracle: i → j (i < j) iff the two access sets conflict
// (a write meets a read or a write), with no transitive reduction.
std::vector<std::vector<size_t>> AllPairsConflicts(
    const std::vector<Transaction>& txns) {
  auto meet = [](const std::vector<store::Key>& a,
                 const std::vector<store::Key>& b) {
    for (const auto& k : a) {
      if (std::find(b.begin(), b.end(), k) != b.end()) return true;
    }
    return false;
  };
  std::vector<std::vector<size_t>> succ(txns.size());
  for (size_t j = 0; j < txns.size(); ++j) {
    auto rj = txns[j].DeclaredReads(), wj = txns[j].DeclaredWrites();
    for (size_t i = 0; i < j; ++i) {
      auto ri = txns[i].DeclaredReads(), wi = txns[i].DeclaredWrites();
      if (meet(wi, rj) || meet(ri, wj) || meet(wi, wj)) succ[i].push_back(j);
    }
  }
  return succ;
}

// Longest-path levels of a forward-edged DAG.
std::vector<std::vector<size_t>> LongestPathLevels(
    const std::vector<std::vector<size_t>>& succ) {
  std::vector<size_t> level(succ.size(), 0);
  std::vector<std::vector<size_t>> out;
  for (size_t i = 0; i < succ.size(); ++i) {
    for (size_t j : succ[i]) level[j] = std::max(level[j], level[i] + 1);
    if (out.size() <= level[i]) out.resize(level[i] + 1);
    out[level[i]].push_back(i);
  }
  return out;
}

// The per-key transitive reduction keeps reachability, so it yields the
// all-pairs graph's levels with a subset of its edges.
TEST(ConflictGraphTest, ReductionMatchesAllPairsOracle) {
  Rng rng(2024);
  for (int block = 0; block < 300; ++block) {
    size_t n = 1 + rng.NextU64(120);
    size_t keys = 1 + rng.NextU64(30);
    std::vector<Transaction> txns;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Op> ops;
      for (size_t o = 0, num_ops = 1 + rng.NextU64(3); o < num_ops; ++o) {
        std::string k = "k" + std::to_string(rng.NextU64(keys));
        switch (rng.NextU64(4)) {
          case 0:
            ops.push_back(Op::Read(k));
            break;
          case 1:
            ops.push_back(Op::Write(k, "v"));
            break;
          case 2:
            ops.push_back(Op::Increment(k, 1));
            break;
          default:
            ops.push_back(Op::Transfer(
                k, "k" + std::to_string(rng.NextU64(keys)), 1));
        }
      }
      txns.push_back(T(i, std::move(ops)));
    }
    auto oracle = AllPairsConflicts(txns);
    auto g = ConflictGraph::Build(txns);
    ASSERT_EQ(g.num_txns(), n);
    EXPECT_EQ(g.Levels(), LongestPathLevels(oracle)) << "block " << block;
    size_t oracle_edges = 0, graph_edges = 0;
    for (size_t i = 0; i < n; ++i) {
      oracle_edges += oracle[i].size();
      graph_edges += g.Successors(i).size();
      for (size_t j : g.Successors(i)) {
        EXPECT_LT(i, j) << "block " << block;
        EXPECT_TRUE(std::find(oracle[i].begin(), oracle[i].end(), j) !=
                    oracle[i].end())
            << "block " << block << ": " << i << "->" << j
            << " is not a conflict";
      }
    }
    EXPECT_EQ(g.num_edges(), graph_edges) << "block " << block;
    EXPECT_LE(g.num_edges(), oracle_edges) << "block " << block;
  }
}

// ---------------------------------------------------------------------------
// The MVCC gate: the explicit snapshot/commit boundary.
// ---------------------------------------------------------------------------

std::vector<Endorsed> EndorseAgainstSnapshot(
    const std::vector<Transaction>& txns, const store::KvStore& store) {
  std::vector<Endorsed> endorsed(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    endorsed[i].txn = &txns[i];
    endorsed[i].result = txn::Execute(txns[i], store);
  }
  return endorsed;
}

// Regression pin for the intra-block conflict semantics: both txns endorse
// against the pre-block snapshot, but the gate re-reads committed state at
// each txn's turn — so a read of a key an earlier valid txn wrote aborts.
TEST(GateAndCommitTest, IntraBlockWriteInvalidatesLaterReaderInBlockOrder) {
  store::KvStore store;
  std::vector<Transaction> txns = {
      T(1, {Op::Write("k", "v1")}),
      T(2, {Op::Read("k"), Op::Write("m", "v2")}),
  };
  auto endorsed = EndorseAgainstSnapshot(txns, store);
  EXPECT_EQ(GateAndCommit(&endorsed, {0, 1}, &store), 1u);
  EXPECT_TRUE(endorsed[0].valid);
  EXPECT_FALSE(endorsed[1].valid);  // read k@0, but k is now @1
  EXPECT_FALSE(store.Get("m").ok());
}

// Same endorsements, reader-first order: both commit. This is the hook
// Fabric++/FabricSharp reorder plans feed.
TEST(GateAndCommitTest, ReorderedValidationOrderSavesTheReader) {
  store::KvStore store;
  std::vector<Transaction> txns = {
      T(1, {Op::Write("k", "v1")}),
      T(2, {Op::Read("k"), Op::Write("m", "v2")}),
  };
  auto endorsed = EndorseAgainstSnapshot(txns, store);
  EXPECT_EQ(GateAndCommit(&endorsed, {1, 0}, &store), 2u);
  EXPECT_TRUE(endorsed[0].valid);
  EXPECT_TRUE(endorsed[1].valid);
  EXPECT_EQ(store.Get("k").ValueOrDie().value, "v1");
  EXPECT_EQ(store.Get("m").ValueOrDie().value, "v2");
}

// Fabric's MVCC check only validates reads: blind write-write conflicts
// both commit, last writer (in validation order) wins.
TEST(GateAndCommitTest, BlindWriteWriteConflictBothCommit) {
  store::KvStore store;
  std::vector<Transaction> txns = {
      T(1, {Op::Write("k", "first")}),
      T(2, {Op::Write("k", "second")}),
  };
  auto endorsed = EndorseAgainstSnapshot(txns, store);
  EXPECT_EQ(GateAndCommit(&endorsed, {0, 1}, &store), 2u);
  EXPECT_EQ(store.Get("k").ValueOrDie().value, "second");
}

}  // namespace
}  // namespace pbc::block
