#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <type_traits>

#include "ledger/block.h"
#include "ledger/chain.h"
#include "ledger/dag_ledger.h"

namespace pbc::ledger {
namespace {

txn::Transaction MakeTxn(txn::TxnId id, const std::string& key,
                         const std::string& value) {
  txn::Transaction t;
  t.id = id;
  t.ops.push_back(txn::Op::Write(key, value));
  return t;
}

// A copy of `txns` whose txn `i` writes `value`: a shared list is never
// changed in place, so a tamper replaces the list.
std::vector<txn::Transaction> Tampered(std::vector<txn::Transaction> txns,
                                       size_t i, const std::string& value) {
  txns[i].ops[0].value = value;
  return txns;
}

std::vector<txn::Transaction> MakeTxns(int ntxns, txn::TxnId base_id) {
  std::vector<txn::Transaction> txns;
  for (int i = 0; i < ntxns; ++i) {
    txns.push_back(MakeTxn(base_id + i, "k" + std::to_string(i), "v"));
  }
  return txns;
}

TEST(BlockTest, MakeComputesMerkleRoot) {
  Block b = Block::Make(0, crypto::Hash256::Zero(), MakeTxns(4, 0));
  EXPECT_TRUE(b.VerifyTxnRoot());
  EXPECT_EQ(b.header.height, 0u);
  EXPECT_TRUE(b.header.prev_hash.IsZero());
}

TEST(BlockTest, TamperedTxnBreaksRoot) {
  Block b = Block::Make(0, crypto::Hash256::Zero(), MakeTxns(4, 0));
  b.txns = Tampered(b.txns, 2, "evil");
  EXPECT_FALSE(b.VerifyTxnRoot());
}

TEST(BlockTest, HeaderHashCoversAllFields) {
  Block b = Block::Make(0, crypto::Hash256::Zero(), MakeTxns(2, 0));
  auto h0 = b.header.Hash();
  BlockHeader modified = b.header;
  modified.height++;
  EXPECT_NE(modified.Hash(), h0);
  modified = b.header;
  modified.timestamp_us = 12345;
  EXPECT_NE(modified.Hash(), h0);
}

TEST(ChainTest, AppendLinksBlocks) {
  Chain chain;
  for (int i = 0; i < 5; ++i) chain.Append(MakeTxns(3, i * 10));
  EXPECT_EQ(chain.height(), 5u);
  EXPECT_TRUE(chain.Audit().ok());
}

TEST(ChainTest, AppendSealsAtTheTip) {
  Chain chain;
  chain.Append(MakeTxns(2, 0));
  crypto::Hash256 tip = chain.TipHash();
  chain.Append(MakeTxns(3, 10));
  ASSERT_EQ(chain.height(), 2u);
  const Block& appended = chain.at(1);
  Block expected = Block::Make(1, tip, MakeTxns(3, 10));
  EXPECT_EQ(appended.header.Hash(), expected.header.Hash());
  EXPECT_EQ(appended.header.prev_hash, tip);
  EXPECT_EQ(appended.txns, expected.txns);
  EXPECT_TRUE(appended.VerifyTxnRoot());
  EXPECT_EQ(chain.TipHash(), expected.header.Hash());
}

TEST(ChainTest, AppendingAVerifiedBodyMatchesAppendingItsTxns) {
  Chain by_txns, by_body;
  for (int i = 0; i < 4; ++i) {
    // The body's own height, parent and timestamp are not the chain's.
    auto body = std::make_shared<const Block>(Block::Make(
        40 + i, crypto::Sha256::Digest("elsewhere"), MakeTxns(3, i * 10),
        /*timestamp_us=*/1000 + i));
    std::optional<VerifiedBlock> verified = VerifiedBlock::Verify(body);
    ASSERT_TRUE(verified.has_value());
    EXPECT_EQ(&verified->body(), body.get());
    by_txns.Append(body->txns);
    by_body.Append(*verified);
    EXPECT_EQ(by_body.at(i).header.Hash(), by_txns.at(i).header.Hash())
        << "height " << i;
    EXPECT_EQ(by_body.at(i).txns, body->txns);
  }
  EXPECT_TRUE(by_body.Audit().ok());
  EXPECT_TRUE(by_body.SameAs(by_txns));
}

// Only Seal and Verify make a VerifiedBlock: no public path wraps an
// arbitrary body as verified.
static_assert(!std::is_default_constructible_v<VerifiedBlock>);
static_assert(
    !std::is_constructible_v<VerifiedBlock, std::shared_ptr<const Block>>);

TEST(ChainTest, SealedBodyIsTheMadeBlockAndVerifies) {
  const crypto::Hash256 parent = crypto::Sha256::Digest("parent");
  VerifiedBlock sealed =
      VerifiedBlock::Seal(7, parent, MakeTxns(5, 0), /*timestamp_us=*/1234);
  Block made = Block::Make(7, parent, MakeTxns(5, 0), 1234);
  EXPECT_EQ(sealed.body().header.txn_root, made.header.txn_root);
  EXPECT_EQ(sealed.body().header.Hash(), made.header.Hash());
  EXPECT_EQ(sealed.body().txns, made.txns);
  EXPECT_TRUE(
      VerifiedBlock::Verify(std::make_shared<const Block>(sealed.body())));
  VerifiedBlock copy = sealed;  // copies share the one body
  EXPECT_EQ(&copy.body(), &sealed.body());
}

TEST(ChainTest, BodyWithAWrongRootIsNotVerified) {
  Block b = Block::Make(0, crypto::Hash256::Zero(), MakeTxns(4, 0));
  b.txns = Tampered(b.txns, 2, "evil");
  EXPECT_FALSE(VerifiedBlock::Verify(std::make_shared<const Block>(b)));
  EXPECT_FALSE(VerifiedBlock::Verify(nullptr));
}

TEST(ChainTest, AuditDetectsPostHocTampering) {
  Chain chain;
  for (int i = 0; i < 4; ++i) chain.Append(MakeTxns(2, i * 10));
  ASSERT_TRUE(chain.Audit().ok());
  // Flip one transaction byte deep in history.
  Block* block = chain.MutableBlockForTest(1);
  block->txns = Tampered(block->txns, 0, "evil");
  EXPECT_TRUE(chain.Audit().IsCorruption());
}

TEST(ChainTest, AuditDetectsHeaderRewrite) {
  Chain chain;
  for (int i = 0; i < 3; ++i) chain.Append(MakeTxns(1, i));
  // Rewriting a header breaks the next block's prev link.
  chain.MutableBlockForTest(1)->header.timestamp_us = 999;
  EXPECT_TRUE(chain.Audit().IsCorruption());
}

TEST(ChainTest, InclusionProofs) {
  Chain chain;
  chain.Append(MakeTxns(8, 0));
  const Block& b = chain.at(0);
  auto proof = chain.ProveInclusion(0, 5);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(Chain::VerifyInclusion(b.header, b.txns[5].Digest(),
                                     proof.ValueOrDie()));
  EXPECT_FALSE(Chain::VerifyInclusion(b.header, b.txns[4].Digest(),
                                      proof.ValueOrDie()));
}

TEST(ChainTest, PrefixConsistency) {
  Chain a, b;
  for (int i = 0; i < 3; ++i) {
    a.Append(MakeTxns(2, i * 10));
    if (i < 2) b.Append(MakeTxns(2, i * 10));
  }
  EXPECT_TRUE(a.PrefixConsistentWith(b));
  EXPECT_TRUE(b.PrefixConsistentWith(a));
  EXPECT_FALSE(a.SameAs(b));
  b.Append(MakeTxns(2, 20));
  EXPECT_TRUE(a.SameAs(b));
}

TEST(ChainTest, DivergentChainsDetected) {
  Chain a, b;
  a.Append(MakeTxns(1, 1));
  b.Append(MakeTxns(1, 2));  // different txn
  EXPECT_FALSE(a.PrefixConsistentWith(b));
}

// --- DAG ledger (Caper) ------------------------------------------------------

txn::Transaction InternalTxn(txn::TxnId id, txn::EnterpriseId e) {
  txn::Transaction t;
  t.id = id;
  t.enterprise = e;
  t.ops.push_back(txn::Op::Write("internal/" + std::to_string(e), "x"));
  return t;
}

txn::Transaction CrossTxn(txn::TxnId id) {
  txn::Transaction t;
  t.id = id;
  t.cross_enterprise = true;
  t.ops.push_back(txn::Op::Write("shared/k", "y"));
  return t;
}

TEST(DagLedgerTest, InternalChainsAreIndependent) {
  DagLedger dag(3);
  ASSERT_TRUE(dag.AppendInternal(0, InternalTxn(1, 0)).ok());
  ASSERT_TRUE(dag.AppendInternal(1, InternalTxn(2, 1)).ok());
  ASSERT_TRUE(dag.AppendInternal(0, InternalTxn(3, 0)).ok());
  EXPECT_EQ(dag.size(), 3u);
  EXPECT_TRUE(dag.Audit().ok());
  // Enterprise 0's second txn has one parent: its first txn.
  const auto& v = dag.vertices()[2];
  ASSERT_EQ(v.parents.size(), 1u);
  EXPECT_EQ(v.parents[0], dag.vertices()[0].hash);
}

TEST(DagLedgerTest, CrossTxnJoinsAllTips) {
  DagLedger dag(3);
  dag.AppendInternal(0, InternalTxn(1, 0));
  dag.AppendInternal(1, InternalTxn(2, 1));
  auto cross = dag.AppendCross(CrossTxn(3));
  ASSERT_TRUE(cross.ok());
  const auto& v = dag.vertices()[2];
  EXPECT_TRUE(v.cross);
  EXPECT_EQ(v.parents.size(), 2u);  // enterprises 0 and 1 had tips; 2 empty
  // All tips now point at the cross vertex.
  for (txn::EnterpriseId e = 0; e < 3; ++e) {
    EXPECT_EQ(dag.TipOf(e), cross.ValueOrDie());
  }
}

TEST(DagLedgerTest, InternalAfterCrossChainsToCross) {
  DagLedger dag(2);
  dag.AppendCross(CrossTxn(1));
  dag.AppendInternal(0, InternalTxn(2, 0));
  const auto& v = dag.vertices()[1];
  ASSERT_EQ(v.parents.size(), 1u);
  EXPECT_EQ(v.parents[0], dag.vertices()[0].hash);
  EXPECT_TRUE(dag.Audit().ok());
}

TEST(DagLedgerTest, ViewContainsOnlyOwnInternalsPlusCross) {
  DagLedger dag(2);
  dag.AppendInternal(0, InternalTxn(1, 0));
  dag.AppendInternal(1, InternalTxn(2, 1));
  dag.AppendCross(CrossTxn(3));
  dag.AppendInternal(1, InternalTxn(4, 1));

  auto view0 = dag.ViewOf(0);
  ASSERT_EQ(view0.size(), 2u);  // own internal + cross
  EXPECT_FALSE(view0[0].cross);
  EXPECT_TRUE(view0[1].cross);
  EXPECT_TRUE(DagLedger::AuditView(view0, 0).ok());

  auto view1 = dag.ViewOf(1);
  EXPECT_EQ(view1.size(), 3u);
  EXPECT_TRUE(DagLedger::AuditView(view1, 1).ok());
}

TEST(DagLedgerTest, AuditViewRejectsForeignInternalTxn) {
  DagLedger dag(2);
  dag.AppendInternal(0, InternalTxn(1, 0));
  auto view = dag.ViewOf(0);
  auto status = DagLedger::AuditView(view, 1);  // wrong enterprise
  EXPECT_TRUE(status.IsPermissionDenied());
}

TEST(DagLedgerTest, AuditDetectsTamperedVertex) {
  DagLedger dag(2);
  dag.AppendInternal(0, InternalTxn(1, 0));
  dag.AppendCross(CrossTxn(2));
  auto view = dag.ViewOf(0);
  view[0].txn.ops[0].value = "tampered";
  EXPECT_TRUE(DagLedger::AuditView(view, 0).IsCorruption());
}

TEST(DagLedgerTest, UnknownEnterpriseRejected) {
  DagLedger dag(2);
  EXPECT_FALSE(dag.AppendInternal(5, InternalTxn(1, 5)).ok());
}

TEST(DagLedgerTest, CountsTrackKinds) {
  DagLedger dag(2);
  dag.AppendInternal(0, InternalTxn(1, 0));
  dag.AppendInternal(1, InternalTxn(2, 1));
  dag.AppendCross(CrossTxn(3));
  EXPECT_EQ(dag.num_internal(), 2u);
  EXPECT_EQ(dag.num_cross(), 1u);
}

}  // namespace
}  // namespace pbc::ledger
