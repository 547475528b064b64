// Protocol-specific safety-rule tests: the fine print that distinguishes
// the consensus protocols from one another.
#include <gtest/gtest.h>

#include "consensus/cluster.h"
#include "consensus/hotstuff.h"
#include "consensus/pbft.h"
#include "consensus/tendermint.h"
#include "sim/world.h"

namespace pbc::consensus {
namespace {

constexpr sim::Time kMaxSimTime = 120'000'000;

using sim::World;

// --- HotStuff specifics -----------------------------------------------------

TEST(HotStuffDetailTest, CommitRequiresThreeChain) {
  // With only two replicas responding after the first proposal, no QC can
  // form (n-f = 3 of 4 needed), so nothing may ever commit.
  World w(1);
  Cluster<HotStuffReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.net.Crash(2);
  w.net.Crash(3);  // two of four down: below quorum
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  w.sim.Run(30'000'000);
  EXPECT_EQ(cluster.MaxCommitted(), 0u);
}

TEST(HotStuffDetailTest, RecoversWhenQuorumRestored) {
  World w(2);
  Cluster<HotStuffReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.net.Crash(2);
  w.net.Crash(3);
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  w.sim.Run(10'000'000);
  ASSERT_EQ(cluster.MaxCommitted(), 0u);
  w.net.Recover(3);  // back to 3 live replicas = quorum
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted({2}) >= 5; }, kMaxSimTime));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

// --- Tendermint specifics ----------------------------------------------------

TEST(TendermintDetailTest, EquivocatingProposerCannotSplitDecision) {
  // The proposer sends different batches to each half. With equal voting
  // power neither half can reach +2/3 prevotes for its value, so the
  // round nil-precommits and a later (honest) proposer decides. Safety:
  // no two honest validators ever commit different blocks at a height.
  World w(3);
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4);
  for (size_t i = 0; i < 4; ++i) {
    cluster.replica(i)->set_byzantine_mode(
        i == 1 ? ByzantineMode::kEquivocate : ByzantineMode::kHonest);
  }
  w.net.Start();
  for (int i = 0; i < 10; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted({1}) >= 10; }, kMaxSimTime));
  w.sim.Run(w.sim.now() + 3'000'000);
  EXPECT_TRUE(cluster.ChainsConsistent());
  // No forged fork transaction committed anywhere.
  for (size_t i = 0; i < 4; ++i) {
    if (i == 1) continue;
    for (const auto& block : cluster.replica(i)->chain().blocks()) {
      for (const auto& t : block.txns) {
        EXPECT_LT(t.id, 0xE000000000000ULL);
      }
    }
  }
}

TEST(TendermintDetailTest, MajorityPowerValidatorAloneCannotBeStopped) {
  // A validator with > 2/3 of the power is a one-node quorum; even with
  // every other validator crashed it keeps committing (the flip side of
  // WeightedQuorumRespectsVotingPower).
  World w(4);
  ClusterConfig cfg;
  cfg.voting_power = {9, 1, 1, 1};  // 9 > (2/3)·12
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  w.net.Crash(1);
  w.net.Crash(2);
  w.net.Crash(3);
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.replica(0)->committed_txns() >= 5; },
      kMaxSimTime));
  EXPECT_GE(cluster.replica(0)->height(), 2u);
}

// --- PBFT specifics -----------------------------------------------------------

TEST(PbftDetailTest, WindowBoundsOutstandingSequences) {
  // With batch_size 1 and hundreds of txns, the pipeline must respect the
  // watermark window and still drain completely.
  World w(5);
  ClusterConfig cfg;
  cfg.batch_size = 1;
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  for (int i = 0; i < 300; ++i) {
    cluster.Submit(MakeKvTxn(i + 1, "k" + std::to_string(i % 3), "v"));
  }
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted() >= 300; }, kMaxSimTime));
  EXPECT_TRUE(cluster.ChainsConsistent());
  // Checkpoints advanced and garbage-collected (stable > 0).
  EXPECT_GT(cluster.replica(0)->stable_checkpoint(), 0u);
}

TEST(PbftDetailTest, SuccessiveLeaderCrashesCascadeViewChanges) {
  World w(6);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 7);  // f = 2
  w.net.Start();
  for (int i = 0; i < 10; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  // Kill the primaries of views 0 and 1 back-to-back.
  w.net.Crash(0);
  w.sim.Schedule(100'000, [&w] { w.net.Crash(1); });
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted({0, 1}) >= 10; }, kMaxSimTime));
  EXPECT_GE(cluster.replica(2)->view(), 2u);
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(PbftDetailTest, MessageLossToleratedViaTimeouts) {
  World w(7);
  w.net.SetDropRate(0.05);  // 5% loss on every link
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  for (int i = 0; i < 20; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted() >= 20; }, kMaxSimTime));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

}  // namespace
}  // namespace pbc::consensus
