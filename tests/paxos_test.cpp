#include <gtest/gtest.h>

#include "consensus/cluster.h"
#include "consensus/paxos.h"
#include "sim/world.h"

namespace pbc::consensus {
namespace {

constexpr sim::Time kMaxSimTime = 120'000'000;

using sim::World;

bool RunUntilCommitted(World* w, Cluster<PaxosReplica>* cluster,
                       uint64_t expect, const std::vector<size_t>& skip = {}) {
  return w->sim.RunUntil(
      [&] { return cluster->MinCommitted(skip) >= expect; }, kMaxSimTime);
}

TEST(PaxosTest, CommitsSubmittedTransactions) {
  World w(1);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 3);
  w.net.Start();
  for (int i = 0; i < 20; ++i) {
    cluster.Submit(MakeKvTxn(i + 1, "k" + std::to_string(i % 5), "v"));
  }
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(PaxosTest, ChainsIdenticalAcrossReplicas) {
  World w(2);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  for (int i = 0; i < 50; ++i) {
    cluster.Submit(MakeKvTxn(i + 1, "k" + std::to_string(i % 7), "v"));
  }
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 50));
  w.sim.Run(w.sim.now() + 2'000'000);
  for (size_t i = 1; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.replica(0)->chain().PrefixConsistentWith(
        cluster.replica(i)->chain()));
  }
  EXPECT_TRUE(cluster.replica(0)->chain().Audit().ok());
}

TEST(PaxosTest, SingleLeaderEmerges) {
  World w(3);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  int leaders = 0;
  for (size_t i = 0; i < 5; ++i) {
    leaders += cluster.replica(i)->IsLeader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(PaxosTest, SurvivesMinorityCrash) {
  World w(4);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  w.net.Crash(3);
  w.net.Crash(4);
  for (int i = 0; i < 20; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, {3, 4}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(PaxosTest, LeaderCrashTriggersNewBallot) {
  World w(5);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 3);
  w.net.Start();
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  size_t leader = 99;
  for (size_t i = 0; i < 3; ++i) {
    if (cluster.replica(i)->IsLeader()) leader = i;
  }
  ASSERT_NE(leader, 99u);
  w.net.Crash(static_cast<sim::NodeId>(leader));
  for (int i = 0; i < 5; ++i) {
    cluster.Submit(MakeKvTxn(100 + i, "k2", "v"));
  }
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {leader}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(PaxosTest, MinorityPartitionCannotCommit) {
  World w(6);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  w.net.Partition({{0, 1}, {2, 3, 4}});
  uint64_t before0 = cluster.replica(0)->committed_txns();
  for (int i = 0; i < 5; ++i) cluster.Submit(MakeKvTxn(100 + i, "k2", "v"));
  w.sim.Run(w.sim.now() + 5'000'000);
  EXPECT_EQ(cluster.replica(0)->committed_txns(), before0);
  // Majority side still commits, and healing converges everyone.
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {0, 1}));
  w.net.Heal();
  w.sim.Run(w.sim.now() + 30'000'000);
  EXPECT_TRUE(cluster.ChainsConsistent());
}

class PaxosPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosPropertyTest, SafeAndLiveUnderRandomCrash) {
  uint64_t seed = GetParam();
  World w(seed ^ 0xFACE);
  w.net.SetDefaultLatency({300, 900});
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  for (int i = 0; i < 25; ++i) cluster.Submit(MakeKvTxn(i + 1, "k", "v"));
  size_t victim = seed % 5;
  w.sim.Schedule(1000 + seed * 173 % 30000,
                 [&w, victim] { w.net.Crash(victim); });
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 25, {victim}))
      << "seed=" << seed;
  EXPECT_TRUE(cluster.ChainsConsistent()) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

}  // namespace
}  // namespace pbc::consensus
