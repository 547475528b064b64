// Fault injection across the sharding layer: every shard is a real PBFT
// cluster, so each tolerates f=1 faulty replicas without the cross-shard
// protocols noticing.
#include <gtest/gtest.h>

#include "check/harness.h"
#include "shard/resilientdb.h"
#include "shard/sharper.h"
#include "shard/two_phase.h"
#include "sim/world.h"

namespace pbc::shard {
namespace {

using txn::Op;
using txn::Transaction;

constexpr sim::Time kMaxSimTime = 300'000'000;

using sim::World;

Transaction Deposit(txn::TxnId id, const std::string& key, int64_t amount) {
  Transaction t;
  t.id = id;
  t.ops.push_back(Op::Increment(key, amount));
  return t;
}

Transaction Transfer(txn::TxnId id, const std::string& from,
                     const std::string& to, int64_t amount) {
  Transaction t;
  t.id = id;
  t.ops.push_back(Op::Increment(from, -amount));
  t.ops.push_back(Op::Increment(to, amount));
  return t;
}

TEST(ShardFaultTest, SharperSurvivesOneCrashPerCluster) {
  World w(1);
  SharperSystem sys(&w.net, &w.registry, 2, /*replicas_per_shard=*/4);
  std::map<txn::TxnId, bool> results;
  sys.set_listener([&](txn::TxnId id, bool ok) { results[id] = ok; });
  w.net.Start();
  // Crash one replica in each shard cluster (node ids: shard 0 = 0..3,
  // gateway 4; shard 1 = 5..8, gateway 9).
  w.net.Crash(2);
  w.net.Crash(7);
  sys.Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/a", "s1/b", 25));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(2) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(results[2]);
  w.sim.Run(w.sim.now() + 30'000'000);
  EXPECT_EQ(sys.TotalBalance(), 100);
  // Surviving replicas in each cluster stayed consistent.
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(sys.shard(s)->consensus()->ChainsConsistent());
  }
}

TEST(ShardFaultTest, SharperSurvivesSilentByzantineReplicas) {
  World w(2);
  SharperSystem sys(&w.net, &w.registry, 2);
  std::map<txn::TxnId, bool> results;
  sys.set_listener([&](txn::TxnId id, bool ok) { results[id] = ok; });
  // One silent Byzantine replica per cluster.
  sys.shard(0)->consensus()->replica(3)->set_byzantine_mode(
      consensus::ByzantineMode::kSilent);
  sys.shard(1)->consensus()->replica(3)->set_byzantine_mode(
      consensus::ByzantineMode::kSilent);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/a", 50));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/a", "s1/b", 10));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(2) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(results[2]);
  w.sim.Run(w.sim.now() + 30'000'000);
  EXPECT_EQ(sys.TotalBalance(), 50);
}

TEST(ShardFaultTest, AhlSurvivesCommitteeReplicaCrash) {
  World w(3);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  std::map<txn::TxnId, bool> results;
  sys.set_listener([&](txn::TxnId id, bool ok) { results[id] = ok; });
  w.net.Start();
  // Committee replicas live at ids [10, 14); crash one.
  w.net.Crash(11);
  sys.Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/a", "s1/b", 40));
  ASSERT_TRUE(w.sim.RunUntil([&] { return results.count(2) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(results[2]);
  w.sim.Run(w.sim.now() + 30'000'000);
  EXPECT_EQ(sys.TotalBalance(), 100);
}

TEST(ShardFaultTest, ResilientDbSurvivesCrashInEachCluster) {
  World w(4);
  ResilientDbSystem sys(&w.net, &w.registry, 2);
  size_t done = 0;
  sys.set_listener([&](txn::TxnId, bool) { ++done; });
  w.net.Start();
  w.net.Crash(1);  // cluster 0 replica
  w.net.Crash(6);  // cluster 1 replica
  sys.Submit(0, Deposit(1, "x", 5));
  sys.Submit(1, Deposit(2, "y", 7));
  ASSERT_TRUE(w.sim.RunUntil([&] { return done >= 2; }, kMaxSimTime));
  w.sim.Run(w.sim.now() + 30'000'000);
  EXPECT_TRUE(sys.StateOf(0).SameLatestState(sys.StateOf(1)));
  EXPECT_EQ(txn::DecodeInt(sys.StateOf(0).Get("x").ValueOrDie().value), 5);
}

// Property sweep: randomized crash/recovery schedules via the src/check
// harness, whose invariant suite adds per-cluster agreement, ledger
// linkage, cross-shard atomicity, and settled-state conservation on top
// of the fixed-crash total-balance assertion this sweep used to make.
class ShardFaultPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void ExpectClean(check::Protocol protocol, uint64_t seed) {
    check::RunConfig cfg;
    cfg.protocol = protocol;
    cfg.nemesis = {.crash = true};
    cfg.seed = seed;
    cfg.txns = 12;  // a few deposits + transfers keeps the sweep quick
    check::RunResult result = check::RunOne(cfg);
    for (const check::Violation& v : result.violations) {
      ADD_FAILURE() << "[" << v.invariant << "] " << v.detail
                    << "\n  repro: " << cfg.ReproLine();
    }
    EXPECT_TRUE(result.live) << "not live; repro: " << cfg.ReproLine();
  }
};

TEST_P(ShardFaultPropertyTest, SharperConservesMoneyUnderRandomCrash) {
  ExpectClean(check::Protocol::kSharper, GetParam());
}

TEST_P(ShardFaultPropertyTest, AhlConservesMoneyUnderRandomCrash) {
  ExpectClean(check::Protocol::kAhl, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardFaultPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace pbc::shard
