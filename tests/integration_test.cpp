// Cross-layer integration tests: consensus feeding architectures,
// Caper running over real PBFT orderers, and end-to-end workload flows.
#include <gtest/gtest.h>

#include "arch/fabricpp.h"
#include "arch/xov.h"
#include "confidential/caper.h"
#include "consensus/cluster.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "shard/sharper.h"
#include "sim/world.h"
#include "workload/workload.h"

namespace pbc {
namespace {

constexpr sim::Time kMaxSimTime = 120'000'000;

// ---------------------------------------------------------------------------
// Consensus → architecture: each replica executes the agreed blocks with an
// execution architecture; all replica states must coincide.
// ---------------------------------------------------------------------------

TEST(IntegrationTest, PbftOrderingFeedsOxiiExecutionConsistently) {
  sim::World w(1);
  consensus::Cluster<consensus::PbftReplica> cluster(&w.net, &w.registry, 4);

  // One OXII execution engine per replica, fed by that replica's commits.
  ThreadPool pool(4);
  std::vector<std::unique_ptr<arch::OxiiArchitecture>> engines;
  for (size_t i = 0; i < 4; ++i) {
    engines.push_back(std::make_unique<arch::OxiiArchitecture>(&pool));
  }
  for (size_t i = 0; i < 4; ++i) {
    cluster.replica(i)->set_commit_listener(
        [&engines, i](sim::NodeId, uint64_t, const consensus::Batch& b) {
          if (!b.txns.empty()) engines[i]->ProcessBlock(b.txns);
        });
  }
  w.net.Start();

  workload::ZipfianKv::Options opt;
  opt.hot_probability = 0.5;  // contended: the DAG matters
  opt.hot_keys = 3;
  workload::ZipfianKv gen(opt, 42);
  for (int i = 0; i < 60; ++i) cluster.Submit(gen.Next());

  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted() >= 60; }, kMaxSimTime));
  w.sim.Run(w.sim.now() + 2'000'000);

  for (size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(engines[0]->store().SameLatestState(engines[i]->store()))
        << "replica " << i;
    EXPECT_TRUE(engines[0]->chain().SameAs(engines[i]->chain()));
  }
  EXPECT_EQ(engines[0]->stats().committed, 60u);
}

TEST(IntegrationTest, RaftOrderingFeedsXovWithIdenticalAborts) {
  sim::World w(2);
  consensus::Cluster<consensus::RaftReplica> cluster(&w.net, &w.registry, 3);

  ThreadPool pool(4);
  std::vector<std::unique_ptr<arch::XovArchitecture>> engines;
  for (size_t i = 0; i < 3; ++i) {
    engines.push_back(std::make_unique<arch::XovArchitecture>(&pool));
    cluster.replica(i)->set_commit_listener(
        [&engines, i](sim::NodeId, uint64_t, const consensus::Batch& b) {
          if (!b.txns.empty()) engines[i]->ProcessBlock(b.txns);
        });
  }
  w.net.Start();

  workload::ZipfianKv::Options opt;
  opt.hot_probability = 0.7;
  opt.hot_keys = 2;
  workload::ZipfianKv gen(opt, 7);
  for (int i = 0; i < 40; ++i) cluster.Submit(gen.Next());

  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return cluster.MinCommitted() >= 40; }, kMaxSimTime));
  w.sim.Run(w.sim.now() + 2'000'000);

  // Fabric's validation is deterministic: every replica aborts the same
  // transactions and reaches the same state.
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(engines[0]->stats().aborted, engines[i]->stats().aborted);
    EXPECT_TRUE(engines[0]->store().SameLatestState(engines[i]->store()));
  }
  EXPECT_GT(engines[0]->stats().aborted, 0u);  // contention was real
}

// ---------------------------------------------------------------------------
// Caper over real PBFT orderers: internal transactions use a per-enterprise
// cluster, cross-enterprise transactions a global cluster.
// ---------------------------------------------------------------------------

struct CaperOverPbft {
  static constexpr uint32_t kEnterprises = 3;

  CaperOverPbft() : w(11), caper(kEnterprises) {
    // Per-enterprise internal clusters + one global cluster.
    for (uint32_t e = 0; e < kEnterprises; ++e) {
      internal.push_back(
          std::make_unique<consensus::Cluster<consensus::PbftReplica>>(
              &w.net, &w.registry, 4, consensus::ClusterConfig{},
              /*base_id=*/100 * (e + 1)));
    }
    global = std::make_unique<consensus::Cluster<consensus::PbftReplica>>(
        &w.net, &w.registry, 4, consensus::ClusterConfig{}, /*base_id=*/1000);

    // Wire orderers: Submit → consensus; commit → Caper's commit path.
    for (uint32_t e = 0; e < kEnterprises; ++e) {
      caper.SetInternalOrderer(
          e, [this, e](txn::Transaction t,
                       confidential::CaperSystem::CommitFn commit) {
            pending[t.id] = commit;
            internal[e]->Submit(std::move(t));
          });
      internal[e]->replica(0)->set_commit_listener(
          [this](sim::NodeId, uint64_t, const consensus::Batch& batch) {
            Drain(batch);
          });
    }
    caper.SetGlobalOrderer([this](txn::Transaction t,
                                  confidential::CaperSystem::CommitFn commit) {
      pending[t.id] = commit;
      global->Submit(std::move(t));
    });
    global->replica(0)->set_commit_listener(
        [this](sim::NodeId, uint64_t, const consensus::Batch& batch) {
          Drain(batch);
        });
    w.net.Start();
  }

  // Hands each txn its orderer delivered to Caper's commit path, once.
  void Drain(const consensus::Batch& batch) {
    for (const auto& t : batch.txns) {
      auto it = pending.find(t.id);
      if (it != pending.end()) {
        it->second(t);
        pending.erase(it);
      }
    }
  }

  sim::World w;
  confidential::CaperSystem caper;
  std::vector<std::unique_ptr<consensus::Cluster<consensus::PbftReplica>>>
      internal;
  std::unique_ptr<consensus::Cluster<consensus::PbftReplica>> global;
  // Txn ids are unique across enterprises, so one map serves all orderers.
  std::map<txn::TxnId, confidential::CaperSystem::CommitFn> pending;
};

TEST(IntegrationTest, CaperOverPbftOrderersCommitsBothKinds) {
  CaperOverPbft world;
  workload::SupplyChain chain(CaperOverPbft::kEnterprises, 0.3, 5);
  int internal_sent = 0, cross_sent = 0;
  for (int i = 0; i < 40; ++i) {
    auto step = chain.Next();
    if (step.cross) {
      ASSERT_TRUE(world.caper.SubmitCross(step.txn).ok());
      ++cross_sent;
    } else {
      ASSERT_TRUE(
          world.caper.SubmitInternal(step.enterprise, step.txn).ok());
      ++internal_sent;
    }
  }
  ASSERT_TRUE(world.w.sim.RunUntil(
      [&] {
        return world.caper.internal_committed() ==
                   static_cast<uint64_t>(internal_sent) &&
               world.caper.cross_committed() ==
                   static_cast<uint64_t>(cross_sent);
      },
      kMaxSimTime));
  EXPECT_TRUE(world.caper.global_dag().Audit().ok());
  // Views audit per enterprise; cross txns visible in all views.
  for (uint32_t e = 0; e < CaperOverPbft::kEnterprises; ++e) {
    auto view = world.caper.enterprise(e).view();
    EXPECT_TRUE(
        ledger::DagLedger::AuditView(view, e).ok());
    int cross_seen = 0;
    for (const auto& v : view) cross_seen += v.cross ? 1 : 0;
    EXPECT_EQ(cross_seen, cross_sent);
  }
}

TEST(IntegrationTest, CaperInternalTrafficAvoidsGlobalCluster) {
  CaperOverPbft world;
  // Only internal transactions: the global cluster must stay idle.
  workload::SupplyChain chain(CaperOverPbft::kEnterprises, 0.0, 6);
  for (int i = 0; i < 20; ++i) {
    auto step = chain.Next();
    ASSERT_TRUE(world.caper.SubmitInternal(step.enterprise, step.txn).ok());
  }
  ASSERT_TRUE(world.w.sim.RunUntil(
      [&] { return world.caper.internal_committed() == 20; }, kMaxSimTime));
  EXPECT_EQ(world.global->replica(0)->committed_txns(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end sharded workload with invariant checking.
// ---------------------------------------------------------------------------

TEST(IntegrationTest, SharperConservesMoneyUnderMixedWorkload) {
  sim::World w(21);
  shard::SharperSystem sys(&w.net, &w.registry, 3);
  size_t done = 0;
  sys.set_listener([&](txn::TxnId, bool) { ++done; });
  w.net.Start();

  workload::ShardedTransfers gen(3, 5, 100, 0.3, 13);
  auto deposits = gen.InitialDeposits();
  for (auto& d : deposits) sys.Submit(std::move(d));
  ASSERT_TRUE(w.sim.RunUntil([&] { return done >= 15; }, kMaxSimTime));

  for (int i = 0; i < 20; ++i) sys.Submit(gen.NextTransfer());
  ASSERT_TRUE(w.sim.RunUntil([&] { return done >= 35; }, kMaxSimTime));
  w.sim.Run(w.sim.now() + 20'000'000);
  EXPECT_EQ(sys.TotalBalance(), gen.expected_total());
}

}  // namespace
}  // namespace pbc
