#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/harness.h"
#include "consensus/cluster.h"
#include "consensus/hotstuff.h"
#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "consensus/tendermint.h"
#include "obs/metrics.h"
#include "sim/world.h"
#include "store/codec.h"

namespace pbc::consensus {
namespace {

constexpr sim::Time kMaxSimTime = 60'000'000;  // 60 simulated seconds

using sim::World;

template <typename R>
void SubmitN(Cluster<R>* cluster, int count, int base = 0) {
  for (int i = 0; i < count; ++i) {
    cluster->Submit(
        MakeKvTxn(base + i, "k" + std::to_string(i % 7), "v" + std::to_string(i)));
  }
}

// Runs until every non-skipped replica has committed `expect` txns.
template <typename R>
bool RunUntilCommitted(World* w, Cluster<R>* cluster, uint64_t expect,
                       const std::vector<size_t>& skip = {}) {
  return w->sim.RunUntil(
      [&] { return cluster->MinCommitted(skip) >= expect; }, kMaxSimTime);
}

// ---------------------------------------------------------------------------
// Typed tests: behaviours every protocol must share.
// ---------------------------------------------------------------------------

template <typename R>
class ProtocolTest : public ::testing::Test {};

using Protocols = ::testing::Types<PbftReplica, RaftReplica, HotStuffReplica,
                                   TendermintReplica>;
TYPED_TEST_SUITE(ProtocolTest, Protocols);

TYPED_TEST(ProtocolTest, CommitsSubmittedTransactions) {
  World w(1);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TYPED_TEST(ProtocolTest, ChainsIdenticalAcrossReplicas) {
  World w(2);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 50);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 50));
  // Let stragglers drain, then insist chains agree block-for-block.
  w.sim.Run(w.sim.now() + 2'000'000);
  for (size_t i = 1; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.replica(0)->chain().PrefixConsistentWith(
        cluster.replica(i)->chain()));
  }
  EXPECT_TRUE(cluster.replica(0)->chain().Audit().ok());
}

TYPED_TEST(ProtocolTest, NoDuplicateCommits) {
  World w(3);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  // Submit the same transactions twice; ids dedup in the pool and at
  // delivery, so exactly 10 commits must appear.
  SubmitN(&cluster, 10);
  SubmitN(&cluster, 10);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  w.sim.Run(w.sim.now() + 5'000'000);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.replica(i)->committed_txns(), 10u) << "replica " << i;
  }
}

TYPED_TEST(ProtocolTest, ProgressWithMessageJitter) {
  World w(4);
  w.net.SetDefaultLatency({500, 2000});  // heavy jitter → reordering
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 30);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 30));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TYPED_TEST(ProtocolTest, LargerClusterStillCommits) {
  World w(5);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 7);
  w.net.Start();
  SubmitN(&cluster, 15);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 15));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

// ---------------------------------------------------------------------------
// BFT protocols: crash and Byzantine fault tolerance.
// ---------------------------------------------------------------------------

template <typename R>
class BftProtocolTest : public ::testing::Test {};
using BftProtocols =
    ::testing::Types<PbftReplica, HotStuffReplica, TendermintReplica>;
TYPED_TEST_SUITE(BftProtocolTest, BftProtocols);

TYPED_TEST(BftProtocolTest, ToleratesOneCrashedFollower) {
  World w(6);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.net.Crash(3);  // not the initial leader for any of the protocols
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, /*skip=*/{3}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TYPED_TEST(BftProtocolTest, ToleratesCrashedLeaderViaViewChange) {
  World w(7);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  // Submit first so the initial leader is mid-protocol, then kill it.
  SubmitN(&cluster, 10);
  w.sim.Run(200);  // a few events in
  // Crash whichever node leads first: PBFT view 0 → replica 0;
  // HotStuff view 1 → replica 1; Tendermint h=1,r=0 → depends on rotation.
  // Crash replica 0 and replica-index of the current proposer would need
  // protocol knowledge; crashing node 0 exercises leader loss for PBFT and
  // a follower loss otherwise — both must keep committing.
  w.net.Crash(0);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, /*skip=*/{0}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TYPED_TEST(BftProtocolTest, SafeUnderSilentByzantineReplica) {
  World w(8);
  w.Observe();
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  cluster.replica(2)->set_byzantine_mode(ByzantineMode::kSilent);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, /*skip=*/{2}));
  EXPECT_TRUE(cluster.ChainsConsistent());
  // The silent replica sent nothing on any link.
  const std::string from_silent =
      "net.link." + std::to_string(cluster.replica(2)->id()) + "->";
  for (const auto& [name, counter] : w.metrics.counters()) {
    if (name.rfind(from_silent, 0) == 0) {
      EXPECT_EQ(counter.value(), 0u) << name;
    }
  }
}

TYPED_TEST(BftProtocolTest, SafeUnderEquivocatingLeader) {
  World w(9);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  // Make every replica equivocate when it happens to lead; honest quorum
  // (3 of 4 needed) can never form on both forks, so safety must hold.
  cluster.replica(0)->set_byzantine_mode(ByzantineMode::kEquivocate);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, /*skip=*/{0}));
  w.sim.Run(w.sim.now() + 2'000'000);
  EXPECT_TRUE(cluster.ChainsConsistent());
  // The forged "evil" fork must not have been committed anywhere: every
  // committed chain contains only client transactions.
  for (size_t i = 1; i < cluster.size(); ++i) {
    for (const auto& block : cluster.replica(i)->chain().blocks()) {
      for (const auto& t : block.txns) {
        EXPECT_LT(t.id, 0xE000000000ULL) << "evil txn committed!";
      }
    }
  }
}

TYPED_TEST(BftProtocolTest, SafeUnderPromiscuousVoter) {
  World w(10);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4);
  cluster.replica(1)->set_byzantine_mode(ByzantineMode::kVoteBoth);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, /*skip=*/{1}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

// Property sweep: randomized fault schedules through the src/check
// harness, which layers the full invariant suite (agreement, linkage,
// validity, KV linearizability, conservation) over every seed and prints
// a replayable check_runner line on failure. The bespoke
// crash-at-random-time loops this file used to carry live there now.
class ConsensusPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void ExpectClean(check::Protocol protocol, uint64_t seed,
                          check::NemesisProfile nemesis) {
    check::RunConfig cfg;
    cfg.protocol = protocol;
    cfg.nemesis = nemesis;
    cfg.seed = seed;
    cfg.txns = 25;
    check::RunResult result = check::RunOne(cfg);
    for (const check::Violation& v : result.violations) {
      ADD_FAILURE() << "[" << v.invariant << "] " << v.detail
                    << "\n  repro: " << cfg.ReproLine();
    }
    EXPECT_TRUE(result.live) << "not live; repro: " << cfg.ReproLine();
  }
};

TEST_P(ConsensusPropertyTest, PbftSafeAndLiveUnderRandomCrash) {
  ExpectClean(check::Protocol::kPbft, GetParam(), {.crash = true});
}

TEST_P(ConsensusPropertyTest, HotStuffSafeAndLiveUnderRandomCrash) {
  ExpectClean(check::Protocol::kHotStuff, GetParam(), {.crash = true});
}

TEST_P(ConsensusPropertyTest, TendermintSafeAndLiveUnderRandomCrash) {
  ExpectClean(check::Protocol::kTendermint, GetParam(), {.crash = true});
}

TEST_P(ConsensusPropertyTest, RaftSafeUnderCrashAndPartition) {
  ExpectClean(check::Protocol::kRaft, GetParam(),
              {.crash = true, .partition = true});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

// ---------------------------------------------------------------------------
// Block pipeline: proposers seal pool transactions into hash-chained
// blocks, consensus orders the 32-byte block hashes, and bodies travel
// beside the protocol (broadcast at proposal, fetched on a miss).
// ---------------------------------------------------------------------------

ClusterConfig BlockConfig(size_t max_txns, sim::Time max_delay_us = 5000) {
  ClusterConfig cfg;
  cfg.block.enabled = true;
  cfg.block.max_txns = max_txns;
  cfg.block.max_delay_us = max_delay_us;
  return cfg;
}

TYPED_TEST(ProtocolTest, BlockModeCommitsAndBatchesIntoChainBlocks) {
  World w(60);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4, BlockConfig(50));
  w.net.Start();
  SubmitN(&cluster, 200);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 200));
  w.sim.Run(w.sim.now() + 2'000'000);
  EXPECT_TRUE(cluster.ChainsConsistent());
  // The size cut batches 200 txns into ~4 sealed blocks, so the chain
  // must be far shorter than one-height-per-txn.
  EXPECT_LE(cluster.replica(0)->chain().height(), 10u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_FALSE(cluster.replica(i)->delivery_stalled_on_body())
        << "replica " << i << " still waiting on a block body";
  }
}

TYPED_TEST(ProtocolTest, BlockModeTimerCutFlushesPartialBlock) {
  // Fewer txns than the size cut: only the timer cut can seal the block,
  // so commitment at all proves the timer-cut path.
  World w(61);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4,
                             BlockConfig(/*max_txns=*/200));
  w.net.Start();
  SubmitN(&cluster, 15);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 15));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TYPED_TEST(ProtocolTest, BlockModeQuorumLiveUnderMessageDrops) {
  // 15% message drops hit block bodies and fetch traffic as much as the
  // protocol itself; a quorum must still commit everything (a single
  // laggard is permitted — consensus-level catch-up is out of scope).
  World w(62);
  w.net.SetDropRate(0.15);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  w.net.Start();
  SubmitN(&cluster, 40);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        size_t caught_up = 0;
        for (size_t i = 0; i < cluster.size(); ++i) {
          if (cluster.replica(i)->committed_txns() >= 40) ++caught_up;
        }
        return caught_up >= 3;
      },
      kMaxSimTime));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

// Every replica's store holds one and the same object under `hash`: a
// body is shared from the proposer's seal to each store, never copied.
template <typename R>
void ExpectOneSharedBody(const Cluster<R>& cluster,
                         const crypto::Hash256& hash) {
  const ledger::VerifiedBlock* first =
      cluster.replica(0)->block_store().Get(hash);
  ASSERT_NE(first, nullptr) << "replica 0";
  for (size_t i = 1; i < cluster.size(); ++i) {
    const ledger::VerifiedBlock* stored =
        cluster.replica(i)->block_store().Get(hash);
    ASSERT_NE(stored, nullptr) << "replica " << i;
    EXPECT_EQ(&stored->body(), &first->body()) << "replica " << i;
  }
}

// Records the block hash of every block-ref batch `replica` delivers.
template <typename R>
void RecordDeliveredBlocks(R* replica, std::vector<crypto::Hash256>* hashes) {
  replica->set_commit_listener(
      [hashes](sim::NodeId, uint64_t, const Batch& b) {
        if (b.ref_txn_count > 0) hashes->push_back(b.block_hash);
      });
}

TEST(BlockPipelineTest, PartitionedFollowerFetchesMissedBodies) {
  // Replica 3 is partitioned away while the majority seals and commits
  // blocks, so it misses every body broadcast. After healing, raft's
  // append retries hand it block *references*; it must fetch the bodies
  // it never saw before it can deliver.
  World w(63);
  Cluster<RaftReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  std::vector<crypto::Hash256> delivered;
  RecordDeliveredBlocks(cluster.replica(3), &delivered);
  w.net.Start();
  SubmitN(&cluster, 5);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  w.net.Partition({{0, 1, 2}, {3}});
  SubmitN(&cluster, 30, /*base=*/100);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 35, /*skip=*/{3}));
  EXPECT_LT(cluster.replica(3)->committed_txns(), 35u);
  const size_t before_heal = delivered.size();
  w.net.Heal();
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 35));
  EXPECT_TRUE(cluster.ChainsConsistent());
  EXPECT_FALSE(cluster.replica(3)->delivery_stalled_on_body());
  // The bodies it delivered are now resident in its block store, and each
  // fetch reply carried the very object the proposer sealed.
  EXPECT_GT(cluster.replica(3)->block_store().size(), 0u);
  ASSERT_GT(delivered.size(), before_heal);
  for (size_t i = before_heal; i < delivered.size(); ++i) {
    ExpectOneSharedBody(cluster, delivered[i]);
  }
}

TEST(BlockPipelineTest, FaultFreePbftSharesEachBodyAcrossStores) {
  World w(66);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  std::vector<crypto::Hash256> delivered;
  RecordDeliveredBlocks(cluster.replica(0), &delivered);
  w.net.Start();
  SubmitN(&cluster, 40);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 40));
  EXPECT_TRUE(cluster.ChainsConsistent());
  ASSERT_FALSE(delivered.empty());
  for (const crypto::Hash256& h : delivered) ExpectOneSharedBody(cluster, h);
}

TEST(BlockPipelineTest, RepeatedCommittedTxnIsDroppedAndChainRootRebuilt) {
  // HotStuff pipelines proposals: the next view's leader seals its own
  // pool before the previous block commits, so a later block repeats
  // client txns that an earlier block commits first. Delivery drops the
  // repeats; the chain block then holds fewer txns than the body it came
  // from and must get a freshly computed root, not the body's.
  World w(65);
  Cluster<HotStuffReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  size_t partially_filtered = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.replica(i)->set_commit_listener(
        [&partially_filtered](sim::NodeId, uint64_t, const Batch& b) {
          if (!b.txns.empty() && b.txns.size() < b.ref_txn_count) {
            ++partially_filtered;
          }
        });
  }
  w.net.Start();
  SubmitN(&cluster, 5);
  w.sim.Run(w.sim.now() + 6'000);  // the timer cut seals txns 0..4
  SubmitN(&cluster, 5, /*base=*/100);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  w.sim.Run(w.sim.now() + 2'000'000);
  EXPECT_GT(partially_filtered, 0u) << "no block repeated a committed txn";
  EXPECT_TRUE(cluster.ChainsConsistent());
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto& chain = cluster.replica(i)->chain();
    EXPECT_TRUE(chain.Audit().ok()) << "replica " << i;
    // Every delivered txn reached the chain: no Append was refused.
    uint64_t chained = 0;
    for (const auto& block : chain.blocks()) chained += block.txns.size();
    EXPECT_EQ(chained, cluster.replica(i)->committed_txns()) << "replica " << i;
  }
}

TYPED_TEST(BftProtocolTest, BlockModeSafeUnderEquivocatingLeader) {
  // Equivocating proposers fall back to inline payloads; honest replicas
  // keep sealing blocks. Safety must hold across the mixed chain.
  World w(64);
  Cluster<TypeParam> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  cluster.replica(0)->set_byzantine_mode(ByzantineMode::kEquivocate);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20, /*skip=*/{0}));
  w.sim.Run(w.sim.now() + 2'000'000);
  EXPECT_TRUE(cluster.ChainsConsistent());
  for (size_t i = 1; i < cluster.size(); ++i) {
    for (const auto& block : cluster.replica(i)->chain().blocks()) {
      for (const auto& t : block.txns) {
        EXPECT_LT(t.id, 0xE000000000ULL) << "evil txn committed!";
      }
    }
  }
}

// A fault-free block-mode run at `n` replicas commits 200 txns without one
// body fetch: the body a proposer broadcasts with its ref lands within one
// jitter bound of the ref, and a parked ref waits that long before asking.
template <typename R>
void ExpectFaultFreeRunFetchesNoBody(uint64_t seed, size_t n) {
  World w(seed);
  w.Observe();
  Cluster<R> cluster(&w.net, &w.registry, n, BlockConfig(10));
  w.net.Start();
  for (int wave = 0; wave < 10; ++wave) {
    SubmitN(&cluster, 20, /*base=*/wave * 20);
    w.sim.Run(w.sim.now() + 3'000);
  }
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 200));
  EXPECT_TRUE(cluster.ChainsConsistent());
  EXPECT_GT(w.metrics.CounterValue("net.sent.block-body"), 0u);
  EXPECT_EQ(w.metrics.CounterValue("net.sent.block-fetch"), 0u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_FALSE(cluster.replica(i)->delivery_stalled_on_body())
        << "replica " << i;
  }
}

TYPED_TEST(BftProtocolTest, BlockModeFaultFreeRunFetchesNoBody) {
  ExpectFaultFreeRunFetchesNoBody<TypeParam>(70, 4);
}

TEST(BlockPipelineTest, FaultFreePbftAtSevenFetchesNoBody) {
  ExpectFaultFreeRunFetchesNoBody<PbftReplica>(71, 7);
}

// ---------------------------------------------------------------------------
// Replica skeleton: tag dispatch and epoch-guarded timers.
// ---------------------------------------------------------------------------

// Every tagged consensus message must round-trip through sim::As<T> and
// match no other type. TmVote carries two names and is covered below.
template <typename M>
class MessageTagTest : public ::testing::Test {};
using TaggedMessages = ::testing::Types<
    BlockBodyMsg, BlockFetchMsg, PbftPrePrepare, PbftPrepare, PbftCommit,
    PbftCheckpoint, PbftViewChange, PbftNewView, HsProposal, HsVote,
    HsNewView, TmProposal, TmDecision, RaftRequestVote, RaftVoteReply,
    RaftAppendEntries, RaftAppendReply, PaxosPrepare, PaxosPromise,
    PaxosAccept, PaxosAccepted, PaxosCommit>;
TYPED_TEST_SUITE(MessageTagTest, TaggedMessages);

TYPED_TEST(MessageTagTest, RoundTripsThroughAs) {
  using Sibling = std::conditional_t<std::is_same_v<TypeParam, BlockBodyMsg>,
                                     BlockFetchMsg, BlockBodyMsg>;
  TypeParam msg;
  Sibling other;
  EXPECT_EQ(msg.type(), TypeParam::kType);
  EXPECT_EQ(sim::As<TypeParam>(msg), &msg);
  EXPECT_EQ(sim::As<TypeParam>(other), nullptr);
  EXPECT_EQ(sim::As<Sibling>(msg), nullptr);
}

// A laggard's vote (prevote or precommit) reaches HandleVote, which
// answers with the decision certificate for the laggard's height.
TEST(TendermintTest, BothVoteNamesReachHandleVote) {
  World w(54);
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 1);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 1));
  w.sim.RunAll();
  ASSERT_EQ(cluster.replica(0)->height(), 2u);
  for (bool precommit : {false, true}) {
    auto vote = std::make_shared<TmVote>();
    vote->precommit = precommit;
    vote->height = 1;
    uint64_t sent = w.net.stats().messages_sent;
    w.net.Send(cluster.replica(1)->id(), cluster.replica(0)->id(), vote);
    w.sim.RunAll();
    // The vote itself plus the replica's decision reply.
    EXPECT_EQ(w.net.stats().messages_sent, sent + 2) << vote->type();
  }
}

// A protocol-less replica: exposes the skeleton's pool, delivery and
// timer hooks so tests can drive them directly.
class ReplicaProbe : public Replica {
 public:
  using Replica::ArmTimer;
  using Replica::BindDigest;
  using Replica::DeliverCommitted;
  using Replica::Forked;
  using Replica::KnownClientTxns;
  using Replica::Replica;
  using Replica::ReturnToPool;
  using Replica::TakeBatch;

 private:
  void OnProtocolMessage(sim::NodeId, const sim::MessagePtr&) override {}
};

TEST(ReplicaTest, ArmTimerFiresOnlyTheLatestLiveArm) {
  World w(55);
  ClusterConfig cfg;
  cfg.replicas = {0};
  ReplicaProbe probe(0, &w.net, cfg, w.registry.RegisterDeterministic(0, 1),
                     &w.registry);
  uint64_t epoch = 0;
  std::vector<int> fired;
  auto arm = [&](int tag) {
    size_t pending = w.sim.pending_events();
    probe.ArmTimer(&epoch, 100, [&fired, tag] { fired.push_back(tag); });
    EXPECT_EQ(w.sim.pending_events(), pending + 1);
  };

  arm(1);
  arm(2);  // re-arming drops the earlier fire
  w.sim.RunAll();
  EXPECT_EQ(fired, std::vector<int>{2});

  arm(3);
  ++epoch;  // cancel
  w.sim.RunAll();
  EXPECT_EQ(fired, std::vector<int>{2});

  arm(4);
  w.net.Crash(0);  // a crash-recover cycle between arm and fire cancels it
  w.net.Recover(0);
  w.sim.RunAll();
  EXPECT_EQ(fired, std::vector<int>{2});

  arm(5);
  w.sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{2, 5}));
}

std::vector<txn::TxnId> Ids(const Batch& batch) {
  std::vector<txn::TxnId> ids;
  for (const auto& t : batch.txns) ids.push_back(t.id);
  return ids;
}

// A txn as a client submits it: one shared copy for every pool.
std::shared_ptr<const txn::Transaction> Shared(txn::Transaction txn) {
  return std::make_shared<const txn::Transaction>(std::move(txn));
}

Batch Inline(std::vector<txn::Transaction> txns) {
  Batch batch;
  batch.txns = std::move(txns);
  return batch;
}

// Moves simulated time to `t` (the probe arms no timers of its own).
void AdvanceTo(World* w, sim::Time t) {
  w->sim.Schedule(t - w->sim.now(), [] {});
  w->sim.RunAll();
}

// The pool's transitions, one assertion per rule: submit → pool → take →
// return → commit, in inline mode; then, in block mode, the timer cut's
// clock for a returned txn.
TEST(ReplicaTest, PoolKeepsItsSubmitTakeReturnCommitRules) {
  World w(56);
  w.Observe();
  ClusterConfig cfg;
  cfg.replicas = {0};
  cfg.batch_size = 2;
  ReplicaProbe probe(0, &w.net, cfg, w.registry.RegisterDeterministic(0, 1),
                     &w.registry);
  auto txn = [](txn::TxnId id) { return MakeKvTxn(id, "k", "v"); };

  probe.SubmitTransaction(Shared(txn(1)));
  probe.SubmitTransaction(Shared(txn(2)));
  probe.SubmitTransaction(Shared(txn(3)));
  probe.SubmitTransaction(Shared(txn(1)));  // pooled: no-op
  EXPECT_EQ(probe.pool_size(), 3u);

  Batch first = probe.TakeBatch();
  EXPECT_EQ(Ids(first), (std::vector<txn::TxnId>{1, 2}));
  EXPECT_EQ(probe.pool_size(), 1u);

  // Taken but uncommitted: a re-submit pools it again, at the back.
  AdvanceTo(&w, 100);
  probe.SubmitTransaction(Shared(txn(1)));
  EXPECT_EQ(probe.pool_size(), 2u);
  Batch second = probe.TakeBatch();
  EXPECT_EQ(Ids(second), (std::vector<txn::TxnId>{3, 1}));
  EXPECT_EQ(probe.pool_size(), 0u);

  // A failed proposal's txns re-join the pool; pooled ones stay put.
  probe.ReturnToPool(second);
  probe.ReturnToPool(second);
  EXPECT_EQ(probe.pool_size(), 2u);

  // Committing a pooled txn (3) takes it out of the pool; a taken one (2)
  // was never in it. Only live pooled txns count.
  AdvanceTo(&w, 1000);
  probe.DeliverCommitted(1, Inline({txn(3), txn(2)}));
  EXPECT_EQ(probe.committed_txns(), 2u);
  EXPECT_EQ(probe.pool_size(), 1u);
  Batch third = probe.TakeBatch();
  EXPECT_EQ(Ids(third), (std::vector<txn::TxnId>{1}));

  // A submit of a committed txn does nothing, nor does its return.
  probe.SubmitTransaction(Shared(txn(3)));
  probe.ReturnToPool(Inline({txn(2)}));
  EXPECT_EQ(probe.pool_size(), 0u);

  // A txn that commits without being submitted here (a Byzantine
  // leader's fabrication, 99) stays unknown; submitted ones are known.
  AdvanceTo(&w, 3000);
  probe.DeliverCommitted(2, Inline({txn(1), txn(99)}));
  EXPECT_EQ(probe.committed_txns(), 4u);
  EXPECT_TRUE(probe.KnownClientTxns(Inline({txn(1), txn(2), txn(3)})));
  EXPECT_FALSE(probe.KnownClientTxns(Inline({txn(99)})));
  EXPECT_FALSE(probe.KnownClientTxns(Inline({txn(1), txn(7)})));

  // A committed txn proposed again at a later sequence is dropped.
  probe.DeliverCommitted(3, Inline({txn(2), txn(99)}));
  EXPECT_EQ(probe.committed_txns(), 4u);
  EXPECT_EQ(probe.chain().height(), 2u);
  EXPECT_EQ(probe.last_delivered_seq(), 3u);

  // Commit latency: one sample per txn submitted here, measured from its
  // first submission (txn 1 was re-submitted at 100, committed at 3000).
  const obs::Histogram* latency =
      w.metrics.FindHistogram("consensus.commit_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 3u);
  EXPECT_EQ(latency->sum(), 1000u + 1000u + 3000u);
  EXPECT_EQ(latency->max(), 3000u);

  // Block mode: the timer cut measures from a returned txn's re-pool
  // time, not its first submission.
  World bw(57);
  cfg.block.enabled = true;
  cfg.block.max_txns = 100;
  cfg.block.max_delay_us = 5000;
  ReplicaProbe sealer(0, &bw.net, cfg,
                      bw.registry.RegisterDeterministic(0, 1), &bw.registry);
  sealer.SubmitTransaction(Shared(txn(1)));
  AdvanceTo(&bw, 4999);
  EXPECT_TRUE(sealer.TakeBatch().empty());  // waited 4999 < 5000
  AdvanceTo(&bw, 5000);
  Batch ref = sealer.TakeBatch();
  ASSERT_TRUE(ref.block_ref);
  EXPECT_EQ(ref.size(), 1u);
  EXPECT_EQ(sealer.pool_size(), 0u);

  AdvanceTo(&bw, 6000);
  sealer.ReturnToPool(ref);  // resolves through the block store
  EXPECT_EQ(sealer.pool_size(), 1u);
  AdvanceTo(&bw, 10999);
  EXPECT_TRUE(sealer.TakeBatch().empty());  // 4999 since the re-pool
  AdvanceTo(&bw, 11000);
  Batch again = sealer.TakeBatch();
  ASSERT_TRUE(again.block_ref);

  // A ref delivers its stored body only: a fabricated txn attached to the
  // ref (same digest) never reaches the chain.
  sealer.DeliverCommitted(1, ReplicaProbe::Forked(again, 99));
  EXPECT_EQ(sealer.committed_txns(), 1u);
  ASSERT_EQ(sealer.chain().height(), 1u);
  EXPECT_EQ(sealer.chain().blocks().back().txns.size(), 1u);
  EXPECT_EQ(sealer.chain().blocks().back().txns[0].id, 1u);
}

// A block-body message without a body is charged its header alone and
// dropped on arrival, the way the store refuses a null body: nothing the
// replica holds changes, and nothing is sent in reply.
TEST(ReplicaTest, BodylessBlockBodyMessageChangesNothing) {
  World w(58);
  ClusterConfig cfg;
  cfg.replicas = {0};
  cfg.block.enabled = true;
  cfg.block.max_txns = 1;
  ReplicaProbe probe(0, &w.net, cfg, w.registry.RegisterDeterministic(0, 1),
                     &w.registry);
  probe.SubmitTransaction(Shared(MakeKvTxn(1, "k", "v")));
  probe.SubmitTransaction(Shared(MakeKvTxn(2, "k", "v")));
  Batch ref = probe.TakeBatch();  // seals txn 1 and stores its body
  ASSERT_TRUE(ref.block_ref);
  ASSERT_EQ(probe.block_store().size(), 1u);

  const sim::NetworkStats before = w.net.stats();
  w.net.Send(1, probe.id(), std::make_shared<BlockBodyMsg>());
  w.sim.RunAll();
  EXPECT_EQ(w.net.stats().messages_sent, before.messages_sent + 1);
  EXPECT_EQ(w.net.stats().messages_delivered, before.messages_delivered + 1);
  EXPECT_EQ(w.net.stats().bytes_sent,
            before.bytes_sent + ledger::BlockHeader::kEncodedBytes);
  EXPECT_EQ(probe.block_store().size(), 1u);
  EXPECT_NE(probe.block_store().Get(ref.block_hash), nullptr);
  EXPECT_EQ(probe.pool_size(), 1u);
  EXPECT_EQ(probe.committed_txns(), 0u);
  EXPECT_EQ(probe.chain().height(), 0u);
  EXPECT_EQ(probe.pending_deliveries(), 0u);
}

// A message is charged the bytes it carries, in the one txn layout: a
// block body its encoding as the block log stores it, an inline batch its
// txns' encodings. Sizes follow the contents, not the txn count.
size_t EncodedLength(const txn::TxnList& txns) {
  std::string bytes;
  for (const txn::Transaction& t : txns) txn::EncodeTxn(t, &bytes);
  return bytes.size();
}

TEST(WireSizeTest, BlockBodyIsChargedItsEncodedBlock) {
  BlockBodyMsg msg;
  msg.body = ledger::VerifiedBlock::Seal(
      5, crypto::Sha256::Digest(std::string("parent")),
      {MakeKvTxn(1, "k", "v"),
       MakeKvTxn(2, "a-longer-key", std::string(90, 'x'))},
      1234);
  EXPECT_EQ(msg.ByteSize(), store::EncodeBlock(msg.body->body()).size());
}

TEST(WireSizeTest, InlineBatchIsChargedItsEncodedTxns) {
  Batch small = Inline({MakeKvTxn(1, "k", "v"), MakeKvTxn(2, "k", "w")});
  Batch large =
      Inline({MakeKvTxn(1, std::string(40, 'k'), std::string(200, 'v')),
              MakeKvTxn(2, "k", std::string(50, 'w'))});
  EXPECT_EQ(small.WireBytes(), EncodedLength(small.txns));
  EXPECT_EQ(large.WireBytes(), EncodedLength(large.txns));
  EXPECT_LT(small.WireBytes(), large.WireBytes());
  Batch ref;
  ref.block_ref = true;
  ref.ref_txn_count = 2;
  EXPECT_EQ(ref.WireBytes(), 40u);  // a hash and a count, whatever the body
}

// Every message a node receives, in arrival order.
class RecordingNode : public sim::Node {
 public:
  RecordingNode(sim::NodeId id, sim::Network* net) : Node(id, net) {}
  void OnMessage(sim::NodeId, const sim::MessagePtr& msg) override {
    got.push_back(msg);
  }
  std::vector<sim::MessagePtr> got;
};

// Known gap (ROADMAP item 1), pinned so that the fix must flip it. A view
// change carries only slots that are prepared and not committed, so a
// slot this replica committed but cannot deliver yet (seq 1 never came)
// reaches no new primary, which may fill that seq with a null batch while
// other replicas deliver the real one: the n = 4 fork.
TEST(PbftViewChangeGapTest, CommittedUndeliveredSlotIsLeftOutOfTheViewChange) {
  World w(72);
  ClusterConfig cfg;
  cfg.replicas = {0, 1, 2, 3};
  cfg.f = 1;
  std::vector<crypto::PrivateKey> keys;
  for (sim::NodeId id : cfg.replicas) {
    keys.push_back(w.registry.RegisterDeterministic(id, 0xC0FFEE));
  }
  PbftReplica replica(1, &w.net, cfg, keys[1], &w.registry);  // primary is 0
  std::vector<std::unique_ptr<RecordingNode>> peers;
  for (sim::NodeId id : {0u, 2u, 3u}) {
    peers.push_back(std::make_unique<RecordingNode>(id, &w.net));
  }
  w.net.Start();

  txn::Transaction t = MakeKvTxn(1, "k", "v");
  replica.SubmitTransaction(Shared(t));  // a known client txn, left pooled

  const Batch batch = Inline({t});
  const crypto::Hash256 digest = batch.Digest();
  auto sign = [&](sim::NodeId from, const char* tag) {
    return keys[from].Sign(ReplicaProbe::BindDigest(tag, 0, 2, digest));
  };
  auto pp = std::make_shared<PbftPrePrepare>();
  pp->seq = 2;
  pp->batch = batch;
  pp->digest = digest;
  pp->sig = sign(0, "pbft-pp");
  replica.OnMessage(0, pp);
  for (sim::NodeId from : {0u, 2u, 3u}) {
    auto p = std::make_shared<PbftPrepare>();
    p->seq = 2;
    p->digest = digest;
    p->sig = sign(from, "pbft-p");
    replica.OnMessage(from, p);
  }
  for (sim::NodeId from : {0u, 2u, 3u}) {
    auto c = std::make_shared<PbftCommit>();
    c->seq = 2;
    c->digest = digest;
    c->sig = sign(from, "pbft-c");
    replica.OnMessage(from, c);
  }
  ASSERT_EQ(replica.pending_deliveries(), 1u);  // seq 2 decided, buffered
  ASSERT_EQ(replica.last_delivered_seq(), 0u);

  // No progress with work pending: the progress timer starts view 1.
  w.sim.Run(w.sim.now() + cfg.timeout_us + cfg.timeout_us / 2);
  ASSERT_EQ(replica.view_changes(), 1u);
  for (const auto& peer : peers) {
    const PbftViewChange* vc = nullptr;
    for (const sim::MessagePtr& m : peer->got) {
      if (vc == nullptr) vc = sim::As<PbftViewChange>(*m);
    }
    ASSERT_NE(vc, nullptr) << "peer " << peer->id();
    EXPECT_EQ(vc->new_view, 1u);
    EXPECT_EQ(vc->last_delivered, 0u);
    EXPECT_TRUE(std::none_of(vc->prepared.begin(), vc->prepared.end(),
                             [](const PreparedProof& p) { return p.seq == 2; }))
        << "seq 2 now travels with the view change: the gap is closed, so "
           "flip this pin into a positive test";
  }
}

// A protocol message that names its batch by block ref, as a proposal does.
struct RefProposal : sim::Typed<RefProposal> {
  Batch batch;
  static constexpr char kType[] = "test-ref-proposal";
};

// A replica with one body-dependent handler: it counts each message that
// gets past the EnsureBodyOrFetch guard.
class ParkingProbe : public Replica {
 public:
  using Replica::Replica;
  int handled = 0;

 private:
  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override {
    const auto* proposal = sim::As<RefProposal>(*msg);
    if (proposal != nullptr && EnsureBodyOrFetch(from, msg, proposal->batch)) {
      ++handled;
    }
  }
};

// A body that never arrives with its ref is fetched one jitter bound after
// the ref parks, not before, and the parked ref re-runs when the fetch
// brings the body. A crash cancels the armed wait, so a ref re-sent after
// recovery arms its own.
TEST(ReplicaTest, MissingBodyIsFetchedOneJitterBoundAfterItsRef) {
  for (bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash-recover before the re-sent ref" : "no crash");
    World w(59);
    w.Observe();
    auto fetches = [&w] {
      return w.metrics.CounterValue("net.sent.block-fetch");
    };
    ClusterConfig cfg;
    cfg.block.enabled = true;
    cfg.block.max_txns = 1;
    // The sealer lists only itself, so its seal reaches no one; it still
    // answers the probe's fetch from its store.
    cfg.replicas = {1};
    ReplicaProbe sealer(1, &w.net, cfg,
                        w.registry.RegisterDeterministic(1, 1), &w.registry);
    cfg.replicas = {0, 1};
    ParkingProbe probe(0, &w.net, cfg, w.registry.RegisterDeterministic(0, 1),
                       &w.registry);
    sealer.SubmitTransaction(Shared(MakeKvTxn(1, "k", "v")));
    auto proposal = std::make_shared<RefProposal>();
    proposal->batch = sealer.TakeBatch();
    ASSERT_TRUE(proposal->batch.block_ref);
    const sim::Time jitter = w.net.EffectiveLatency(1, 0).jitter_us;

    AdvanceTo(&w, 1000);
    probe.OnMessage(1, proposal);
    if (crash) {
      w.net.Crash(0);
      w.net.Recover(0);
      w.sim.Run(w.sim.now() + 10 * jitter);  // the cancelled wait is dead
      EXPECT_EQ(fetches(), 0u);
      probe.OnMessage(1, proposal);
    }
    const sim::Time parked = w.sim.now();
    w.sim.Run(parked + jitter);
    EXPECT_EQ(fetches(), 0u);
    w.sim.Run(parked + jitter + 1);
    EXPECT_EQ(fetches(), 1u);
    EXPECT_EQ(probe.handled, 0);

    w.sim.RunAll();
    EXPECT_TRUE(probe.block_store().Contains(proposal->batch.block_hash));
    EXPECT_EQ(probe.handled, crash ? 2 : 1);  // every parked copy re-ran
    EXPECT_EQ(fetches(), 1u);
  }
}

// One copy of each txn per cluster: a submit pools one shared txn at
// every replica, and each chain block holds the very list of the body it
// delivered, the one its block store holds.
TEST(ReplicaTest, ChainSharesTheDeliveredBody) {
  World w(67);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  std::vector<std::vector<crypto::Hash256>> delivered(cluster.size());
  for (size_t i = 0; i < cluster.size(); ++i) {
    RecordDeliveredBlocks(cluster.replica(i), &delivered[i]);
  }

  cluster.Submit(MakeKvTxn(1000, "k", "v"));
  const txn::Transaction* pooled = cluster.replica(0)->FindPooled(1000);
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->id, 1000u);
  for (size_t i = 1; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.replica(i)->FindPooled(1000), pooled) << "replica " << i;
  }

  w.net.Start();
  SubmitN(&cluster, 40);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 41));
  EXPECT_TRUE(cluster.ChainsConsistent());
  for (size_t i = 0; i < cluster.size(); ++i) {
    const ledger::Chain& chain = cluster.replica(i)->chain();
    const block::BlockStore& store = cluster.replica(i)->block_store();
    ASSERT_EQ(chain.height(), delivered[i].size()) << "replica " << i;
    for (size_t h = 0; h < chain.height(); ++h) {
      const ledger::VerifiedBlock* body = store.Get(delivered[i][h]);
      ASSERT_NE(body, nullptr) << "replica " << i << " block " << h;
      EXPECT_EQ(&chain.at(h).txns.vec(), &body->body().txns.vec())
          << "replica " << i << " block " << h;
    }
  }
}

// A tamper replaces one chain's list; it never reaches the list the other
// chains and the block stores share.
TEST(ReplicaTest, TamperStaysInTheTamperedChain) {
  World w(68);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
  std::vector<crypto::Hash256> delivered;
  RecordDeliveredBlocks(cluster.replica(0), &delivered);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20));
  ASSERT_FALSE(delivered.empty());

  ledger::Chain tampered = cluster.replica(0)->chain();
  ledger::Block* victim = tampered.MutableBlockForTest(0);
  std::vector<txn::Transaction> txns = victim->txns;
  txns[0].ops[0].value = "stolen";
  victim->txns = std::move(txns);
  EXPECT_TRUE(tampered.Audit().IsCorruption());

  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.replica(i)->chain().Audit().ok()) << "replica " << i;
    const ledger::VerifiedBlock* body =
        cluster.replica(i)->block_store().Get(delivered[0]);
    ASSERT_NE(body, nullptr) << "replica " << i;
    EXPECT_TRUE(body->body().VerifyTxnRoot()) << "replica " << i;
    EXPECT_EQ(body->body().txns[0].ops[0].value,
              cluster.replica(i)->chain().at(0).txns[0].ops[0].value);
  }
}

// The one delivery path that builds a list: a body that repeats a
// committed txn. Its chain block holds the rest under a root computed
// for them, and the listener sees that same list.
TEST(ReplicaTest, ReplayFilterBuildsOneListForChainAndListener) {
  World w(69);
  ClusterConfig cfg;
  cfg.replicas = {0};
  cfg.block.enabled = true;
  cfg.block.max_txns = 2;
  ReplicaProbe probe(0, &w.net, cfg, w.registry.RegisterDeterministic(0, 1),
                     &w.registry);
  std::vector<txn::TxnList> seen;
  probe.set_commit_listener([&seen](sim::NodeId, uint64_t, const Batch& b) {
    seen.push_back(b.txns);
  });
  auto txn = [](txn::TxnId id) { return MakeKvTxn(id, "k", "v"); };

  probe.SubmitTransaction(Shared(txn(1)));
  probe.SubmitTransaction(Shared(txn(2)));
  Batch first = probe.TakeBatch();  // seals {1, 2}
  probe.SubmitTransaction(Shared(txn(2)));  // taken, so it pools again
  probe.SubmitTransaction(Shared(txn(3)));
  Batch second = probe.TakeBatch();  // seals {2, 3}
  ASSERT_TRUE(first.block_ref);
  ASSERT_TRUE(second.block_ref);
  const ledger::VerifiedBlock* second_body =
      probe.block_store().Get(second.block_hash);
  ASSERT_NE(second_body, nullptr);
  ASSERT_EQ(second_body->body().txns.size(), 2u);

  probe.DeliverCommitted(1, first);
  probe.DeliverCommitted(2, second);
  EXPECT_EQ(probe.committed_txns(), 3u);
  const ledger::Chain& chain = probe.chain();
  ASSERT_EQ(chain.height(), 2u);
  EXPECT_TRUE(chain.Audit().ok());
  const ledger::Block& filtered = chain.at(1);
  ASSERT_EQ(filtered.txns.size(), 1u);
  EXPECT_EQ(filtered.txns[0].id, 3u);
  EXPECT_NE(filtered.header.txn_root, second_body->body().header.txn_root);
  EXPECT_EQ(filtered.header.txn_root,
            ledger::Block::Make(1, chain.at(0).header.Hash(), {txn(3)})
                .header.txn_root);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (std::vector<txn::Transaction>{txn(3)}));
  EXPECT_EQ(&seen[1].vec(), &filtered.txns.vec());
}

// Observing a world never changes its run: one seed, observed and not,
// ends with the same events, traffic and chains.
TEST(ObservationTest, ObservingAWorldChangesNoRun) {
  auto run = [](bool observe) {
    World w(83);
    if (observe) w.Observe();
    Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, BlockConfig(10));
    w.net.Start();
    SubmitN(&cluster, 40);
    EXPECT_TRUE(RunUntilCommitted(&w, &cluster, 40));
    w.sim.Run(w.sim.now() + 1'000'000);
    EXPECT_EQ(w.metrics.CounterValue("net.sent") > 0, observe);
    std::vector<std::string> tips;
    for (const ledger::Chain* chain : cluster.chains()) {
      tips.push_back(chain->TipHash().ToHex());
    }
    return std::make_tuple(w.sim.executed_events(), w.net.stats(), tips);
  };
  EXPECT_EQ(run(true), run(false));
}

// A recovered replica restarts: Network::Recover re-runs OnStart, so the
// timers a crash killed are armed again and the replica takes up its role.

// PBFT's propose tick: a recovered primary pre-prepares the txns submitted
// after its recovery, so all four replicas commit in view 0.
TEST(RecoveryRestartTest, PbftRecoveredPrimaryPrePreparesWithoutViewChange) {
  World w(80);
  w.Observe();
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.net.Crash(0);  // primary of view 0
  w.net.Recover(0);
  SubmitN(&cluster, 10);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  ASSERT_LE(w.trace.recorded(), w.trace.capacity());
  size_t preprepares = 0;
  for (const obs::TraceEvent& ev : w.trace.Snapshot()) {
    if (ev.kind == obs::TraceKind::kSend && ev.a == 0 &&
        ev.label == PbftPrePrepare::kType) {
      ++preprepares;
    }
  }
  EXPECT_GT(preprepares, 0u);
  EXPECT_EQ(w.metrics.CounterValue("consensus.view_changes"), 0u);
  EXPECT_EQ(cluster.replica(1)->Status().view, 0u);
}

// HotStuff's propose poll: a recovered idle leader polls again, so new txns
// commit in its view with no timeout view change.
TEST(RecoveryRestartTest, HotStuffRecoveredLeaderCommitsWithoutViewChange) {
  World w(81);
  w.Observe();
  Cluster<HotStuffReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.sim.Run(100'000);  // the view-1 pipeline idles: no txns yet
  ReplicaStatus idle = cluster.replica(0)->Status();
  ASSERT_TRUE(idle.knows_leader);
  const auto leader = static_cast<sim::NodeId>(idle.leader_index);
  w.net.Crash(leader);
  w.net.Recover(leader);
  SubmitN(&cluster, 10);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  EXPECT_EQ(w.metrics.CounterValue("consensus.view_changes"), 0u);
}

// Paxos's liveness timer is the only path to an election: a cluster whose
// every replica went through one crash-recover cycle still elects a leader
// and commits every txn.
TEST(RecoveryRestartTest, PaxosClusterRecoveredWholeCommits) {
  World w(82);
  Cluster<PaxosReplica> cluster(&w.net, &w.registry, 3);
  w.net.Start();
  for (sim::NodeId id = 0; id < cluster.size(); ++id) {
    w.net.Crash(id);
    w.net.Recover(id);
  }
  SubmitN(&cluster, 10);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

// Known gap (ROADMAP item 2, "HotStuff spins"), pinned so that the fix
// must flip it. HotStuff's HasPendingWork counts the chained tip, which is
// always uncommitted, so once the txns have committed an idle leader keeps
// proposing empty nodes. PBFT, over the same idle second, pre-prepares
// nothing. Counting only pooled or taken txns stops the spin but lets idle
// replicas drift apart in view; the fix needs a view-synchronising
// pacemaker.
template <typename R>
uint64_t SendsInTheSecondAfterLastCommit(const char* type) {
  World w(84);
  w.Observe();
  Cluster<R> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 10);
  EXPECT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  const std::string counter = std::string("net.sent.") + type;
  const uint64_t before = w.metrics.CounterValue(counter);
  w.sim.Run(w.sim.now() + 1'000'000);
  EXPECT_EQ(cluster.MinCommitted(), 10u);
  return w.metrics.CounterValue(counter) - before;
}

TEST(HotStuffIdleGapTest, IdleLeaderKeepsProposingWherePbftIdles) {
  EXPECT_GT(SendsInTheSecondAfterLastCommit<HotStuffReplica>(
                HsProposal::kType),
            0u);
  EXPECT_EQ(SendsInTheSecondAfterLastCommit<PbftReplica>(
                PbftPrePrepare::kType),
            0u);
}

// ---------------------------------------------------------------------------
// Protocol-specific behaviours.
// ---------------------------------------------------------------------------

TEST(PbftTest, ViewChangesOccurWhenPrimaryCrashes) {
  World w(20);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 10);
  w.net.Crash(0);  // primary of view 0
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {0}));
  EXPECT_GT(cluster.replica(1)->view(), 0u);
  EXPECT_GT(cluster.replica(1)->view_changes(), 0u);
}

TEST(PbftTest, CheckpointsBecomeStable) {
  World w(21);
  ClusterConfig cfg;
  cfg.batch_size = 1;  // many sequences quickly
  cfg.checkpoint_interval = 8;
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  SubmitN(&cluster, 40);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 40));
  w.sim.Run(w.sim.now() + 2'000'000);
  EXPECT_GE(cluster.replica(0)->stable_checkpoint(), 8u);
}

// Per-txn batches commit out of order inside the pipeline window, so one
// drain can deliver several seqs at once. Every replica must still
// checkpoint the same seqs with the same digests; otherwise no checkpoint
// reaches 2f+1, the window never slides, and the primary stops proposing
// at seq 256.
TEST(PbftTest, PipelinedCommitsStillStabilizeCheckpointsPastTheWindow) {
  World w(24);
  ClusterConfig cfg;
  cfg.batch_size = 1;  // one consensus round per txn
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  SubmitN(&cluster, 400);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 400));
  EXPECT_TRUE(cluster.ChainsConsistent());
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GT(cluster.replica(i)->stable_checkpoint(), 256u) << "replica " << i;
  }
}

TEST(PbftTest, NoViewChangeWhenIdle) {
  World w(22);
  Cluster<PbftReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  w.sim.Run(10'000'000);  // long idle period
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i)->view(), 0u);
    EXPECT_EQ(cluster.replica(i)->view_changes(), 0u);
  }
}

TEST(PbftTest, QuadraticMessageComplexity) {
  // PBFT's prepare/commit phases are all-to-all: message count grows ~n².
  auto count_messages = [](size_t n) {
    World w(23);
    Cluster<PbftReplica> cluster(&w.net, &w.registry, n);
    w.net.Start();
    w.net.ResetStats();
    SubmitN(&cluster, 10);
    RunUntilCommitted(&w, &cluster, 10);
    return w.net.stats().messages_sent;
  };
  uint64_t m4 = count_messages(4);
  uint64_t m8 = count_messages(8);
  // 8 replicas should send clearly more than 2x the messages of 4.
  EXPECT_GT(m8, m4 * 2);
}

TEST(RaftTest, ElectsExactlyOneLeaderPerTerm) {
  World w(30);
  Cluster<RaftReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        for (size_t i = 0; i < 5; ++i) {
          if (cluster.replica(i)->IsLeader()) return true;
        }
        return false;
      },
      kMaxSimTime));
  std::map<uint64_t, int> leaders_per_term;
  for (size_t i = 0; i < 5; ++i) {
    if (cluster.replica(i)->IsLeader()) {
      leaders_per_term[cluster.replica(i)->term()]++;
    }
  }
  for (const auto& [term, count] : leaders_per_term) EXPECT_EQ(count, 1);
}

TEST(RaftTest, ReElectsAfterLeaderCrash) {
  World w(31);
  Cluster<RaftReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  SubmitN(&cluster, 5);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  // Find and crash the leader.
  size_t leader = 99;
  for (size_t i = 0; i < 5; ++i) {
    if (cluster.replica(i)->IsLeader()) leader = i;
  }
  ASSERT_NE(leader, 99u);
  w.net.Crash(static_cast<sim::NodeId>(leader));
  SubmitN(&cluster, 5, /*base=*/100);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {leader}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(RaftTest, MajorityPartitionKeepsCommitting) {
  World w(32);
  Cluster<RaftReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  SubmitN(&cluster, 5);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  w.net.Partition({{0, 1, 2}, {3, 4}});
  SubmitN(&cluster, 5, /*base=*/100);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {3, 4}));
  // Minority must not advance past the majority.
  EXPECT_LE(cluster.replica(3)->committed_txns(),
            cluster.replica(0)->committed_txns());
  // Heal: everyone converges.
  w.net.Heal();
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  World w(33);
  Cluster<RaftReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();
  SubmitN(&cluster, 5);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 5));
  w.net.Partition({{0, 1}, {2, 3, 4}});
  uint64_t before_0 = cluster.replica(0)->committed_txns();
  uint64_t before_1 = cluster.replica(1)->committed_txns();
  SubmitN(&cluster, 5, /*base=*/100);
  w.sim.Run(w.sim.now() + 5'000'000);
  EXPECT_EQ(cluster.replica(0)->committed_txns(), before_0);
  EXPECT_EQ(cluster.replica(1)->committed_txns(), before_1);
}

TEST(HotStuffTest, LinearMessagesPerView) {
  // HotStuff votes flow replica→leader, so the per-view message cost is
  // O(n): one broadcast proposal (n), n votes, n new-view announcements.
  // PBFT by contrast is O(n²) per decision. Verify per-view cost scales
  // linearly: normalized per replica it should be a constant.
  auto per_view_per_replica = [](size_t n) {
    World w(40);
    Cluster<HotStuffReplica> cluster(&w.net, &w.registry, n);
    w.net.Start();
    w.net.ResetStats();
    for (int i = 0; i < 10; ++i) {
      cluster.Submit(MakeKvTxn(i, "k", "v"));
    }
    RunUntilCommitted(&w, &cluster, 10);
    double views = static_cast<double>(cluster.replica(0)->view());
    return static_cast<double>(w.net.stats().messages_sent) / views /
           static_cast<double>(n);
  };
  double c4 = per_view_per_replica(4);
  double c8 = per_view_per_replica(8);
  double c16 = per_view_per_replica(16);
  // All three should be the same small constant (~2.5); a quadratic
  // protocol would double it with each size doubling.
  EXPECT_LT(c8 / c4, 1.6);
  EXPECT_LT(c16 / c4, 1.6);
}

TEST(HotStuffTest, RotatesLeaderEachView) {
  World w(41);
  Cluster<HotStuffReplica> cluster(&w.net, &w.registry, 4);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20));
  // Chained HotStuff advances a view per decision: the final view must be
  // well beyond the start and leaders rotate view % n.
  EXPECT_GT(cluster.replica(0)->view(), 3u);
}

TEST(TendermintTest, WeightedQuorumRespectsVotingPower) {
  // Validator 0 holds 2/3+ of the power: nothing commits without it.
  World w(50);
  ClusterConfig cfg;
  cfg.voting_power = {7, 1, 1, 1};  // total 10; quorum needs > 6.66
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  w.net.Crash(0);
  SubmitN(&cluster, 5);
  w.sim.Run(20'000'000);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i)->committed_txns(), 0u);
  }
}

TEST(TendermintTest, LowPowerValidatorCrashHarmless) {
  World w(51);
  ClusterConfig cfg;
  cfg.voting_power = {7, 1, 1, 1};
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  w.net.Crash(3);  // only 1 power lost; 9 > 2/3 of 10 remains
  SubmitN(&cluster, 10);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 10, {3}));
  EXPECT_TRUE(cluster.ChainsConsistent());
}

TEST(TendermintTest, ProposerRotationIsPowerProportional) {
  World w(52);
  ClusterConfig cfg;
  cfg.voting_power = {3, 1, 1, 1};
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4, cfg);
  // Count proposer slots over a full rotation period.
  std::map<size_t, int> slots;
  for (uint64_t h = 0; h < 6; ++h) {
    slots[cluster.replica(0)->ProposerIndexFor(h, 0)]++;
  }
  EXPECT_EQ(slots[0], 3);  // 3 of 6 slots for the 3-power validator
  EXPECT_EQ(slots[1], 1);
  EXPECT_EQ(slots[2], 1);
  EXPECT_EQ(slots[3], 1);
}

TEST(TendermintTest, HeightsAdvanceOneAtATime) {
  World w(53);
  ClusterConfig cfg;
  cfg.batch_size = 5;
  Cluster<TendermintReplica> cluster(&w.net, &w.registry, 4, cfg);
  w.net.Start();
  SubmitN(&cluster, 20);
  ASSERT_TRUE(RunUntilCommitted(&w, &cluster, 20));
  EXPECT_GE(cluster.replica(0)->height(), 4u);  // ≥ 20/5 heights committed
  EXPECT_TRUE(cluster.ChainsConsistent());
}

}  // namespace
}  // namespace pbc::consensus
