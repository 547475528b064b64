#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "shard/resilientdb.h"
#include "shard/sharper.h"
#include "shard/two_phase.h"
#include "sim/world.h"

namespace pbc::shard {
namespace {

using txn::Op;
using txn::Transaction;

constexpr sim::Time kMaxSimTime = 120'000'000;

using sim::World;

Transaction Deposit(txn::TxnId id, const std::string& key, int64_t amount) {
  Transaction t;
  t.id = id;
  t.ops.push_back(Op::Increment(key, amount));
  return t;
}

// Cross-shard transfer decomposed into a guarded debit plus a credit.
Transaction Transfer(txn::TxnId id, const std::string& from,
                     const std::string& to, int64_t amount) {
  Transaction t;
  t.id = id;
  t.ops.push_back(Op::Increment(from, -amount));
  t.ops.push_back(Op::Increment(to, amount));
  return t;
}

// --- Key routing --------------------------------------------------------------

TEST(KeyToShardTest, ExplicitPinning) {
  EXPECT_EQ(KeyToShard("s0/alice", 4), 0u);
  EXPECT_EQ(KeyToShard("s3/bob", 4), 3u);
  EXPECT_EQ(KeyToShard("s5/x", 4), 1u);  // wraps
}

TEST(KeyToShardTest, HashRoutingIsStable) {
  EXPECT_EQ(KeyToShard("some-key", 8), KeyToShard("some-key", 8));
  // Different keys spread (not all in one shard).
  std::set<ShardId> seen;
  for (int i = 0; i < 64; ++i) {
    seen.insert(KeyToShard("k" + std::to_string(i), 8));
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST(KeyToShardTest, ShardsOfTransaction) {
  Transaction t = Transfer(1, "s0/a", "s2/b", 10);
  EXPECT_EQ(ShardsOf(t, 4), (std::vector<ShardId>{0, 2}));
  Transaction local = Transfer(2, "s1/a", "s1/b", 10);
  EXPECT_EQ(ShardsOf(local, 4), std::vector<ShardId>{1});
}

TEST(KeyToShardTest, ProjectionSplitsOps) {
  Transaction t = Transfer(1, "s0/a", "s2/b", 10);
  auto p0 = ProjectToShard(t, 0, 4);
  ASSERT_EQ(p0.ops.size(), 1u);
  EXPECT_EQ(p0.ops[0].key, "s0/a");
  EXPECT_EQ(p0.ops[0].delta, -10);
  auto p2 = ProjectToShard(t, 2, 4);
  ASSERT_EQ(p2.ops.size(), 1u);
  EXPECT_EQ(p2.ops[0].delta, 10);
}

TEST(PreconditionTest, NegativeBalanceRejected) {
  store::KvStore s;
  store::WriteBatch b;
  b.Put("k", txn::EncodeInt(5));
  s.ApplyBatch(b, 1);
  Transaction ok = Deposit(1, "k", -5);
  Transaction bad = Deposit(2, "k", -6);
  EXPECT_TRUE(LocalPreconditionsHold(ok, s));
  EXPECT_FALSE(LocalPreconditionsHold(bad, s));
}

// --- Coordinator-based (AHL) ---------------------------------------------------

struct Outcome {
  std::map<txn::TxnId, bool> results;
  size_t count(txn::TxnId id) const { return results.count(id); }
};

// The caller keeps the outcome alive for as long as `sys` runs.
template <typename System>
std::unique_ptr<Outcome> Listen(System* sys) {
  auto out = std::make_unique<Outcome>();
  sys->set_listener([o = out.get()](txn::TxnId id, bool ok) {
    o->results[id] = ok;
  });
  return out;
}

TEST(AhlTest, IntraShardCommits) {
  World w(1);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/alice", 100));
  sys.Submit(Deposit(2, "s1/bob", 50));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 2; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[1]);
  EXPECT_TRUE(out->results[2]);
  EXPECT_EQ(txn::DecodeInt(
                sys.shard(0)->store()->Get("s0/alice").ValueOrDie().value),
            100);
  EXPECT_EQ(sys.stats().intra_committed, 2u);
}

TEST(AhlTest, CrossShardTransferCommitsAtomically) {
  World w(2);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/alice", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/alice", "s1/bob", 40));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(2) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[2]);
  // Drain shard-side decide rounds.
  w.sim.Run(w.sim.now() + 10'000'000);
  EXPECT_EQ(txn::DecodeInt(
                sys.shard(0)->store()->Get("s0/alice").ValueOrDie().value),
            60);
  EXPECT_EQ(txn::DecodeInt(
                sys.shard(1)->store()->Get("s1/bob").ValueOrDie().value),
            40);
  EXPECT_EQ(sys.TotalBalance(), 100);
  EXPECT_EQ(sys.stats().cross_committed, 1u);
}

TEST(AhlTest, InsufficientFundsAbortsAcrossShards) {
  World w(3);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/alice", 10));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/alice", "s1/bob", 40));  // more than she has
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(2) == 1; },
                             kMaxSimTime));
  EXPECT_FALSE(out->results[2]);
  w.sim.Run(w.sim.now() + 10'000'000);
  // Neither side changed: atomicity.
  EXPECT_EQ(txn::DecodeInt(
                sys.shard(0)->store()->Get("s0/alice").ValueOrDie().value),
            10);
  EXPECT_FALSE(sys.shard(1)->store()->Get("s1/bob").ok());
  EXPECT_EQ(sys.TotalBalance(), 10);
  EXPECT_EQ(sys.stats().cross_aborted, 1u);
}

// Deposits 100 into three accounts on each of three shards, then runs 12
// random transfers: money is conserved, and once the run drains no shard
// still holds a prepared cross-shard transaction.
template <typename System>
void ExpectManyTransfersConserveMoney(System* sys, World* w) {
  auto out = Listen(sys);
  w->net.Start();
  txn::TxnId id = 1;
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 3; ++a) {
      sys->Submit(Deposit(id++, "s" + std::to_string(s) + "/acct" +
                                    std::to_string(a),
                          100));
    }
  }
  ASSERT_TRUE(w->sim.RunUntil([&] { return out->results.size() == 9; },
                              kMaxSimTime));
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    int src = rng.NextU64(3), dst = rng.NextU64(3);
    sys->Submit(Transfer(
        id++, "s" + std::to_string(src) + "/acct" + std::to_string(rng.NextU64(3)),
        "s" + std::to_string(dst) + "/acct" + std::to_string(rng.NextU64(3)),
        1 + rng.NextU64(30)));
  }
  ASSERT_TRUE(w->sim.RunUntil([&] { return out->results.size() == 21; },
                              kMaxSimTime));
  w->sim.Run(w->sim.now() + 20'000'000);
  EXPECT_EQ(sys->TotalBalance(), 900);
  EXPECT_GT(sys->stats().cross_committed, 0u);
  EXPECT_EQ(sys->prepared_count(), 0u);
}

TEST(AhlTest, ManyTransfersConserveMoney) {
  World w(4);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(3));
  ExpectManyTransfersConserveMoney(&sys, &w);
}

TEST(AhlTest, AllClustersRunRealConsensus) {
  World w(5);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/x", 5));
  sys.Submit(Transfer(2, "s0/x", "s1/y", 2));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 2; },
                             kMaxSimTime));
  w.sim.Run(w.sim.now() + 10'000'000);
  // Replica chains are non-empty and consistent inside each cluster.
  for (int s = 0; s < 2; ++s) {
    EXPECT_GT(sys.shard(s)->consensus()->replica(0)->chain().height(), 0u);
    EXPECT_TRUE(sys.shard(s)->consensus()->ChainsConsistent());
  }
  EXPECT_GT(sys.coordinator(0)->consensus()->replica(0)->chain().height(),
            0u);
}

// --- Saguaro -------------------------------------------------------------------

TEST(SaguaroTest, LcaSelectsNearestCoordinator) {
  World w(6);
  // 4 shards, fanout 2 → coordinators: 0 = root, 1 = fog(s0,s1),
  // 2 = fog(s2,s3).
  TwoPhaseShardSystem sys(&w.net, &w.registry,
                          TwoPhaseConfig::Saguaro(4, 2));
  EXPECT_EQ(sys.LcaCoordinator({0, 1}), 1u);
  EXPECT_EQ(sys.LcaCoordinator({2, 3}), 2u);
  EXPECT_EQ(sys.LcaCoordinator({0, 3}), 0u);  // spans fogs → root
  EXPECT_EQ(sys.LcaCoordinator({1}), 1u);
}

TEST(SaguaroTest, CrossShardViaFogCommits) {
  World w(7);
  TwoPhaseShardSystem sys(&w.net, &w.registry,
                          TwoPhaseConfig::Saguaro(4, 2));
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/a", "s1/b", 30));  // same fog
  sys.Submit(Deposit(3, "s2/c", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 3; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[2]);
  w.sim.Run(w.sim.now() + 10'000'000);
  sys.Submit(Transfer(4, "s2/c", "s1/b", 10));  // spans fogs → root coord
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(4) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[4]);
  w.sim.Run(w.sim.now() + 10'000'000);
  EXPECT_EQ(sys.TotalBalance(), 200);
}

// --- SharPer -------------------------------------------------------------------

TEST(SharperTest, IntraShardCommits) {
  World w(10);
  SharperSystem sys(&w.net, &w.registry, 2);
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[1]);
  EXPECT_EQ(sys.stats().intra_committed, 1u);
}

TEST(SharperTest, FlattenedCrossShardCommits) {
  World w(11);
  SharperSystem sys(&w.net, &w.registry, 2);
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  sys.Submit(Transfer(2, "s0/a", "s1/b", 25));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(2) == 1; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[2]);
  w.sim.Run(w.sim.now() + 10'000'000);
  EXPECT_EQ(txn::DecodeInt(
                sys.shard(1)->store()->Get("s1/b").ValueOrDie().value),
            25);
  EXPECT_EQ(sys.TotalBalance(), 100);
}

TEST(SharperTest, InsufficientFundsAborts) {
  World w(12);
  SharperSystem sys(&w.net, &w.registry, 2);
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Transfer(1, "s0/ghost", "s1/b", 5));  // no funds at all
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->count(1) == 1; },
                             kMaxSimTime));
  EXPECT_FALSE(out->results[1]);
  w.sim.Run(w.sim.now() + 10'000'000);
  EXPECT_EQ(sys.TotalBalance(), 0);
  EXPECT_EQ(sys.stats().cross_aborted, 1u);
}

TEST(SharperTest, FewerMessagesThanAhlPerCrossTxn) {
  auto run = [](auto&& make_and_drive) {
    return make_and_drive();
  };
  uint64_t sharper_msgs = run([] {
    World w(13);
    SharperSystem sys(&w.net, &w.registry, 2);
    auto out = Listen(&sys);
    w.net.Start();
    sys.Submit(Deposit(1, "s0/a", 100));
    w.sim.RunUntil([&] { return out->count(1) == 1; }, kMaxSimTime);
    w.net.ResetStats();
    sys.Submit(Transfer(2, "s0/a", "s1/b", 10));
    w.sim.RunUntil([&] { return out->count(2) == 1; }, kMaxSimTime);
    w.sim.Run(w.sim.now() + 30'000'000);  // drain the full protocol
    return w.net.stats().messages_sent;
  });
  uint64_t ahl_msgs = run([] {
    World w(13);
    TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
    auto out = Listen(&sys);
    w.net.Start();
    sys.Submit(Deposit(1, "s0/a", 100));
    w.sim.RunUntil([&] { return out->count(1) == 1; }, kMaxSimTime);
    w.net.ResetStats();
    sys.Submit(Transfer(2, "s0/a", "s1/b", 10));
    w.sim.RunUntil([&] { return out->count(2) == 1; }, kMaxSimTime);
    w.sim.Run(w.sim.now() + 30'000'000);  // drain the full protocol
    return w.net.stats().messages_sent;
  });
  // The survey's claim: decentralized (flattened) processing needs fewer
  // phases/messages than routing through a reference committee.
  EXPECT_LT(sharper_msgs, ahl_msgs);
}

TEST(SharperTest, ManyTransfersConserveMoney) {
  World w(4);
  SharperSystem sys(&w.net, &w.registry, 3);
  ExpectManyTransfersConserveMoney(&sys, &w);
}

// The one intra-shard rule: a single-shard transaction aborts if a
// prepared cross-shard transaction holds any key it declares, read or
// write. Every workload here and in the benches uses only Increment ops,
// which declare each key as both read and write, so a rule that checked
// writes alone (SharPer's, before the systems shared one) agreed with it
// on all of them; only a read-only transaction tells the two apart. A
// blind write must abort too.
template <typename System>
void ExpectIntraShardTxnUnderPreparedLockAborts(System* sys, World* w) {
  auto out = Listen(sys);
  w->net.Start();
  sys->Submit(Deposit(1, "s0/a", 100));
  ASSERT_TRUE(w->sim.RunUntil([&] { return out->count(1) == 1; },
                              kMaxSimTime));
  sys->Submit(Transfer(2, "s0/a", "s1/b", 10));
  ASSERT_TRUE(w->sim.RunUntil(
      [&] { return sys->shard(0)->locks()->IsLocked("s0/a"); },
      kMaxSimTime));
  Transaction read;
  read.id = 3;
  read.ops.push_back(Op::Read("s0/a"));
  sys->Submit(read);
  Transaction blind_write;
  blind_write.id = 4;
  blind_write.ops.push_back(Op::Write("s0/a", txn::EncodeInt(7)));
  sys->Submit(blind_write);
  ASSERT_TRUE(w->sim.RunUntil([&] { return out->results.size() == 4; },
                              kMaxSimTime));
  EXPECT_FALSE(out->results[3]);
  EXPECT_FALSE(out->results[4]);
  EXPECT_TRUE(out->results[2]);
  EXPECT_EQ(sys->stats().intra_aborted, 2u);
  w->sim.Run(w->sim.now() + 10'000'000);
  EXPECT_EQ(sys->TotalBalance(), 100);
}

TEST(AhlTest, IntraShardTxnUnderPreparedLockAborts) {
  World w(15);
  TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
  ExpectIntraShardTxnUnderPreparedLockAborts(&sys, &w);
}

TEST(SharperTest, IntraShardTxnUnderPreparedLockAborts) {
  World w(15);
  SharperSystem sys(&w.net, &w.registry, 2);
  ExpectIntraShardTxnUnderPreparedLockAborts(&sys, &w);
}

TEST(SharperTest, ParallelNonOverlappingCrossTxns) {
  World w(14);
  SharperSystem sys(&w.net, &w.registry, 4);
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(Deposit(1, "s0/a", 100));
  sys.Submit(Deposit(2, "s2/c", 100));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 2; },
                             kMaxSimTime));
  // Two cross-shard txns over disjoint cluster pairs run concurrently.
  sys.Submit(Transfer(3, "s0/a", "s1/b", 10));
  sys.Submit(Transfer(4, "s2/c", "s3/d", 10));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 4; },
                             kMaxSimTime));
  EXPECT_TRUE(out->results[3]);
  EXPECT_TRUE(out->results[4]);
  w.sim.Run(w.sim.now() + 10'000'000);
  EXPECT_EQ(sys.TotalBalance(), 200);
}

// --- Wire sizes --------------------------------------------------------------

// A txn-carrying shard message is charged a fixed 96-byte header plus the
// txn's encoded bytes, so its size follows the keys and values it carries.
size_t Charged(const Transaction& t) {
  std::string bytes;
  txn::EncodeTxn(t, &bytes);
  return 96 + bytes.size();
}

// The sizes of the `type` messages sent in `trace`.
std::vector<uint64_t> SentBytes(const obs::TraceLog& trace,
                                const std::string& type) {
  std::vector<uint64_t> sizes;
  for (const obs::TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == obs::TraceKind::kSend && ev.label == type) {
      sizes.push_back(ev.arg);
    }
  }
  return sizes;
}

// Runs one deposit and then one cross-shard transfer through `sys`, whose
// listener fills `out`; returns the sizes of the `type` messages the
// transfer sent.
template <typename System>
std::vector<uint64_t> CrossShardSizes(World* w, System* sys, Outcome* out,
                                      const Transaction& transfer,
                                      const std::string& type) {
  obs::TraceLog trace(1 << 16);
  w->net.AttachObs(nullptr, &trace);
  w->net.Start();
  sys->Submit(Deposit(1, transfer.ops[0].key, 100));
  EXPECT_TRUE(w->sim.RunUntil([&] { return out->count(1) == 1; },
                              kMaxSimTime));
  trace.Clear();
  sys->Submit(transfer);
  EXPECT_TRUE(w->sim.RunUntil([&] { return out->count(transfer.id) == 1; },
                              kMaxSimTime));
  w->net.AttachObs(nullptr, nullptr);
  return SentBytes(trace, type);
}

TEST(ShardWireSizeTest, TxnMessagesAreChargedTheEncodedTxn) {
  const Transaction transfer = Transfer(2, "s0/" + std::string(40, 'a'),
                                        "s1/" + std::string(40, 'b'), 25);
  {
    World w(30);
    SharperSystem sys(&w.net, &w.registry, 2);
    auto out = Listen(&sys);
    auto sizes =
        CrossShardSizes(&w, &sys, out.get(), transfer, "sp-propose");
    ASSERT_FALSE(sizes.empty());
    for (uint64_t s : sizes) EXPECT_EQ(s, Charged(transfer));
  }
  {
    World w(31);
    TwoPhaseShardSystem sys(&w.net, &w.registry, TwoPhaseConfig::Ahl(2));
    auto out = Listen(&sys);
    auto sizes =
        CrossShardSizes(&w, &sys, out.get(), transfer, "2pc-prepare");
    ASSERT_FALSE(sizes.empty());
    for (uint64_t s : sizes) EXPECT_EQ(s, Charged(transfer));
  }
  {
    // ResilientDB shares each executed txn with the other clusters; an
    // idle cluster's no-op stays a fixed 48 bytes.
    World w(32);
    obs::TraceLog trace(1 << 16);
    w.net.AttachObs(nullptr, &trace);
    ResilientDbSystem sys(&w.net, &w.registry, 2);
    auto out = Listen(&sys);
    w.net.Start();
    const Transaction deposit = Deposit(1, std::string(60, 'k'), 5);
    sys.Submit(0, deposit);
    ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 1; },
                               kMaxSimTime));
    w.net.AttachObs(nullptr, nullptr);
    auto sizes = SentBytes(trace, "rdb-share");
    EXPECT_NE(std::find(sizes.begin(), sizes.end(), Charged(deposit)),
              sizes.end());
    for (uint64_t s : sizes) {
      EXPECT_TRUE(s == Charged(deposit) || s == 48u) << s;
    }
  }
}

// --- ResilientDB-style -----------------------------------------------------------

TEST(ResilientDbTest, AllClustersExecuteEverything) {
  World w(20);
  ResilientDbSystem sys(&w.net, &w.registry, 3);
  auto out = Listen(&sys);
  w.net.Start();
  sys.Submit(0, Deposit(1, "x", 10));
  sys.Submit(1, Deposit(2, "y", 20));
  sys.Submit(2, Deposit(3, "x", 5));
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 3; },
                             kMaxSimTime));
  w.sim.Run(w.sim.now() + 20'000'000);
  // Every cluster's merged state is identical and complete.
  for (uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(txn::DecodeInt(sys.StateOf(c).Get("x").ValueOrDie().value), 15)
        << c;
    EXPECT_EQ(txn::DecodeInt(sys.StateOf(c).Get("y").ValueOrDie().value), 20)
        << c;
  }
  EXPECT_TRUE(sys.StateOf(0).SameLatestState(sys.StateOf(1)));
  EXPECT_TRUE(sys.StateOf(1).SameLatestState(sys.StateOf(2)));
}

TEST(ResilientDbTest, UnbalancedLoadStillConverges) {
  World w(21);
  ResilientDbSystem sys(&w.net, &w.registry, 3);
  auto out = Listen(&sys);
  w.net.Start();
  // All traffic goes to cluster 0; clusters 1 and 2 must emit no-ops.
  for (int i = 0; i < 8; ++i) {
    sys.Submit(0, Deposit(i + 1, "k" + std::to_string(i), 1));
  }
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 8; },
                             kMaxSimTime));
  w.sim.Run(w.sim.now() + 20'000'000);
  EXPECT_TRUE(sys.StateOf(0).SameLatestState(sys.StateOf(2)));
  EXPECT_EQ(sys.StateOf(2).num_keys(), 8u);
}

TEST(ResilientDbTest, DeterministicMergeOrderAcrossClusters) {
  World w(22);
  ResilientDbSystem sys(&w.net, &w.registry, 2);
  auto out = Listen(&sys);
  w.net.Start();
  // Conflicting blind writes from both clusters; merge order decides, and
  // every cluster must agree on the winner.
  txn::Transaction a;
  a.id = 1;
  a.ops.push_back(Op::Write("k", "fromA"));
  txn::Transaction b;
  b.id = 2;
  b.ops.push_back(Op::Write("k", "fromB"));
  sys.Submit(0, a);
  sys.Submit(1, b);
  ASSERT_TRUE(w.sim.RunUntil([&] { return out->results.size() == 2; },
                             kMaxSimTime));
  w.sim.Run(w.sim.now() + 20'000'000);
  EXPECT_EQ(sys.StateOf(0).Get("k").ValueOrDie().value,
            sys.StateOf(1).Get("k").ValueOrDie().value);
}

}  // namespace
}  // namespace pbc::shard
