#include <gtest/gtest.h>

#include <map>
#include <set>

#include "block/conflict.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "txn/executor.h"
#include "txn/transaction.h"

namespace pbc::txn {
namespace {

Transaction MakeTxn(TxnId id, std::vector<Op> ops) {
  Transaction t;
  t.id = id;
  t.ops = std::move(ops);
  return t;
}

TEST(TransactionTest, DeclaredAccessSets) {
  Transaction t = MakeTxn(1, {Op::Read("r"), Op::Write("w", "v"),
                              Op::Increment("i", 1),
                              Op::Transfer("src", "dst", 5)});
  auto reads = t.DeclaredReads();
  auto writes = t.DeclaredWrites();
  EXPECT_EQ(reads, (std::vector<store::Key>{"dst", "i", "r", "src"}));
  EXPECT_EQ(writes, (std::vector<store::Key>{"dst", "i", "src", "w"}));
}

TEST(TransactionTest, ComputeOpHasNoDataAccess) {
  Transaction t = MakeTxn(1, {Op::Compute(10)});
  EXPECT_TRUE(t.DeclaredReads().empty());
  EXPECT_TRUE(t.DeclaredWrites().empty());
}

TEST(TransactionTest, DigestSensitiveToContent) {
  Transaction a = MakeTxn(1, {Op::Write("k", "v")});
  Transaction b = MakeTxn(1, {Op::Write("k", "w")});
  Transaction c = MakeTxn(2, {Op::Write("k", "v")});
  EXPECT_NE(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());
  EXPECT_EQ(a.Digest(), MakeTxn(1, {Op::Write("k", "v")}).Digest());
}

TEST(ExecuteTest, WriteProducesWriteSet) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Write("k", "v")}), LatestReader(&store));
  ASSERT_EQ(r.writes.size(), 1u);
  EXPECT_EQ(r.writes.writes()[0].key, "k");
  EXPECT_EQ(r.writes.writes()[0].value, "v");
  EXPECT_TRUE(r.reads.empty());
}

TEST(ExecuteTest, ReadRecordsObservedVersion) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("k", "v");
  store.ApplyBatch(b, 7);
  auto r = Execute(MakeTxn(1, {Op::Read("k"), Op::Read("missing")}),
                   LatestReader(&store));
  ASSERT_EQ(r.reads.size(), 2u);
  EXPECT_EQ(r.reads[0].version, 7u);
  EXPECT_EQ(r.reads[1].version, store::kNeverWritten);
}

TEST(ExecuteTest, IncrementReadsModifiesWrites) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("ctr", EncodeInt(10));
  store.ApplyBatch(b, 1);
  auto r = Execute(MakeTxn(1, {Op::Increment("ctr", 5)}),
                   LatestReader(&store));
  ASSERT_EQ(r.writes.size(), 1u);
  EXPECT_EQ(DecodeInt(r.writes.writes()[0].value), 15);
  ASSERT_EQ(r.reads.size(), 1u);
}

TEST(ExecuteTest, IncrementOfMissingKeyStartsAtZero) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Increment("new", 3)}),
                   LatestReader(&store));
  EXPECT_EQ(DecodeInt(r.writes.writes()[0].value), 3);
}

TEST(ExecuteTest, GuardedTransferMovesFundsWhenSufficient) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("alice", EncodeInt(100));
  store.ApplyBatch(b, 1);
  auto r = Execute(MakeTxn(1, {Op::Transfer("alice", "bob", 30)}),
                   LatestReader(&store));
  ASSERT_EQ(r.writes.size(), 2u);
  store.ApplyBatch(r.writes, 2);
  EXPECT_EQ(DecodeInt(store.Get("alice").ValueOrDie().value), 70);
  EXPECT_EQ(DecodeInt(store.Get("bob").ValueOrDie().value), 30);
}

TEST(ExecuteTest, GuardedTransferNoOpWhenInsufficient) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("alice", EncodeInt(10));
  store.ApplyBatch(b, 1);
  auto r = Execute(MakeTxn(1, {Op::Transfer("alice", "bob", 30)}),
                   LatestReader(&store));
  EXPECT_TRUE(r.writes.empty());
  EXPECT_EQ(r.reads.size(), 2u);  // reads still recorded
}

TEST(ExecuteTest, ReadYourOwnWrites) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Write("k", EncodeInt(5)),
                               Op::Increment("k", 1)}),
                   LatestReader(&store));
  // Increment sees the in-transaction write of 5, producing 6.
  bool found = false;
  for (const auto& w : r.writes.writes()) {
    if (w.key == "k") {
      EXPECT_EQ(DecodeInt(w.value), 6);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(r.writes.size(), 1u);  // deduplicated
}

TEST(ExecuteTest, ComputeBurnsRounds) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Compute(100)}), LatestReader(&store));
  EXPECT_GE(r.compute_rounds, 100);
  EXPECT_TRUE(r.writes.empty());
}

TEST(ExecuteTest, SnapshotReaderIgnoresLaterWrites) {
  store::KvStore store;
  store::WriteBatch b1;
  b1.Put("k", "old");
  store.ApplyBatch(b1, 1);
  store::WriteBatch b2;
  b2.Put("k", "new");
  store.ApplyBatch(b2, 2);
  auto r = Execute(MakeTxn(1, {Op::Read("k"), Op::Increment("mirror", 0)}),
                   SnapshotReader(&store, 1));
  EXPECT_EQ(r.reads[0].version, 1u);
}

// The map/set Execute that the allocation-light one replaced, kept as the
// reference it must agree with: same reads (order, versions), same writes
// (first-write order, last value) and same compute rounds.
ExecResult ReferenceExecute(const Transaction& txn, const Reader& reader) {
  ExecResult result;
  std::map<store::Key, store::Value> local;
  std::set<store::Key> read_recorded;

  auto read = [&](const store::Key& key) -> store::Value {
    auto local_it = local.find(key);
    if (local_it != local.end()) {
      if (read_recorded.insert(key).second) {
        const store::VersionedValue* r = reader(key);
        result.reads.push_back(
            {key, r != nullptr ? r->version : store::kNeverWritten});
      }
      return local_it->second;
    }
    const store::VersionedValue* r = reader(key);
    if (read_recorded.insert(key).second) {
      result.reads.push_back(
          {key, r != nullptr ? r->version : store::kNeverWritten});
    }
    return r != nullptr ? r->value : store::Value{};
  };

  auto write = [&](const store::Key& key, store::Value value) {
    local[key] = value;
    result.writes.Put(key, std::move(value));
  };

  for (const auto& op : txn.ops) {
    switch (op.code) {
      case OpCode::kRead:
        read(op.key);
        break;
      case OpCode::kWrite:
        write(op.key, op.value);
        break;
      case OpCode::kIncrement: {
        int64_t cur = DecodeInt(read(op.key));
        write(op.key, EncodeInt(cur + op.delta));
        break;
      }
      case OpCode::kTransferGuarded: {
        int64_t src = DecodeInt(read(op.key));
        int64_t dst = DecodeInt(read(op.key2));
        if (src >= op.delta) {
          write(op.key, EncodeInt(src - op.delta));
          write(op.key2, EncodeInt(dst + op.delta));
        }
        break;
      }
      case OpCode::kCompute:  // its hashing changes no output
        result.compute_rounds += op.delta;
        break;
    }
  }
  std::map<store::Key, size_t> seen;
  std::vector<store::WriteAccess> ordered;
  for (const auto& w : result.writes.writes()) {
    auto it = seen.find(w.key);
    if (it == seen.end()) {
      seen[w.key] = ordered.size();
      ordered.push_back(w);
    } else {
      ordered[it->second] = w;
    }
  }
  result.writes = store::WriteBatch(std::move(ordered));
  return result;
}

TEST(ExecuteTest, MatchesReferenceOnRandomPrograms) {
  Rng rng(2023);
  // Few keys, so programs repeat keys, read what they wrote and transfer
  // between a key and itself.
  auto key = [&] { return "k" + std::to_string(rng.NextU64(5)); };
  uint64_t transfers_ok = 0, transfers_refused = 0, read_after_write = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // A store with some history: balances, non-numeric values, deletes.
    store::KvStore store;
    store::Version version = 1;
    for (uint64_t b = 0, n = rng.NextU64(6); b < n; ++b) {
      store::WriteBatch batch;
      for (uint64_t w = 0, m = 1 + rng.NextU64(3); w < m; ++w) {
        switch (rng.NextU64(5)) {
          case 0:
            batch.Delete(key());
            break;
          case 1:
            batch.Put(key(), "v" + std::to_string(rng.NextU64(9)));
            break;
          default:
            batch.Put(key(), EncodeInt(static_cast<int64_t>(rng.NextU64(20))));
        }
      }
      store.ApplyBatch(batch, version++);
    }

    std::vector<Op> ops;
    std::set<store::Key> written;
    for (uint64_t i = 0, n = 1 + rng.NextU64(8); i < n; ++i) {
      Op op = Op::Compute(0);
      switch (rng.NextU64(5)) {
        case 0:
          op = Op::Read(key());
          break;
        case 1:
          op = Op::Write(key(), "w" + std::to_string(i));
          break;
        case 2:
          op = Op::Increment(key(), static_cast<int64_t>(rng.NextU64(7)) - 3);
          break;
        case 3:
          op = Op::Transfer(key(), key(), 1 + rng.NextU64(25));
          break;
        default:
          op = Op::Compute(static_cast<int64_t>(rng.NextU64(3)));
      }
      if (op.code != OpCode::kWrite && op.code != OpCode::kCompute &&
          written.count(op.key) > 0) {
        ++read_after_write;
      }
      if (op.code != OpCode::kRead && op.code != OpCode::kCompute) {
        written.insert(op.key);
        if (!op.key2.empty()) written.insert(op.key2);
      }
      ops.push_back(std::move(op));
    }
    Transaction txn = MakeTxn(static_cast<TxnId>(trial), std::move(ops));

    const store::Version at = rng.NextU64(version + 1);
    for (const Reader& reader :
         {LatestReader(&store), SnapshotReader(&store, at)}) {
      ExecResult got = Execute(txn, reader);
      ExecResult want = ReferenceExecute(txn, reader);
      ASSERT_EQ(got.ok, want.ok) << "trial " << trial;
      ASSERT_EQ(got.reads, want.reads) << "trial " << trial;
      ASSERT_EQ(got.writes.writes(), want.writes.writes())
          << "trial " << trial;
      ASSERT_EQ(got.compute_rounds, want.compute_rounds) << "trial " << trial;
    }
    for (const Op& op : txn.ops) {
      if (op.code != OpCode::kTransferGuarded) continue;
      const store::VersionedValue* src = store.Latest(op.key);
      int64_t balance = src != nullptr ? DecodeInt(src->value) : 0;
      ++(balance >= op.delta ? transfers_ok : transfers_refused);
    }
  }
  // Rough coverage, judged on each transfer's source balance in the latest
  // state: both guard outcomes and read-after-write occur often.
  EXPECT_GT(transfers_ok, 100u);
  EXPECT_GT(transfers_refused, 100u);
  EXPECT_GT(read_after_write, 100u);
}

// --- Dependency graph (block::ConflictGraph) ---------------------------------

TEST(DependencyGraphTest, NoConflictsNoEdges) {
  std::vector<Transaction> txns = {
      MakeTxn(1, {Op::Write("a", "1")}),
      MakeTxn(2, {Op::Write("b", "2")}),
      MakeTxn(3, {Op::Read("c")}),
  };
  auto g = block::ConflictGraph::Build(txns);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.Levels().size(), 1u);
  EXPECT_EQ(g.Levels()[0].size(), 3u);
}

TEST(DependencyGraphTest, WriteReadConflictMakesEdge) {
  std::vector<Transaction> txns = {
      MakeTxn(1, {Op::Write("k", "1")}),
      MakeTxn(2, {Op::Read("k")}),
  };
  auto g = block::ConflictGraph::Build(txns);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Successors(0), std::vector<size_t>{1});
  size_t in_degree_1 = 0;
  for (size_t i = 0; i < txns.size(); ++i) {
    for (size_t j : g.Successors(i)) in_degree_1 += (j == 1);
  }
  EXPECT_EQ(in_degree_1, 1u);
}

TEST(DependencyGraphTest, WriteWriteConflict) {
  std::vector<Transaction> txns = {
      MakeTxn(1, {Op::Write("k", "1")}),
      MakeTxn(2, {Op::Write("k", "2")}),
  };
  EXPECT_EQ(block::ConflictGraph::Build(txns).num_edges(), 1u);
}

// --- Executors ---------------------------------------------------------------

std::vector<Transaction> MixedBlock() {
  std::vector<Transaction> txns;
  // Independent increments on 8 keys plus a conflicting chain on "hot".
  for (int i = 0; i < 8; ++i) {
    txns.push_back(
        MakeTxn(i, {Op::Increment("key" + std::to_string(i), i + 1)}));
  }
  for (int i = 0; i < 4; ++i) {
    txns.push_back(MakeTxn(100 + i, {Op::Increment("hot", 1)}));
  }
  txns.push_back(MakeTxn(200, {Op::Transfer("key0", "key1", 1)}));
  return txns;
}

TEST(ExecutorTest, SerialAndDagProduceIdenticalState) {
  auto txns = MixedBlock();
  store::KvStore serial_store, dag_store;
  store::WriteBatch init;
  init.Put("key0", EncodeInt(100));
  serial_store.ApplyBatch(init, 1);
  dag_store.ApplyBatch(init, 1);

  ExecuteSerial(txns, &serial_store);

  ThreadPool pool(4);
  ExecuteDag(txns, block::ConflictGraph::Build(txns).Levels(), &pool,
             &dag_store);

  EXPECT_TRUE(serial_store.SameLatestState(dag_store));
  EXPECT_EQ(DecodeInt(dag_store.Get("hot").ValueOrDie().value), 4);
}

TEST(ExecutorTest, DagUsesFewerLevelsThanTxns) {
  auto txns = MixedBlock();
  auto levels = block::ConflictGraph::Build(txns).Levels();
  EXPECT_LT(levels.size(), txns.size());
  ThreadPool pool(4);
  store::KvStore store;
  ExecuteDag(txns, levels, &pool, &store);
  EXPECT_EQ(DecodeInt(store.Get("hot").ValueOrDie().value), 4);
}

TEST(ExecutorTest, EmptyBlockIsFine) {
  store::KvStore store;
  ThreadPool pool(2);
  std::vector<Transaction> empty;
  auto levels = block::ConflictGraph::Build(empty).Levels();
  ExecuteSerial(empty, &store);
  ExecuteDag(empty, levels, &pool, &store);
  EXPECT_EQ(store.last_committed(), 0u);
}

// Property: for random blocks, DAG execution always matches serial.
class DagEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DagEquivalenceTest, MatchesSerialOnRandomBlocks) {
  Rng rng(GetParam());
  std::vector<Transaction> txns;
  const int kKeys = 12;
  for (int i = 0; i < 40; ++i) {
    std::vector<Op> ops;
    int nops = 1 + rng.NextU64(3);
    for (int j = 0; j < nops; ++j) {
      std::string k = "k" + std::to_string(rng.NextU64(kKeys));
      switch (rng.NextU64(4)) {
        case 0:
          ops.push_back(Op::Read(k));
          break;
        case 1:
          ops.push_back(Op::Write(k, EncodeInt(rng.NextU64(100))));
          break;
        case 2:
          ops.push_back(Op::Increment(k, 1 + rng.NextU64(5)));
          break;
        default:
          ops.push_back(Op::Transfer(
              k, "k" + std::to_string(rng.NextU64(kKeys)), rng.NextU64(50)));
      }
    }
    txns.push_back(MakeTxn(i, std::move(ops)));
  }

  store::KvStore s1, s2;
  store::WriteBatch init;
  for (int i = 0; i < kKeys; ++i) {
    init.Put("k" + std::to_string(i), EncodeInt(50));
  }
  s1.ApplyBatch(init, 1);
  s2.ApplyBatch(init, 1);

  ExecuteSerial(txns, &s1);
  ThreadPool pool(4);
  ExecuteDag(txns, block::ConflictGraph::Build(txns).Levels(), &pool, &s2);
  EXPECT_TRUE(s1.SameLatestState(s2)) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagEquivalenceTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace pbc::txn
