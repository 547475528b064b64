#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "block/conflict.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ledger/block.h"
#include "store/codec.h"
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

// --- Canonical encoding ------------------------------------------------------

constexpr OpCode kAllOpCodes[] = {OpCode::kRead, OpCode::kWrite,
                                  OpCode::kIncrement,
                                  OpCode::kTransferGuarded, OpCode::kCompute};

// One op of code `code` whose key, key2 and value are `chars` cut at two
// random points, so any of the three may be empty.
Op SplitOp(OpCode code, const std::string& chars, Rng* rng) {
  size_t a = rng->NextU64(chars.size() + 1);
  size_t b = rng->NextU64(chars.size() + 1);
  if (a > b) std::swap(a, b);
  return {code, chars.substr(0, a), chars.substr(a, b - a), chars.substr(b),
          0};
}

std::string RandomChars(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = {'a', 'b', '\0', '\xff'};
  std::string s(rng->NextU64(max_len + 1), 'a');
  for (char& c : s) c = kAlphabet[rng->NextU64(sizeof(kAlphabet))];
  return s;
}

Transaction RandomTxn(Rng* rng) {
  Transaction t;
  t.id = rng->NextU64();
  t.client = static_cast<uint32_t>(rng->NextU64());
  t.enterprise = static_cast<uint32_t>(rng->NextU64(4));
  t.cross_enterprise = rng->Bernoulli(0.5);
  for (uint64_t n = rng->NextU64(4); n > 0; --n) {
    Op op = SplitOp(kAllOpCodes[rng->NextU64(std::size(kAllOpCodes))],
                    RandomChars(rng, 6), rng);
    op.delta = static_cast<int64_t>(rng->NextU64());
    t.ops.push_back(std::move(op));
  }
  return t;
}

// Ledger inclusion rests on this: a body verifies against a header only if
// its txns are the ones the header committed to.
TEST(TxnEncodingTest, DistinctTxnsNeverShareADigest) {
  Rng rng(26);
  std::map<crypto::Hash256, Transaction> seen;
  size_t distinct = 0;
  for (int i = 0; i < 4000; ++i) {
    // The same characters, re-split between fields and ops.
    Transaction t;
    t.id = 1;
    for (uint64_t n = 1 + rng.NextU64(2); n > 0; --n) {
      t.ops.push_back(SplitOp(
          kAllOpCodes[rng.NextU64(std::size(kAllOpCodes))], "abab", &rng));
    }
    auto [it, fresh] = seen.try_emplace(t.Digest(), t);
    if (fresh) {
      ++distinct;
    } else {
      ASSERT_EQ(it->second, t) << "two distinct txns share a digest";
    }
  }
  EXPECT_GT(distinct, 1000u);  // the splits really vary
  EXPECT_NE(MakeTxn(1, {Op::Write("ab", "")}).Digest(),
            MakeTxn(1, {Op::Write("a", "b")}).Digest());
}

TEST(TxnEncodingTest, DecodeInvertsEncodeAndDigestHashesIt) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Transaction t = RandomTxn(&rng);
    std::string bytes = "prefix";  // EncodeTxn appends
    EncodeTxn(t, &bytes);
    Decoder dec{&bytes, 6};
    Transaction back;
    ASSERT_TRUE(DecodeTxn(&dec, &back));
    EXPECT_EQ(dec.remaining(), 0u);
    EXPECT_EQ(back, t);
    EXPECT_EQ(t.Digest(), crypto::Sha256::Digest(bytes.substr(6)));
  }
}

TEST(TxnEncodingTest, DecodeRejectsTruncationAndUnknownOpCodes) {
  Transaction t = MakeTxn(3, {Op::Transfer("src", "dst", 5), Op::Read("")});
  std::string bytes;
  EncodeTxn(t, &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string cut = bytes.substr(0, len);
    Decoder dec{&cut};
    Transaction out;
    EXPECT_FALSE(DecodeTxn(&dec, &out)) << "prefix of " << len << " bytes";
  }
  // The first op's code follows the u64 id and four u32 fields.
  constexpr size_t kFirstOpCode = 8 + 4 * 4;
  for (uint32_t code : {static_cast<uint32_t>(OpCode::kCompute) + 1,
                        0xFFFFFFFFu}) {
    std::string bad = bytes;
    for (size_t i = 0; i < 4; ++i) {
      bad[kFirstOpCode + i] = static_cast<char>((code >> (8 * i)) & 0xFFu);
    }
    Decoder dec{&bad};
    Transaction out;
    EXPECT_FALSE(DecodeTxn(&dec, &out)) << "op code " << code;
  }
  // An op count the bytes cannot hold is rejected before it sizes an
  // allocation; so is a block's txn count.
  constexpr size_t kOpCount = 8 + 3 * 4;
  std::string huge = bytes;
  for (size_t i = 0; i < 4; ++i) huge[kOpCount + i] = '\xff';
  Decoder dec{&huge};
  Transaction out;
  EXPECT_FALSE(DecodeTxn(&dec, &out));
  ledger::Block block;
  std::string payload = store::EncodeBlock(block);
  for (size_t i = 1; i <= 4; ++i) payload[payload.size() - i] = '\xff';
  EXPECT_FALSE(store::DecodeBlock(payload, &block));
}

// Block logs written before the txn layout moved into txn/ must still
// decode: the block payload for a fixed block is pinned byte for byte.
TEST(TxnEncodingTest, BlockPayloadLayoutIsUnchanged) {
  ledger::Block b;
  b.header.height = 7;
  b.header.prev_hash = crypto::Sha256::Digest(std::string("prev"));
  b.header.txn_root = crypto::Sha256::Digest(std::string("root"));
  b.header.timestamp_us = 123'456'789;
  Transaction t1 = MakeTxn(0x0102030405060708ULL,
                           {Op::Read("r"), Op::Write("k", ""),
                            Op::Increment("i", -5),
                            Op::Transfer("src", "dst", 42), Op::Compute(9)});
  t1.client = 3;
  t1.enterprise = 2;
  t1.cross_enterprise = true;
  b.txns = {t1, MakeTxn(9, {Op::Write("ab", "")}), MakeTxn(10, {})};
  const std::string payload = store::EncodeBlock(b);
  EXPECT_EQ(payload.size(), 311u);
  EXPECT_EQ(store::Crc32(payload), 0xE0991333u);
}

// Every wire size is a length of this one layout: a txn's is EncodeTxn's,
// a header's is EncodeTo's, and a block's is store::EncodeBlock's, whether
// a seal or a check made the VerifiedBlock.
TEST(TxnEncodingTest, SizesAreEncodedLengths) {
  Rng rng(29);
  std::vector<Transaction> txns;
  size_t txn_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    txns.push_back(RandomTxn(&rng));
    std::string bytes;
    EncodeTxn(txns.back(), &bytes);
    EXPECT_EQ(EncodedSize(txns.back()), bytes.size());
    txn_bytes += bytes.size();
  }
  const TxnList list(txns);
  EXPECT_EQ(EncodedSize(list), txn_bytes);

  ledger::BlockHeader header;
  header.height = 7;
  header.prev_hash = crypto::Sha256::Digest(std::string("prev"));
  header.txn_root = crypto::Sha256::Digest(std::string("root"));
  header.timestamp_us = 99;
  std::string bytes;
  header.EncodeTo(&bytes);
  EXPECT_EQ(bytes.size(), ledger::BlockHeader::kEncodedBytes);
  Decoder dec{&bytes};
  ledger::BlockHeader back;
  ASSERT_TRUE(back.DecodeFrom(&dec));
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_EQ(back.Hash(), header.Hash());

  for (const TxnList& body : {list, TxnList()}) {
    auto sealed = ledger::VerifiedBlock::Seal(3, header.prev_hash, body, 42);
    EXPECT_EQ(sealed.encoded_bytes(),
              store::EncodeBlock(sealed.body()).size());
    auto verified = ledger::VerifiedBlock::Verify(
        std::make_shared<const ledger::Block>(sealed.body()));
    ASSERT_TRUE(verified.has_value());
    EXPECT_EQ(verified->encoded_bytes(), sealed.encoded_bytes());
  }
}

TEST(ExecuteTest, WriteProducesWriteSet) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Write("k", "v")}), store);
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
  auto r = Execute(MakeTxn(1, {Op::Read("k"), Op::Read("missing")}), store);
  ASSERT_EQ(r.reads.size(), 2u);
  EXPECT_EQ(r.reads[0].version, 7u);
  EXPECT_EQ(r.reads[1].version, store::kNeverWritten);
}

TEST(ExecuteTest, IncrementReadsModifiesWrites) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("ctr", EncodeInt(10));
  store.ApplyBatch(b, 1);
  auto r = Execute(MakeTxn(1, {Op::Increment("ctr", 5)}), store);
  ASSERT_EQ(r.writes.size(), 1u);
  EXPECT_EQ(DecodeInt(r.writes.writes()[0].value), 15);
  ASSERT_EQ(r.reads.size(), 1u);
}

TEST(ExecuteTest, IncrementOfMissingKeyStartsAtZero) {
  store::KvStore store;
  auto r = Execute(MakeTxn(1, {Op::Increment("new", 3)}), store);
  EXPECT_EQ(DecodeInt(r.writes.writes()[0].value), 3);
}

TEST(ExecuteTest, GuardedTransferMovesFundsWhenSufficient) {
  store::KvStore store;
  store::WriteBatch b;
  b.Put("alice", EncodeInt(100));
  store.ApplyBatch(b, 1);
  auto r = Execute(MakeTxn(1, {Op::Transfer("alice", "bob", 30)}), store);
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
  auto r = Execute(MakeTxn(1, {Op::Transfer("alice", "bob", 30)}), store);
  EXPECT_TRUE(r.writes.empty());
  EXPECT_EQ(r.reads.size(), 2u);  // reads still recorded
}

TEST(ExecuteTest, ReadYourOwnWrites) {
  store::KvStore store;
  auto r = Execute(
      MakeTxn(1, {Op::Write("k", EncodeInt(5)), Op::Increment("k", 1)}),
      store);
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
  auto r = Execute(MakeTxn(1, {Op::Compute(100)}), store);
  EXPECT_GE(r.compute_rounds, 100);
  EXPECT_TRUE(r.writes.empty());
}

// The map/set Execute that the allocation-light one replaced, kept as the
// reference it must agree with: same reads (order, versions), same writes
// (first-write order, last value) and same compute rounds.
ExecResult ReferenceExecute(const Transaction& txn,
                            const store::KvStore& store) {
  ExecResult result;
  std::map<store::Key, store::Value> local;
  std::set<store::Key> read_recorded;

  auto read = [&](const store::Key& key) -> store::Value {
    auto local_it = local.find(key);
    if (local_it != local.end()) {
      if (read_recorded.insert(key).second) {
        const store::VersionedValue* r = store.Latest(key);
        result.reads.push_back(
            {key, r != nullptr ? r->version : store::kNeverWritten});
      }
      return local_it->second;
    }
    const store::VersionedValue* r = store.Latest(key);
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

    ExecResult got = Execute(txn, store);
    ExecResult want = ReferenceExecute(txn, store);
    ASSERT_EQ(got.ok, want.ok) << "trial " << trial;
    ASSERT_EQ(got.reads, want.reads) << "trial " << trial;
    ASSERT_EQ(got.writes.writes(), want.writes.writes()) << "trial " << trial;
    ASSERT_EQ(got.compute_rounds, want.compute_rounds) << "trial " << trial;
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
