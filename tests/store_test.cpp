#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "store/kv_store.h"

namespace pbc::store {
namespace {

TEST(KvStoreTest, GetMissingKeyIsNotFound) {
  KvStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
}

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  WriteBatch batch;
  batch.Put("a", "1");
  ASSERT_TRUE(store.ApplyBatch(batch, 1).ok());
  auto r = store.Get("a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().value, "1");
  EXPECT_EQ(r.ValueOrDie().version, 1u);
}

TEST(KvStoreTest, CommitVersionMustIncrease) {
  KvStore store;
  WriteBatch batch;
  batch.Put("a", "1");
  ASSERT_TRUE(store.ApplyBatch(batch, 5).ok());
  EXPECT_FALSE(store.ApplyBatch(batch, 5).ok());
  EXPECT_FALSE(store.ApplyBatch(batch, 4).ok());
  EXPECT_TRUE(store.ApplyBatch(batch, 6).ok());
}

TEST(KvStoreTest, DeleteHidesKeyButBumpsVersion) {
  KvStore store;
  WriteBatch put;
  put.Put("a", "1");
  store.ApplyBatch(put, 1);
  WriteBatch del;
  del.Delete("a");
  store.ApplyBatch(del, 2);
  EXPECT_TRUE(store.Get("a").status().IsNotFound());
  EXPECT_EQ(store.VersionOf("a"), 2u);  // deletes are versioned writes
}

TEST(KvStoreTest, ValidateReadSetDetectsStaleReads) {
  KvStore store;
  WriteBatch b1;
  b1.Put("k", "v1");
  store.ApplyBatch(b1, 1);

  std::vector<ReadAccess> reads = {{"k", 1}};
  EXPECT_TRUE(store.ValidateReadSet(reads));

  WriteBatch b2;
  b2.Put("k", "v2");
  store.ApplyBatch(b2, 2);
  EXPECT_FALSE(store.ValidateReadSet(reads));  // Fabric MVCC check fails
}

TEST(KvStoreTest, ValidateReadSetOfNeverWrittenKey) {
  KvStore store;
  std::vector<ReadAccess> reads = {{"ghost", kNeverWritten}};
  EXPECT_TRUE(store.ValidateReadSet(reads));
  WriteBatch b;
  b.Put("ghost", "now exists");
  store.ApplyBatch(b, 1);
  EXPECT_FALSE(store.ValidateReadSet(reads));
}

TEST(KvStoreTest, LastWriterWinsWithinBatch) {
  KvStore store;
  WriteBatch b;
  b.Put("k", "first");
  b.Put("k", "second");
  store.ApplyBatch(b, 1);
  EXPECT_EQ(store.Get("k").ValueOrDie().value, "second");
}

TEST(KvStoreTest, SameLatestStateIgnoresHistory) {
  KvStore a, b;
  WriteBatch w1;
  w1.Put("k", "v");
  a.ApplyBatch(w1, 1);
  // b reaches the same state via a different history.
  WriteBatch w2;
  w2.Put("k", "other");
  b.ApplyBatch(w2, 1);
  WriteBatch w3;
  w3.Put("k", "v");
  b.ApplyBatch(w3, 2);
  EXPECT_TRUE(a.SameLatestState(b));
}

TEST(KvStoreTest, SameLatestStateDetectsDivergence) {
  KvStore a, b;
  WriteBatch w;
  w.Put("k", "v1");
  a.ApplyBatch(w, 1);
  WriteBatch w2;
  w2.Put("k", "v2");
  b.ApplyBatch(w2, 1);
  EXPECT_FALSE(a.SameLatestState(b));
}

TEST(KvStoreTest, ForEachLatestVisitsLiveKeysInOrder) {
  KvStore store;
  WriteBatch b;
  b.Put("b", "2");
  b.Put("a", "1");
  b.Put("c", "3");
  store.ApplyBatch(b, 1);
  WriteBatch d;
  d.Delete("b");
  store.ApplyBatch(d, 2);
  std::vector<Key> keys;
  store.ForEachLatest([&](const Key& k, const VersionedValue&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<Key>{"a", "c"}));
}

TEST(KvStoreTest, ForEachLatestVisitsLiveKeysInKeyOrder) {
  // Enough keys that the hashed index's own order is far from sorted;
  // decimal suffixes interleave ("k1" < "k10" < "k100" < "k11").
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i) keys.push_back("k" + std::to_string(i));
  Rng rng(23);
  std::shuffle(keys.begin(), keys.end(), rng.engine());

  KvStore store;
  std::map<Key, VersionedValue> expected;
  Version version = 1;
  for (const Key& k : keys) {
    WriteBatch b;
    b.Put(k, "v" + k);
    store.ApplyBatch(b, version);
    expected[k] = {"v" + k, version++};
  }
  // Delete every third key, rewrite every fifth (some of them deleted
  // first, so they come back live).
  for (size_t i = 0; i < keys.size(); i += 3) {
    WriteBatch b;
    b.Delete(keys[i]);
    store.ApplyBatch(b, version++);
    expected.erase(keys[i]);
  }
  for (size_t i = 0; i < keys.size(); i += 5) {
    WriteBatch b;
    b.Put(keys[i], "again");
    store.ApplyBatch(b, version);
    expected[keys[i]] = {"again", version++};
  }

  std::vector<std::pair<Key, VersionedValue>> visited;
  store.ForEachLatest([&](const Key& k, const VersionedValue& vv) {
    visited.emplace_back(k, vv);
  });
  ASSERT_EQ(visited.size(), expected.size());
  auto it = expected.begin();
  for (const auto& [k, vv] : visited) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(vv.value, it->second.value) << k;
    EXPECT_EQ(vv.version, it->second.version) << k;
    ++it;
  }
}

TEST(KvStoreTest, LatestAgreesWithGet) {
  KvStore store;
  WriteBatch b1;
  b1.Put("hit", "1");
  b1.Put("gone", "x");
  store.ApplyBatch(b1, 1);
  WriteBatch b2;
  b2.Delete("gone");
  b2.Put("late", "y");
  store.ApplyBatch(b2, 2);

  for (const char* k : {"hit", "gone", "late", "miss"}) {
    const VersionedValue* latest = store.Latest(k);
    Result<VersionedValue> got = store.Get(k);
    ASSERT_EQ(latest != nullptr, got.ok()) << k;
    if (latest != nullptr) {
      EXPECT_EQ(latest->value, got->value) << k;
      EXPECT_EQ(latest->version, got->version) << k;
    } else {
      EXPECT_TRUE(got.status().IsNotFound()) << k;
    }
  }
  EXPECT_EQ(store.Latest("hit")->value, "1");
  EXPECT_EQ(store.Latest("gone"), nullptr);  // deleted
  EXPECT_EQ(store.Latest("miss"), nullptr);  // never written
}

TEST(KvStoreTest, OverwriteKeepsOneEntryPerKey) {
  // Every write replaces its key's entry: 100 batches over 3 keys leave 3
  // entries holding the last write, and a delete keeps its version.
  const Key keys[] = {"a", "b", "c"};
  KvStore store;
  for (Version v = 1; v <= 100; ++v) {
    WriteBatch b;
    b.Put(keys[v % 3], "v" + std::to_string(v));
    if (v % 10 == 0) b.Put(keys[(v + 1) % 3], "w" + std::to_string(v));
    ASSERT_TRUE(store.ApplyBatch(b, v).ok());
    ASSERT_EQ(store.num_keys(), std::min<size_t>(v, 3)) << v;
  }
  // The last writes: a at 99, b and c both in batch 100.
  EXPECT_EQ(store.Latest("a")->value, "v99");
  EXPECT_EQ(store.VersionOf("a"), 99u);
  EXPECT_EQ(store.Latest("b")->value, "v100");
  EXPECT_EQ(store.Latest("b")->version, 100u);
  EXPECT_EQ(store.Latest("c")->value, "w100");
  EXPECT_EQ(store.VersionOf("c"), 100u);

  WriteBatch del;
  del.Delete("b");
  ASSERT_TRUE(store.ApplyBatch(del, 101).ok());
  EXPECT_EQ(store.num_keys(), 3u);
  EXPECT_EQ(store.Latest("b"), nullptr);
  EXPECT_EQ(store.VersionOf("b"), 101u);
  WriteBatch again;
  again.Put("b", "back");
  ASSERT_TRUE(store.ApplyBatch(again, 102).ok());
  EXPECT_EQ(store.Latest("b")->value, "back");
  EXPECT_EQ(store.VersionOf("b"), 102u);
  EXPECT_EQ(store.num_keys(), 3u);
}

// --- LockTable --------------------------------------------------------------

TEST(LockTableTest, SharedLocksCoexist) {
  LockTable lt;
  EXPECT_TRUE(lt.LockShared("k", 1).ok());
  EXPECT_TRUE(lt.LockShared("k", 2).ok());
  EXPECT_TRUE(lt.IsLocked("k"));
}

TEST(LockTableTest, ExclusiveExcludesAll) {
  LockTable lt;
  ASSERT_TRUE(lt.LockExclusive("k", 1).ok());
  EXPECT_TRUE(lt.LockShared("k", 2).IsConflict());
  EXPECT_TRUE(lt.LockExclusive("k", 2).IsConflict());
}

TEST(LockTableTest, SharedBlocksExclusiveFromOther) {
  LockTable lt;
  ASSERT_TRUE(lt.LockShared("k", 1).ok());
  EXPECT_TRUE(lt.LockExclusive("k", 2).IsConflict());
}

TEST(LockTableTest, UpgradeWhenSoleHolder) {
  LockTable lt;
  ASSERT_TRUE(lt.LockShared("k", 1).ok());
  EXPECT_TRUE(lt.LockExclusive("k", 1).ok());
  EXPECT_TRUE(lt.LockShared("k", 2).IsConflict());
}

TEST(LockTableTest, UpgradeDeniedWithTwoSharers) {
  LockTable lt;
  ASSERT_TRUE(lt.LockShared("k", 1).ok());
  ASSERT_TRUE(lt.LockShared("k", 2).ok());
  EXPECT_TRUE(lt.LockExclusive("k", 1).IsConflict());
}

TEST(LockTableTest, UnlockAllReleasesEverything) {
  LockTable lt;
  lt.LockExclusive("a", 1);
  lt.LockShared("b", 1);
  lt.LockShared("b", 2);
  lt.UnlockAll(1);
  EXPECT_FALSE(lt.IsLocked("a"));
  EXPECT_TRUE(lt.IsLocked("b"));  // txn 2 still holds b
  EXPECT_TRUE(lt.LockExclusive("a", 3).ok());
}

TEST(LockTableTest, ReentrantAcquisitionIsIdempotent) {
  LockTable lt;
  ASSERT_TRUE(lt.LockShared("k", 1).ok());
  ASSERT_TRUE(lt.LockShared("k", 1).ok());
  lt.UnlockAll(1);
  EXPECT_FALSE(lt.IsLocked("k"));
}

}  // namespace
}  // namespace pbc::store
