// Key-value store: the "blockchain state" (world state / datastore in
// Fabric terminology) every architecture executes against. It keeps one
// entry per key, the latest value and the version that wrote it, as
// Fabric's peers do.
//
// It serves two masters:
//  * XOV validation — endorsement read-sets carry the version each key was
//    read at; the validator re-checks them against the latest version at
//    commit time (Fabric's MVCC check).
//  * 2PL — AHL's reference committee locks keys across shards; the lock
//    table lives beside the store.
// No reader needs an older version: endorsement and OXII execution read
// the latest state and finish before the block's first write applies.
#ifndef PBC_STORE_KV_STORE_H_
#define PBC_STORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"

namespace pbc::store {

using Key = std::string;
using Value = std::string;
/// Commit version: block height * 2^20 + intra-block index works, but any
/// monotonically increasing counter is valid.
using Version = uint64_t;

/// Version given to keys that have never been written.
inline constexpr Version kNeverWritten = 0;

/// \brief A value together with the version that wrote it.
struct VersionedValue {
  Value value;
  Version version = kNeverWritten;
};

/// \brief One read access with the version observed (for MVCC validation).
struct ReadAccess {
  Key key;
  Version version = kNeverWritten;

  bool operator==(const ReadAccess& o) const {
    return key == o.key && version == o.version;
  }
};

/// \brief One write access.
struct WriteAccess {
  Key key;
  Value value;
  bool is_delete = false;

  bool operator==(const WriteAccess& o) const {
    return key == o.key && value == o.value && is_delete == o.is_delete;
  }
};

/// \brief An atomically applied group of writes.
class WriteBatch {
 public:
  WriteBatch() = default;
  explicit WriteBatch(std::vector<WriteAccess> writes)
      : writes_(std::move(writes)) {}

  void Put(Key key, Value value) {
    writes_.push_back({std::move(key), std::move(value), false});
  }
  void Delete(Key key) { writes_.push_back({std::move(key), "", true}); }

  const std::vector<WriteAccess>& writes() const { return writes_; }
  bool empty() const { return writes_.empty(); }
  size_t size() const { return writes_.size(); }
  void Clear() { writes_.clear(); }

 private:
  std::vector<WriteAccess> writes_;
};

/// \brief The world state: one entry per key.
///
/// Not thread-safe: in parallel execution phases, workers read through
/// `const` lookups while no batch applies, and all mutations happen on the
/// single commit thread, matching how Fabric/ParBlockchain pipelines
/// actually serialize state updates.
class KvStore {
 public:
  /// Latest committed value of `key`, or nullptr if never written or
  /// deleted. The pointer stays valid until the next ApplyBatch.
  const VersionedValue* Latest(const Key& key) const;

  /// Latest() as a copy; NotFound if never written or deleted.
  Result<VersionedValue> Get(const Key& key) const;

  /// Version of the latest write to `key` (kNeverWritten if none). Deletes
  /// count as writes: a deleted key has a fresh version but no value.
  Version VersionOf(const Key& key) const;

  /// Applies all writes in `batch` at `commit_version`, which must exceed
  /// the store's last committed version. Each write replaces its key's
  /// entry; a delete leaves a tombstone that keeps the version.
  Status ApplyBatch(const WriteBatch& batch, Version commit_version);

  /// True iff every read in `reads` still observes the current version
  /// (Fabric's validation-phase MVCC check).
  bool ValidateReadSet(const std::vector<ReadAccess>& reads) const;

  Version last_committed() const { return last_committed_; }
  /// Keys ever written, deleted ones included.
  size_t num_keys() const { return entries_.size(); }

  /// Deep equality of latest state (used by replica-consistency checks).
  bool SameLatestState(const KvStore& other) const;

  /// Digest-friendly iteration over latest live values, in key order.
  /// Sorts the live keys on each call: for serialization and checks, not
  /// for the execution path.
  void ForEachLatest(
      const std::function<void(const Key&, const VersionedValue&)>& fn) const;

 private:
  struct Entry {
    VersionedValue vv;
    bool is_delete = false;
  };
  using LiveEntry = std::pair<const Key*, const VersionedValue*>;

  // Latest live entries, sorted by key.
  std::vector<LiveEntry> SortedLive() const;

  // Latest entry per key. Hashed: execution only ever looks keys up, and
  // ordered walks go through SortedLive().
  std::unordered_map<Key, Entry> entries_;
  Version last_committed_ = 0;
};

/// \brief Pessimistic lock table (2PL) used by AHL's reference committee.
class LockTable {
 public:
  using TxnId = uint64_t;

  /// Acquires a shared lock; fails with Conflict if exclusively held by
  /// another transaction.
  Status LockShared(const Key& key, TxnId txn);

  /// Acquires an exclusive lock; fails with Conflict if held (in any mode)
  /// by another transaction. Upgrades a solely-held shared lock.
  Status LockExclusive(const Key& key, TxnId txn);

  /// Releases every lock held by `txn`.
  void UnlockAll(TxnId txn);

  bool IsLocked(const Key& key) const;
  size_t num_locked_keys() const { return locks_.size(); }

 private:
  struct LockState {
    bool exclusive = false;
    std::vector<TxnId> holders;
  };
  std::map<Key, LockState> locks_;
};

}  // namespace pbc::store

#endif  // PBC_STORE_KV_STORE_H_
