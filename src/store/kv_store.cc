#include "store/kv_store.h"

#include <algorithm>
#include <functional>

namespace pbc::store {

const VersionedValue* KvStore::Latest(const Key& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.is_delete) return nullptr;
  return &it->second.vv;
}

Result<VersionedValue> KvStore::Get(const Key& key) const {
  const VersionedValue* vv = Latest(key);
  if (vv == nullptr) return Status::NotFound("key not found: " + key);
  return *vv;
}

Version KvStore::VersionOf(const Key& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? kNeverWritten : it->second.vv.version;
}

Status KvStore::ApplyBatch(const WriteBatch& batch, Version commit_version) {
  if (commit_version <= last_committed_) {
    return Status::InvalidArgument("commit version must increase");
  }
  for (const auto& w : batch.writes()) {
    // In place, so a rewrite reuses the value's buffer; within one batch
    // the last writer wins.
    Entry& e = entries_[w.key];
    e.vv.value = w.value;
    e.vv.version = commit_version;
    e.is_delete = w.is_delete;
  }
  last_committed_ = commit_version;
  return Status::OK();
}

bool KvStore::ValidateReadSet(const std::vector<ReadAccess>& reads) const {
  for (const auto& r : reads) {
    if (VersionOf(r.key) != r.version) return false;
  }
  return true;
}

std::vector<KvStore::LiveEntry> KvStore::SortedLive() const {
  std::vector<LiveEntry> live;
  live.reserve(entries_.size());
  // detlint:allow(unordered-iter) collected, then sorted by key below
  for (const auto& [k, e] : entries_) {
    if (!e.is_delete) live.emplace_back(&k, &e.vv);
  }
  std::sort(live.begin(), live.end(),
            [](const LiveEntry& a, const LiveEntry& b) {
              return *a.first < *b.first;
            });
  return live;
}

bool KvStore::SameLatestState(const KvStore& other) const {
  // Compare live (non-deleted) latest values only.
  std::vector<LiveEntry> mine = SortedLive();
  std::vector<LiveEntry> theirs = other.SortedLive();
  return std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                    [](const LiveEntry& a, const LiveEntry& b) {
                      return *a.first == *b.first &&
                             a.second->value == b.second->value;
                    });
}

void KvStore::ForEachLatest(
    const std::function<void(const Key&, const VersionedValue&)>& fn) const {
  for (const auto& [key, vv] : SortedLive()) fn(*key, *vv);
}

Status LockTable::LockShared(const Key& key, TxnId txn) {
  LockState& s = locks_[key];
  if (s.exclusive) {
    if (s.holders.size() == 1 && s.holders[0] == txn) return Status::OK();
    return Status::Conflict("exclusive lock held on " + key);
  }
  if (std::find(s.holders.begin(), s.holders.end(), txn) == s.holders.end()) {
    s.holders.push_back(txn);
  }
  return Status::OK();
}

Status LockTable::LockExclusive(const Key& key, TxnId txn) {
  LockState& s = locks_[key];
  if (s.holders.empty()) {
    s.exclusive = true;
    s.holders.push_back(txn);
    return Status::OK();
  }
  if (s.holders.size() == 1 && s.holders[0] == txn) {
    s.exclusive = true;  // fresh grant or shared→exclusive upgrade
    return Status::OK();
  }
  return Status::Conflict("lock held on " + key);
}

void LockTable::UnlockAll(TxnId txn) {
  for (auto it = locks_.begin(); it != locks_.end();) {
    auto& holders = it->second.holders;
    holders.erase(std::remove(holders.begin(), holders.end(), txn),
                  holders.end());
    if (holders.empty()) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
}

bool LockTable::IsLocked(const Key& key) const {
  auto it = locks_.find(key);
  return it != locks_.end() && !it->second.holders.empty();
}

}  // namespace pbc::store
