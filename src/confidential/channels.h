// Multi-channel Hyperledger Fabric [16] (§2.3.1, §2.3.4).
//
// A channel is an isolated ledger + state shared by its member enterprises;
// different channels share the ordering service but see nothing of each
// other's data. An enterprise may belong to several channels. Channels also
// act as shards: intra-channel transactions are cheap; transactions across
// two channels need an atomic-commit protocol (here: 2PC with the trusted
// ordering service as coordinator, the "trusted channel" variant of the
// paper's two options).
#ifndef PBC_CONFIDENTIAL_CHANNELS_H_
#define PBC_CONFIDENTIAL_CHANNELS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "ledger/chain.h"
#include "store/kv_store.h"
#include "txn/transaction.h"

namespace pbc::confidential {

using ChannelId = uint32_t;

/// \brief One channel: member set, ledger, and state.
class Channel {
 public:
  Channel(ChannelId id, std::set<txn::EnterpriseId> members)
      : id_(id), members_(std::move(members)) {}

  ChannelId id() const { return id_; }
  bool IsMember(txn::EnterpriseId e) const { return members_.count(e) > 0; }
  const std::set<txn::EnterpriseId>& members() const { return members_; }

  const ledger::Chain& chain() const { return chain_; }
  const store::KvStore& store() const { return store_; }

  /// Executes and commits a batch of transactions as one block.
  void CommitBlock(const std::vector<txn::Transaction>& txns);

  store::LockTable* lock_table() { return &locks_; }
  store::KvStore* mutable_store() { return &store_; }

 private:
  ChannelId id_;
  std::set<txn::EnterpriseId> members_;
  ledger::Chain chain_;
  store::KvStore store_;
  store::LockTable locks_;
};

/// \brief The multi-channel system with a shared ordering service.
class ChannelSystem {
 public:
  /// Creates a channel; fails if the id exists.
  Status CreateChannel(ChannelId id, std::set<txn::EnterpriseId> members);

  /// Submits a transaction to a channel on behalf of an enterprise. The
  /// enterprise must be a member; the ordering service sequences it into
  /// the channel's next block (immediate, single-txn blocks here — batch
  /// shaping belongs to the architecture layer).
  Status Submit(ChannelId channel, txn::EnterpriseId submitter,
                txn::Transaction txn);

  /// Reads a key as an enterprise; PermissionDenied unless it is a member
  /// of the channel (confidentiality check).
  Result<store::VersionedValue> Read(ChannelId channel,
                                     txn::EnterpriseId reader,
                                     const store::Key& key) const;

  /// Atomic cross-channel transaction: `txn_a` commits on channel `a` and
  /// `txn_b` on channel `b`, or neither. Two-phase commit coordinated by
  /// the (trusted) ordering service: lock both write sets, then commit
  /// both. Fails with Conflict if locks cannot be acquired.
  Status SubmitCrossChannel(ChannelId a, txn::Transaction txn_a, ChannelId b,
                            txn::Transaction txn_b,
                            txn::EnterpriseId submitter);

  const Channel& channel(ChannelId id) const { return *channels_.at(id); }
  size_t num_channels() const { return channels_.size(); }

  /// Channels an enterprise belongs to.
  std::vector<ChannelId> ChannelsOf(txn::EnterpriseId e) const;

  /// Total ledger copies an enterprise stores (sum over its channels of
  /// that channel's chain height) — the data-integration cost the survey
  /// attributes to channel proliferation.
  uint64_t LedgerBlocksStoredBy(txn::EnterpriseId e) const;

  uint64_t cross_channel_commits() const { return cross_channel_commits_; }
  uint64_t cross_channel_aborts() const { return cross_channel_aborts_; }

 private:
  std::map<ChannelId, std::unique_ptr<Channel>> channels_;
  uint64_t next_txn_marker_ = 1;
  uint64_t cross_channel_commits_ = 0;
  uint64_t cross_channel_aborts_ = 0;
};

}  // namespace pbc::confidential

#endif  // PBC_CONFIDENTIAL_CHANNELS_H_
