#include "confidential/channels.h"

namespace pbc::confidential {

void Channel::CommitBlock(const std::vector<txn::Transaction>& txns) {
  for (const auto& t : txns) {
    auto r = txn::Execute(t, store_);
    if (!r.writes.empty()) {
      store_.ApplyBatch(r.writes, store_.last_committed() + 1);
    }
  }
  chain_.Append(txns);
}

Status ChannelSystem::CreateChannel(ChannelId id,
                                    std::set<txn::EnterpriseId> members) {
  if (channels_.count(id) > 0) {
    return Status::AlreadyExists("channel exists");
  }
  if (members.empty()) {
    return Status::InvalidArgument("channel needs at least one member");
  }
  channels_[id] = std::make_unique<Channel>(id, std::move(members));
  return Status::OK();
}

Status ChannelSystem::Submit(ChannelId channel, txn::EnterpriseId submitter,
                             txn::Transaction txn) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return Status::NotFound("no such channel");
  if (!it->second->IsMember(submitter)) {
    return Status::PermissionDenied("submitter is not a channel member");
  }
  it->second->CommitBlock({std::move(txn)});
  return Status::OK();
}

Result<store::VersionedValue> ChannelSystem::Read(
    ChannelId channel, txn::EnterpriseId reader,
    const store::Key& key) const {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return Status::NotFound("no such channel");
  if (!it->second->IsMember(reader)) {
    return Status::PermissionDenied(
        "enterprise is not a member of this channel");
  }
  return it->second->store().Get(key);
}

Status ChannelSystem::SubmitCrossChannel(ChannelId a, txn::Transaction txn_a,
                                         ChannelId b, txn::Transaction txn_b,
                                         txn::EnterpriseId submitter) {
  auto ia = channels_.find(a);
  auto ib = channels_.find(b);
  if (ia == channels_.end() || ib == channels_.end()) {
    return Status::NotFound("no such channel");
  }
  if (!ia->second->IsMember(submitter) || !ib->second->IsMember(submitter)) {
    ++cross_channel_aborts_;
    return Status::PermissionDenied(
        "submitter must be a member of both channels");
  }

  // Phase 1 (prepare): the coordinator locks both write sets.
  uint64_t marker = next_txn_marker_++;
  auto lock_all = [marker](Channel* ch, const txn::Transaction& t) {
    for (const auto& key : t.DeclaredWrites()) {
      if (!ch->lock_table()->LockExclusive(key, marker).ok()) return false;
    }
    for (const auto& key : t.DeclaredReads()) {
      if (!ch->lock_table()->LockShared(key, marker).ok()) return false;
    }
    return true;
  };
  bool prepared =
      lock_all(ia->second.get(), txn_a) && lock_all(ib->second.get(), txn_b);
  if (!prepared) {
    ia->second->lock_table()->UnlockAll(marker);
    ib->second->lock_table()->UnlockAll(marker);
    ++cross_channel_aborts_;
    return Status::Conflict("cross-channel 2PC prepare failed");
  }

  // Phase 2 (commit): both channels commit their halves atomically.
  ia->second->CommitBlock({std::move(txn_a)});
  ib->second->CommitBlock({std::move(txn_b)});
  ia->second->lock_table()->UnlockAll(marker);
  ib->second->lock_table()->UnlockAll(marker);
  ++cross_channel_commits_;
  return Status::OK();
}

std::vector<ChannelId> ChannelSystem::ChannelsOf(txn::EnterpriseId e) const {
  std::vector<ChannelId> out;
  for (const auto& [id, ch] : channels_) {
    if (ch->IsMember(e)) out.push_back(id);
  }
  return out;
}

uint64_t ChannelSystem::LedgerBlocksStoredBy(txn::EnterpriseId e) const {
  uint64_t total = 0;
  for (const auto& [id, ch] : channels_) {
    if (ch->IsMember(e)) total += ch->chain().height();
  }
  return total;
}

}  // namespace pbc::confidential
