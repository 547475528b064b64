#include "consensus/paxos.h"

#include <algorithm>

namespace pbc::consensus {

namespace {
constexpr size_t kMaxInFlight = 64;
}

PaxosReplica::PaxosReplica(sim::NodeId id, sim::Network* net,
                           ClusterConfig config, crypto::PrivateKey key,
                           const crypto::KeyRegistry* registry)
    : Replica(id, net, std::move(config), std::move(key), registry) {}

void PaxosReplica::OnStart() { ArmLivenessTimer(); }

void PaxosReplica::ArmLivenessTimer() {
  uint64_t learned_then = last_learned_;
  // Randomized (like Raft's election timeout) so one proposer wins.
  // NextU64 tolerates timeout_us == 0 by returning 0.
  sim::Time t = cfg_.timeout_us +
                network()->simulator()->rng()->NextU64(cfg_.timeout_us);
  ArmTimer(&timer_epoch_, t, [this, learned_then] {
    bool pending = pool_size() > 0 || !proposing_.empty();
    bool progressed = last_learned_ > learned_then;
    if (pending && !progressed && !leading_) {
      TryBecomeLeader();
    } else if (leading_) {
      ProposePending();
    }
    ArmLivenessTimer();
  });
}

void PaxosReplica::TryBecomeLeader() {
  ++round_;
  CountViewChange("paxos.leader_attempts", "paxos-prepare", round_);
  // Round must exceed any ballot seen, or our prepare is dead on arrival.
  while (MakeBallot(round_) <= promised_) ++round_;
  my_ballot_ = MakeBallot(round_);
  leading_ = false;
  promises_.clear();
  auto p = std::make_shared<PaxosPrepare>();
  p->ballot = my_ballot_;
  p->first_slot = last_learned_ + 1;
  Broadcast(cfg_.replicas, p);
}

void PaxosReplica::OnProtocolMessage(sim::NodeId from,
                                     const sim::MessagePtr& msg) {
  if (const auto* p = sim::As<PaxosPrepare>(*msg)) {
    HandlePrepare(from, *p);
  } else if (const auto* pr = sim::As<PaxosPromise>(*msg)) {
    HandlePromise(from, *pr);
  } else if (const auto* a = sim::As<PaxosAccept>(*msg)) {
    HandleAccept(from, *a);
  } else if (const auto* ad = sim::As<PaxosAccepted>(*msg)) {
    HandleAccepted(from, *ad);
  } else if (const auto* c = sim::As<PaxosCommit>(*msg)) {
    HandleCommit(from, *c);
  }
}

void PaxosReplica::HandlePrepare(sim::NodeId from, const PaxosPrepare& m) {
  if (m.ballot <= promised_) return;  // stale proposer; ignore
  promised_ = m.ballot;
  if (leading_ && m.ballot > my_ballot_) leading_ = false;

  auto reply = std::make_shared<PaxosPromise>();
  reply->ballot = m.ballot;
  reply->last_committed = last_learned_;
  for (const auto& [slot, state] : acceptor_log_) {
    if (slot >= m.first_slot && state.has_value) {
      reply->accepted.push_back(
          {slot, state.accepted_ballot, state.accepted_value});
    }
  }
  Send(from, reply);
}

void PaxosReplica::HandlePromise(sim::NodeId from, const PaxosPromise& m) {
  if (m.ballot != my_ballot_) return;  // stale round
  if (leading_) return;                // quorum already reached
  promises_[from] = m;
  if (promises_.size() < cfg_.MajorityQuorum()) return;

  leading_ = true;
  // Adopt the highest-ballot accepted value per slot (the Paxos rule).
  std::map<uint64_t, std::pair<Ballot, Batch>> best;
  uint64_t max_slot = last_learned_;
  for (const auto& [sender, promise] : promises_) {
    for (const auto& acc : promise.accepted) {
      max_slot = std::max(max_slot, acc.slot);
      auto it = best.find(acc.slot);
      if (it == best.end() || acc.ballot > it->second.first) {
        best[acc.slot] = {acc.ballot, acc.value};
      }
    }
  }
  // Re-propose bound values; fill holes with no-ops so delivery advances.
  for (uint64_t slot = last_learned_ + 1; slot <= max_slot; ++slot) {
    auto it = best.find(slot);
    Batch value = it != best.end() ? it->second.second : Batch{};
    proposing_[slot] = value;
    auto a = std::make_shared<PaxosAccept>();
    a->ballot = my_ballot_;
    a->slot = slot;
    a->value = std::move(value);
    Broadcast(cfg_.replicas, a);
  }
  next_slot_ = max_slot + 1;
  ProposePending();
}

void PaxosReplica::SchedulePendingPropose() {
  // Block mode: the pool has txns but no cut is due. Poll faster than the
  // liveness timer so the accept goes out as soon as the cut rules fire.
  if (propose_poll_armed_) return;
  propose_poll_armed_ = true;
  sim::Time poll = std::max<sim::Time>(500, cfg_.block.max_delay_us / 4);
  SetTimer(poll, [this] {
    propose_poll_armed_ = false;
    ProposePending();
  });
}

void PaxosReplica::ProposePending() {
  if (!leading_) return;
  while (pool_size() > 0 && proposing_.size() < kMaxInFlight) {
    Batch batch = TakeBatch();
    if (batch.empty()) {
      if (cfg_.block.enabled) SchedulePendingPropose();
      break;
    }
    uint64_t slot = next_slot_++;
    proposing_[slot] = batch;
    auto a = std::make_shared<PaxosAccept>();
    a->ballot = my_ballot_;
    a->slot = slot;
    a->value = std::move(batch);
    Broadcast(cfg_.replicas, a);
  }
}

void PaxosReplica::HandleAccept(sim::NodeId from, const PaxosAccept& m) {
  if (m.ballot < promised_) return;  // stale leader
  promised_ = m.ballot;
  if (leading_ && m.ballot > my_ballot_) leading_ = false;
  SlotState& s = acceptor_log_[m.slot];
  s.accepted_ballot = m.ballot;
  s.accepted_value = m.value;
  s.has_value = true;
  auto reply = std::make_shared<PaxosAccepted>();
  reply->ballot = m.ballot;
  reply->slot = m.slot;
  Send(from, reply);
}

void PaxosReplica::HandleAccepted(sim::NodeId from, const PaxosAccepted& m) {
  if (!leading_ || m.ballot != my_ballot_) return;
  auto pit = proposing_.find(m.slot);
  if (pit == proposing_.end()) return;  // already chosen
  auto& votes = accept_votes_[m.slot];
  votes.insert(from);
  if (votes.size() < cfg_.MajorityQuorum()) return;

  // Chosen: learn it and tell everyone.
  Batch value = std::move(pit->second);
  proposing_.erase(pit);
  accept_votes_.erase(m.slot);
  auto c = std::make_shared<PaxosCommit>();
  c->slot = m.slot;
  c->value = value;
  Broadcast(cfg_.replicas, c);
  last_learned_ = std::max(last_learned_, m.slot);
  DeliverCommitted(m.slot, std::move(value));
}

void PaxosReplica::HandleCommit(sim::NodeId from, const PaxosCommit& m) {
  (void)from;
  last_learned_ = std::max(last_learned_, m.slot);
  DeliverCommitted(m.slot, m.value);
}

}  // namespace pbc::consensus
