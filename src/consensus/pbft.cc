#include "consensus/pbft.h"

#include <algorithm>

namespace pbc::consensus {

PbftReplica::PbftReplica(sim::NodeId id, sim::Network* net,
                         ClusterConfig config, crypto::PrivateKey key,
                         const crypto::KeyRegistry* registry)
    : Replica(id, net, std::move(config), std::move(key), registry) {}

void PbftReplica::OnStart() {
  if (byzantine_mode() == ByzantineMode::kSilent) return;
  ArmProgressTimer();
  // Proposal pacing tick.
  ScheduleProposeTick(std::max<sim::Time>(1000, cfg_.timeout_us / 20));
}

void PbftReplica::OnProtocolMessage(sim::NodeId from,
                                    const sim::MessagePtr& msg) {
  if (const auto* pp = sim::As<PbftPrePrepare>(*msg)) {
    // The client-authenticity check below needs the block body; park the
    // pre-prepare until it arrives (it travels beside the proposal).
    if (!EnsureBodyOrFetch(from, msg, pp->batch)) return;
    HandlePrePrepare(from, *pp);
  } else if (const auto* p = sim::As<PbftPrepare>(*msg)) {
    HandlePrepare(from, *p);
  } else if (const auto* c = sim::As<PbftCommit>(*msg)) {
    HandleCommit(from, *c);
  } else if (const auto* cp = sim::As<PbftCheckpoint>(*msg)) {
    HandleCheckpoint(from, *cp);
  } else if (const auto* vc = sim::As<PbftViewChange>(*msg)) {
    HandleViewChange(from, *vc);
  } else if (const auto* nv = sim::As<PbftNewView>(*msg)) {
    HandleNewView(from, *nv);
  }
}

void PbftReplica::MaybePropose() {
  if (!IsPrimary() || in_view_change_) return;
  while (pool_size() > 0 &&
         next_seq_ - 1 - last_delivered_seq() < kWindow / 2) {
    Batch batch = TakeBatch();
    if (batch.empty()) break;
    uint64_t seq = next_seq_++;
    auto make = [&](Batch b) {
      auto m = std::make_shared<PbftPrePrepare>();
      m->view = view_;
      m->seq = seq;
      m->batch = std::move(b);
      m->digest = m->batch.Digest();
      m->sig = Sign(BindDigest("pbft-pp", view_, seq, m->digest));
      return m;
    };

    if (byzantine_mode() == ByzantineMode::kEquivocate) {
      // Send conflicting pre-prepares to the two halves of the cluster.
      Batch forked = Forked(batch, 0xE01100000000ULL + seq);
      for (size_t i = 0; i < cfg_.n(); ++i) {
        Send(cfg_.replicas[i], make(i < cfg_.n() / 2 ? batch : forked));
      }
      continue;
    }

    auto m = make(std::move(batch));
    Slot& slot = log_[seq];
    slot.view = view_;
    slot.has_preprepare = true;
    slot.batch = m->batch;
    slot.digest = m->digest;
    slot.proposed_by_me = true;
    Broadcast(cfg_.replicas, m);
    SendPrepare(seq, m->digest);
  }
}

void PbftReplica::HandlePrePrepare(sim::NodeId from, const PbftPrePrepare& m) {
  if (m.view != view_ || in_view_change_) return;
  if (from != PrimaryOf(m.view)) return;
  if (!InWindow(m.seq)) return;
  if (!VerifyFrom(from, BindDigest("pbft-pp", m.view, m.seq, m.digest),
                  m.sig)) {
    return;
  }
  if (m.batch.Digest() != m.digest) return;
  // Client-authenticity check: refuse batches carrying transactions no
  // client ever submitted (a Byzantine primary fabricating entries).
  if (byzantine_mode() == ByzantineMode::kHonest &&
      !KnownClientTxns(m.batch)) {
    return;
  }

  Slot& slot = log_[m.seq];
  if (slot.has_preprepare && slot.view == m.view &&
      slot.digest != m.digest &&
      byzantine_mode() != ByzantineMode::kVoteBoth) {
    return;  // equivocation: refuse the second pre-prepare
  }
  slot.view = m.view;
  slot.has_preprepare = true;
  slot.batch = m.batch;
  slot.digest = m.digest;
  SendPrepare(m.seq, m.digest);
  TryPrepare(m.seq);
}

void PbftReplica::SendPrepare(uint64_t seq, const crypto::Hash256& digest) {
  auto p = std::make_shared<PbftPrepare>();
  p->view = view_;
  p->seq = seq;
  p->digest = digest;
  p->sig = Sign(BindDigest("pbft-p", view_, seq, digest));
  Broadcast(cfg_.replicas, p);
}

void PbftReplica::HandlePrepare(sim::NodeId from, const PbftPrepare& m) {
  if (m.view != view_ || !InWindow(m.seq)) return;
  if (!VerifyFrom(from, BindDigest("pbft-p", m.view, m.seq, m.digest),
                  m.sig)) {
    return;
  }
  digest_prepares_[m.seq][m.digest].insert(from);
  TryPrepare(m.seq);
}

void PbftReplica::TryPrepare(uint64_t seq) {
  Slot& slot = log_[seq];
  if (!slot.has_preprepare || slot.prepared) return;
  const auto& votes = digest_prepares_[seq][slot.digest];
  if (votes.size() >= 2 * cfg_.f) {
    slot.prepared = true;
    SendCommit(seq, slot.digest);
    TryCommit(seq);
  }
}

void PbftReplica::SendCommit(uint64_t seq, const crypto::Hash256& digest) {
  auto c = std::make_shared<PbftCommit>();
  c->view = view_;
  c->seq = seq;
  c->digest = digest;
  c->sig = Sign(BindDigest("pbft-c", view_, seq, digest));
  Broadcast(cfg_.replicas, c);
}

void PbftReplica::HandleCommit(sim::NodeId from, const PbftCommit& m) {
  if (!InWindow(m.seq)) return;
  if (!VerifyFrom(from, BindDigest("pbft-c", m.view, m.seq, m.digest),
                  m.sig)) {
    return;
  }
  digest_commits_[m.seq][m.digest].insert(from);
  TryCommit(m.seq);
}

void PbftReplica::TryCommit(uint64_t seq) {
  Slot& slot = log_[seq];
  if (!slot.prepared || slot.committed) return;
  const auto& votes = digest_commits_[seq][slot.digest];
  if (votes.size() >= cfg_.BftQuorum()) {
    slot.committed = true;
    DeliverCommitted(seq, slot.batch);
  }
}

void PbftReplica::OnDelivered(uint64_t seq) {
  if (cfg_.checkpoint_interval != 0 && seq % cfg_.checkpoint_interval != 0) {
    return;
  }
  auto cp = std::make_shared<PbftCheckpoint>();
  cp->seq = seq;
  crypto::Sha256 h;
  h.UpdateU64(seq);
  h.Update(chain().TipHash());
  cp->state_digest = h.Finalize();
  cp->sig = Sign(BindDigest("pbft-cp", 0, seq, cp->state_digest));
  Broadcast(cfg_.replicas, cp);
}

void PbftReplica::HandleCheckpoint(sim::NodeId from, const PbftCheckpoint& m) {
  if (!VerifyFrom(from, BindDigest("pbft-cp", 0, m.seq, m.state_digest),
                  m.sig)) {
    return;
  }
  auto& votes = checkpoint_votes_[m.seq][m.state_digest];
  votes.insert(from);
  if (votes.size() >= cfg_.BftQuorum() && m.seq > stable_checkpoint_) {
    stable_checkpoint_ = m.seq;
    // Garbage-collect everything at or below the stable checkpoint.
    log_.erase(log_.begin(), log_.lower_bound(stable_checkpoint_ + 1));
    digest_prepares_.erase(
        digest_prepares_.begin(),
        digest_prepares_.lower_bound(stable_checkpoint_ + 1));
    digest_commits_.erase(
        digest_commits_.begin(),
        digest_commits_.lower_bound(stable_checkpoint_ + 1));
    checkpoint_votes_.erase(checkpoint_votes_.begin(),
                            checkpoint_votes_.lower_bound(m.seq));
  }
}

void PbftReplica::ArmProgressTimer() {
  delivered_at_last_tick_ = last_delivered_seq();
  ArmTimer(&timer_epoch_, cfg_.timeout_us, [this] { OnProgressTimeout(); });
}

void PbftReplica::OnProgressTimeout() {
  bool pending_work =
      pool_size() > 0 ||
      std::any_of(log_.begin(), log_.end(), [](const auto& kv) {
        return kv.second.has_preprepare && !kv.second.committed;
      });
  bool progressed = last_delivered_seq() > delivered_at_last_tick_;
  if (!pending_work || progressed) {
    ArmProgressTimer();
    return;
  }
  StartViewChange(in_view_change_ ? target_view_ + 1 : view_ + 1);
  ArmProgressTimer();
}

void PbftReplica::StartViewChange(uint64_t target_view) {
  if (byzantine_mode() == ByzantineMode::kSilent) return;
  // If I was the primary, reclaim my un-committed proposals.
  if (IsPrimary()) {
    for (auto& [seq, slot] : log_) {
      if (slot.proposed_by_me && !slot.committed) ReturnToPool(slot.batch);
    }
  }
  in_view_change_ = true;
  target_view_ = target_view;
  ++view_changes_;
  CountViewChange("pbft.view_changes", "pbft-viewchange", target_view);

  auto vc = std::make_shared<PbftViewChange>();
  vc->new_view = target_view;
  vc->last_delivered = last_delivered_seq();
  for (const auto& [seq, slot] : log_) {
    if (slot.prepared && !slot.committed) {
      vc->prepared.push_back({seq, slot.view, slot.digest, slot.batch});
    }
  }
  vc->sig = Sign(ViewChangeDigest(*vc));
  Broadcast(cfg_.replicas, vc);
}

crypto::Hash256 PbftReplica::ViewChangeDigest(const PbftViewChange& vc) {
  crypto::Sha256 h;
  h.UpdateU64(vc.new_view);
  h.UpdateU64(vc.last_delivered);
  for (const auto& p : vc.prepared) h.Update(p.digest);
  return BindDigest("pbft-vc", vc.new_view, vc.last_delivered, h.Finalize());
}

void PbftReplica::HandleViewChange(sim::NodeId from, const PbftViewChange& m) {
  if (!VerifyFrom(from, ViewChangeDigest(m), m.sig)) return;
  if (m.new_view <= view_) return;
  vc_msgs_[m.new_view][from] = m;

  // Join rule: f+1 replicas already moved to a higher view — follow them.
  uint64_t my_target = in_view_change_ ? target_view_ : view_;
  if (m.new_view > my_target &&
      vc_msgs_[m.new_view].size() >= cfg_.f + 1 &&
      vc_msgs_[m.new_view].count(id()) == 0) {
    StartViewChange(m.new_view);
  }

  // New-primary rule.
  if (PrimaryOf(m.new_view) != id()) return;
  if (new_view_sent_.count(m.new_view) > 0) return;
  if (vc_msgs_[m.new_view].size() < cfg_.BftQuorum()) return;

  new_view_sent_.insert(m.new_view);
  auto nv = std::make_shared<PbftNewView>();
  nv->new_view = m.new_view;

  // Gather the highest-view prepared certificate per sequence.
  std::map<uint64_t, PreparedProof> best;
  uint64_t max_seq = last_delivered_seq();
  for (const auto& [sender, vc] : vc_msgs_[m.new_view]) {
    max_seq = std::max(max_seq, vc.last_delivered);
    for (const auto& proof : vc.prepared) {
      max_seq = std::max(max_seq, proof.seq);
      auto it = best.find(proof.seq);
      if (it == best.end() || proof.view > it->second.view) {
        best[proof.seq] = proof;
      }
    }
  }

  for (uint64_t seq = stable_checkpoint_ + 1; seq <= max_seq; ++seq) {
    Batch batch;
    auto bi = best.find(seq);
    if (bi != best.end()) {
      batch = bi->second.batch;
    } else {
      auto li = log_.find(seq);
      if (li != log_.end() && li->second.committed) {
        batch = li->second.batch;  // already decided; re-announce
      }
      // else: a null (empty) batch fills the gap.
    }
    PbftPrePrepare pp;
    pp.view = m.new_view;
    pp.seq = seq;
    pp.batch = std::move(batch);
    pp.digest = pp.batch.Digest();
    pp.sig = Sign(BindDigest("pbft-pp", m.new_view, seq, pp.digest));
    nv->preprepares.push_back(std::move(pp));
  }
  nv->sig = Sign(BindDigest("pbft-nv", m.new_view, nv->preprepares.size(),
                            crypto::Hash256::Zero()));
  next_seq_ = max_seq + 1;
  Broadcast(cfg_.replicas, nv);
}

void PbftReplica::HandleNewView(sim::NodeId from, const PbftNewView& m) {
  if (from != PrimaryOf(m.new_view)) return;
  if (!VerifyFrom(from,
                  BindDigest("pbft-nv", m.new_view, m.preprepares.size(),
                             crypto::Hash256::Zero()),
                  m.sig)) {
    return;
  }
  if (m.new_view < view_) return;
  view_ = m.new_view;
  in_view_change_ = false;
  // Reset per-view vote state for re-proposed sequences.
  for (const auto& pp : m.preprepares) {
    if (pp.seq <= last_delivered_seq()) continue;
    Slot& slot = log_[pp.seq];
    if (!slot.committed) {
      slot = Slot{};
    }
    // A re-proposed block-ref whose body we never saw: park a standalone
    // pre-prepare (re-dispatched via OnMessage once the body is fetched).
    auto standalone = std::make_shared<PbftPrePrepare>(pp);
    if (!EnsureBodyOrFetch(from, standalone, pp.batch)) continue;
    HandlePrePrepare(from, pp);
  }
  ArmProgressTimer();
  MaybePropose();
}

void PbftReplica::ScheduleProposeTick(sim::Time tick) {
  SetTimer(tick, [this, tick] {
    if (byzantine_mode() != ByzantineMode::kSilent) MaybePropose();
    ScheduleProposeTick(tick);
  });
}

}  // namespace pbc::consensus
