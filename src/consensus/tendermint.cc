#include "consensus/tendermint.h"

#include <algorithm>

namespace pbc::consensus {

TendermintReplica::TendermintReplica(sim::NodeId id, sim::Network* net,
                                     ClusterConfig config,
                                     crypto::PrivateKey key,
                                     const crypto::KeyRegistry* registry)
    : Replica(id, net, std::move(config), std::move(key), registry) {}

size_t TendermintReplica::ProposerIndexFor(uint64_t height,
                                           uint64_t round) const {
  // Stake-proportional rotation: walk a virtual list where validator i
  // appears PowerOf(i) times, indexed by (height + round). Deterministic
  // and identical on every validator; a simplification of Tendermint's
  // proposer-priority accumulator that preserves proportionality.
  uint64_t total = cfg_.TotalPower();
  uint64_t slot = (height + round) % total;
  uint64_t acc = 0;
  for (size_t i = 0; i < cfg_.n(); ++i) {
    acc += cfg_.PowerOf(i);
    if (slot < acc) return i;
  }
  return 0;
}

uint64_t TendermintReplica::PowerOfNode(sim::NodeId node) const {
  size_t idx = cfg_.IndexOf(node);
  return idx < cfg_.n() ? cfg_.PowerOf(idx) : 0;
}

uint64_t TendermintReplica::TallyPower(
    const std::map<crypto::Hash256, std::set<sim::NodeId>>& tally,
    const crypto::Hash256& digest) const {
  auto it = tally.find(digest);
  if (it == tally.end()) return 0;
  uint64_t power = 0;
  for (sim::NodeId v : it->second) power += PowerOfNode(v);
  return power;
}

uint64_t TendermintReplica::TotalTallyPower(
    const std::map<crypto::Hash256, std::set<sim::NodeId>>& tally) const {
  // A validator may appear under several digests only if Byzantine; count
  // each voter once.
  std::set<sim::NodeId> voters;
  for (const auto& [digest, who] : tally) {
    voters.insert(who.begin(), who.end());
  }
  uint64_t power = 0;
  for (sim::NodeId v : voters) power += PowerOfNode(v);
  return power;
}

void TendermintReplica::OnStart() {
  // Re-arm, not re-run, the round: a restart must not propose twice.
  if (active_) ArmStepTimeout(step_);
}

void TendermintReplica::SubmitTransaction(
    std::shared_ptr<const txn::Transaction> txn) {
  Replica::SubmitTransaction(std::move(txn));
  if (byzantine_mode() == ByzantineMode::kSilent) return;
  if (!active_ && pool_size() > 0) Activate();
}

void TendermintReplica::Activate() {
  if (active_) return;
  active_ = true;
  StartRound(round_);
}

void TendermintReplica::StartRound(uint64_t round) {
  round_ = round;
  step_ = Step::kPropose;
  if (round > 0) {
    // Rounds past the first are Tendermint's view-change equivalent.
    CountViewChange("tendermint.extra_rounds", "tm-round", round);
  }
  size_t proposer = ProposerIndexFor(height_, round_);
  if (cfg_.replicas[proposer] == id() &&
      byzantine_mode() != ByzantineMode::kSilent) {
    if (locked_value_.has_value()) {
      BroadcastProposal(*locked_value_);
    } else if (pool_size() > 0) {
      Batch batch = TakeBatch();
      if (!batch.empty()) {
        BroadcastProposal(batch);
      } else {
        // Block mode: no cut is due yet. Poll again within the round so
        // the proposal goes out as soon as the cut rules fire.
        SchedulePendingProposal();
      }
    }
    // An idle proposer with nothing to propose stays silent; peers remain
    // idle too (they only activate on work or traffic), so no churn.
  }
  ArmStepTimeout(Step::kPropose);
}

void TendermintReplica::SchedulePendingProposal() {
  uint64_t h = height_;
  uint64_t r = round_;
  sim::Time poll = std::max<sim::Time>(500, cfg_.block.max_delay_us / 4);
  SetTimer(poll, [this, h, r] {
    if (byzantine_mode() == ByzantineMode::kSilent) return;
    if (h != height_ || r != round_ || step_ != Step::kPropose) return;
    if (cfg_.replicas[ProposerIndexFor(height_, round_)] != id()) return;
    if (locked_value_.has_value() || pool_size() == 0) return;
    Batch batch = TakeBatch();
    if (!batch.empty()) {
      BroadcastProposal(batch);
    } else {
      SchedulePendingProposal();
    }
  });
}

void TendermintReplica::BroadcastProposal(const Batch& batch) {
  auto make = [&](const Batch& b) {
    auto m = std::make_shared<TmProposal>();
    m->height = height_;
    m->round = round_;
    m->batch = b;
    m->digest = b.Digest();
    m->sig = Sign(BindDigest("tm-prop", height_, round_, m->digest));
    return m;
  };
  if (byzantine_mode() == ByzantineMode::kEquivocate) {
    Batch forked =
        Forked(batch, 0xE011000000000000ULL + height_ * 1000 + round_);
    for (size_t i = 0; i < cfg_.n(); ++i) {
      Send(cfg_.replicas[i], make(i < cfg_.n() / 2 ? batch : forked));
    }
    return;
  }
  Broadcast(cfg_.replicas, make(batch));
}

void TendermintReplica::ArmStepTimeout(Step step) {
  uint64_t h = height_;
  uint64_t r = round_;
  // Timeouts grow with round number so lagging validators resynchronize.
  sim::Time t = cfg_.timeout_us * (1 + r);
  ArmTimer(&timer_epoch_, t, [this, h, r, step] {
    if (h != height_ || r != round_) return;
    if (byzantine_mode() == ByzantineMode::kSilent) return;
    switch (step) {
      case Step::kPropose:
        if (step_ == Step::kPropose) {
          step_ = Step::kPrevote;
          CastVote(/*precommit=*/false, Nil());
          ArmStepTimeout(Step::kPrevote);
        }
        break;
      case Step::kPrevote:
        if (step_ == Step::kPrevote) {
          step_ = Step::kPrecommit;
          CastVote(/*precommit=*/true, Nil());
          ArmStepTimeout(Step::kPrecommit);
        }
        break;
      case Step::kPrecommit:
        StartRound(r + 1);
        break;
    }
  });
}

void TendermintReplica::CastVote(bool precommit,
                                 const crypto::Hash256& digest) {
  auto v = std::make_shared<TmVote>();
  v->precommit = precommit;
  v->height = height_;
  v->round = round_;
  v->digest = digest;
  v->sig = Sign(BindDigest(precommit ? "tm-pc" : "tm-pv", height_, round_,
                           digest));
  Broadcast(cfg_.replicas, v);
}

void TendermintReplica::OnProtocolMessage(sim::NodeId from,
                                          const sim::MessagePtr& msg) {
  const char* t = msg->type();
  if (const auto* proposal = sim::As<TmProposal>(*msg)) {
    // Prevoting checks client authenticity against the block body; park
    // the proposal until the body (broadcast alongside it) arrives.
    if (!EnsureBodyOrFetch(from, msg, proposal->batch)) return;
    HandleProposal(from, *proposal);
  } else if (t == TmVote::kPrevote || t == TmVote::kPrecommit) {
    HandleVote(from, static_cast<const TmVote&>(*msg));
  } else if (const auto* decision = sim::As<TmDecision>(*msg)) {
    HandleDecision(from, *decision);
  }
}

void TendermintReplica::MaybeHelpLaggard(sim::NodeId from,
                                         uint64_t their_height) {
  if (their_height >= height_) return;
  auto it = decisions_.find(their_height);
  if (it == decisions_.end()) return;
  Send(from, std::make_shared<TmDecision>(it->second));
}

void TendermintReplica::HandleDecision(sim::NodeId from,
                                       const TmDecision& m) {
  (void)from;
  if (m.height != height_) return;
  if (m.batch.Digest() != m.digest) return;
  // Verify the certificate: distinct signers whose precommit signatures
  // check out must hold a supermajority of voting power.
  std::set<sim::NodeId> signers;
  for (const auto& sig : m.precommit_sigs) {
    if (VerifyPeer(BindDigest("tm-pc", m.height, m.round, m.digest), sig)) {
      signers.insert(sig.signer);
    }
  }
  uint64_t power = 0;
  for (sim::NodeId s : signers) power += PowerOfNode(s);
  if (!SuperMajority(power)) return;
  proposals_[m.round][m.digest] = m.batch;
  CommitValue(m.round, m.digest);
}

void TendermintReplica::HandleProposal(sim::NodeId from,
                                       const TmProposal& m) {
  if (m.height != height_) {
    MaybeHelpLaggard(from, m.height);
    return;
  }
  if (!VerifyFrom(from, BindDigest("tm-prop", m.height, m.round, m.digest),
                  m.sig)) {
    return;
  }
  if (cfg_.replicas[ProposerIndexFor(m.height, m.round)] != from) return;
  if (m.batch.Digest() != m.digest) return;

  Activate();
  if (m.round > round_) {
    // The network moved on; join the newer round.
    StartRound(m.round);
  }
  auto& known = proposals_[m.round];
  if (known.count(m.digest) == 0) known[m.digest] = m.batch;

  if (m.round == round_ && step_ == Step::kPropose) {
    bool acceptable = locked_round_ < 0 ||
                      (locked_value_ && locked_value_->Digest() == m.digest);
    // Client-authenticity check: prevote nil on fabricated transactions.
    if (byzantine_mode() == ByzantineMode::kHonest &&
        !KnownClientTxns(m.batch)) {
      acceptable = false;
    }
    if (byzantine_mode() == ByzantineMode::kVoteBoth) acceptable = true;
    step_ = Step::kPrevote;
    CastVote(/*precommit=*/false,
             acceptable ? m.digest
                        : (locked_value_ ? locked_value_->Digest() : Nil()));
    ArmStepTimeout(Step::kPrevote);
    CheckPrevotes(round_);
  }
}

void TendermintReplica::HandleVote(sim::NodeId from, const TmVote& m) {
  if (m.height != height_) {
    MaybeHelpLaggard(from, m.height);
    return;
  }
  if (!VerifyFrom(from,
                  BindDigest(m.precommit ? "tm-pc" : "tm-pv", m.height,
                             m.round, m.digest),
                  m.sig)) {
    return;
  }
  Activate();
  if (m.precommit) {
    precommits_[m.round][m.digest].insert(from);
    precommit_sigs_[m.round][m.digest][from] = m.sig;
    CheckPrecommits(m.round);
  } else {
    prevotes_[m.round][m.digest].insert(from);
    CheckPrevotes(m.round);
  }
}

void TendermintReplica::CheckPrevotes(uint64_t round) {
  if (round != round_) {
    // Round-skip: a supermajority already prevoting in a later round means
    // we are behind.
    if (round > round_ && SuperMajority(TotalTallyPower(prevotes_[round]))) {
      StartRound(round);
    }
    if (round != round_) return;
  }
  // +2/3 for one concrete value → lock and precommit it.
  for (const auto& [digest, who] : prevotes_[round]) {
    if (digest == Nil()) continue;
    if (!SuperMajority(TallyPower(prevotes_[round], digest))) continue;
    if (proposals_[round].count(digest) == 0) continue;  // need the value
    if (step_ == Step::kPrevote || step_ == Step::kPropose) {
      locked_value_ = proposals_[round][digest];
      locked_round_ = static_cast<int64_t>(round);
      step_ = Step::kPrecommit;
      CastVote(/*precommit=*/true, digest);
      ArmStepTimeout(Step::kPrecommit);
    }
    return;
  }
  // +2/3 nil → precommit nil.
  if (step_ == Step::kPrevote &&
      SuperMajority(TallyPower(prevotes_[round], Nil()))) {
    step_ = Step::kPrecommit;
    CastVote(/*precommit=*/true, Nil());
    ArmStepTimeout(Step::kPrecommit);
  }
}

void TendermintReplica::CheckPrecommits(uint64_t round) {
  for (const auto& [digest, who] : precommits_[round]) {
    if (digest == Nil()) continue;
    if (SuperMajority(TallyPower(precommits_[round], digest)) &&
        proposals_[round].count(digest) > 0) {
      CommitValue(round, digest);
      return;
    }
  }
  // +2/3 precommits present but no value decided → next round (after the
  // precommit timeout; handled by the armed timer).
  if (round == round_ && step_ == Step::kPrecommit &&
      SuperMajority(TallyPower(precommits_[round], Nil()))) {
    StartRound(round_ + 1);
  }
}

void TendermintReplica::CommitValue(uint64_t round,
                                    const crypto::Hash256& digest) {
  Batch decided = proposals_[round][digest];
  // Record the decision certificate for catch-up before clearing state.
  TmDecision decision;
  decision.height = height_;
  decision.round = round;
  decision.digest = digest;
  decision.batch = decided;
  for (const auto& [signer, sig] : precommit_sigs_[round][digest]) {
    decision.precommit_sigs.push_back(sig);
  }
  decisions_[height_] = std::move(decision);
  DeliverCommitted(height_, std::move(decided));
  ++height_;
  round_ = 0;
  step_ = Step::kPropose;
  locked_value_.reset();
  locked_round_ = -1;
  proposals_.clear();
  prevotes_.clear();
  precommits_.clear();
  precommit_sigs_.clear();
  ++timer_epoch_;  // cancel stale timers
  active_ = false;
  if (pool_size() > 0) {
    Activate();
  }
}

}  // namespace pbc::consensus
