// Tendermint (Kwon 2014; Buchman et al.) — the PBFT-derived protocol the
// survey singles out (§2.3.3) for three differences from PBFT: a validator
// subset with bonded stake, per-round leader (proposer) rotation, and
// Proof-of-Stake voting where quorums are fractions of total *voting power*
// rather than of validator count.
//
// Implemented: the round-based state machine (propose → prevote →
// precommit) with value locking, nil votes on timeout, stake-weighted
// quorums (strictly > 2/3 of total power), and deterministic
// power-proportional proposer rotation. One height at a time, as in the
// real system.
#ifndef PBC_CONSENSUS_TENDERMINT_H_
#define PBC_CONSENSUS_TENDERMINT_H_

#include <map>
#include <optional>
#include <set>

#include "consensus/replica.h"

namespace pbc::consensus {

struct TmProposal : sim::Typed<TmProposal> {
  uint64_t height = 0;
  uint64_t round = 0;
  Batch batch;
  crypto::Hash256 digest;
  crypto::Signature sig;
  static constexpr char kType[] = "tm-proposal";
  size_t ByteSize() const override { return 96 + batch.WireBytes(); }
};

/// Prevote / precommit share a shape; `digest == Zero` encodes nil.
struct TmVote : sim::Message {
  bool precommit = false;
  uint64_t height = 0;
  uint64_t round = 0;
  crypto::Hash256 digest;
  crypto::Signature sig;
  static constexpr char kPrevote[] = "tm-prevote";
  static constexpr char kPrecommit[] = "tm-precommit";
  const char* type() const override {
    return precommit ? kPrecommit : kPrevote;
  }
};

/// \brief Decision certificate for height catch-up: the committed batch
/// plus the +2/3-power precommit signatures proving it. A validator that
/// receives traffic from a peer at an earlier height replies with the
/// decision for that height (Tendermint's block-sync, reduced to its
/// essence). The receiver verifies every signature before committing.
struct TmDecision : sim::Typed<TmDecision> {
  uint64_t height = 0;
  uint64_t round = 0;
  crypto::Hash256 digest;
  Batch batch;
  std::vector<crypto::Signature> precommit_sigs;
  static constexpr char kType[] = "tm-decision";
  size_t ByteSize() const override {
    return 96 + batch.WireBytes() + precommit_sigs.size() * 40;
  }
};

/// \brief A Tendermint validator.
class TendermintReplica : public Replica {
 public:
  TendermintReplica(sim::NodeId id, sim::Network* net, ClusterConfig config,
                    crypto::PrivateKey key,
                    const crypto::KeyRegistry* registry);

  void OnStart() override;
  void SubmitTransaction(std::shared_ptr<const txn::Transaction> txn) override;

  uint64_t height() const { return height_; }
  uint64_t round() const { return round_; }

  /// Deterministic stake-proportional rotation shared by all validators.
  size_t ProposerIndexFor(uint64_t height, uint64_t round) const;

  ReplicaStatus Status() const override {
    ReplicaStatus status;
    status.commit_index = last_delivered_seq();
    status.view = round_;
    status.knows_leader = true;
    status.leader_index = ProposerIndexFor(height_, round_);
    status.is_leader = cfg_.replicas[status.leader_index] == id();
    status.knows_next_leader = true;
    status.next_leader_index = ProposerIndexFor(height_, round_ + 1);
    return status;
  }

 private:
  enum class Step { kPropose, kPrevote, kPrecommit };

  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override;
  void Activate();
  void StartRound(uint64_t round);
  /// Block mode: the proposer's pool has txns but no cut is due yet;
  /// re-poll TakeBatch within the round until the cut rules fire.
  void SchedulePendingProposal();
  void BroadcastProposal(const Batch& batch);
  void CastVote(bool precommit, const crypto::Hash256& digest);
  void HandleProposal(sim::NodeId from, const TmProposal& m);
  void HandleVote(sim::NodeId from, const TmVote& m);
  void HandleDecision(sim::NodeId from, const TmDecision& m);
  /// Replies with the stored decision when `from` is at an earlier height.
  void MaybeHelpLaggard(sim::NodeId from, uint64_t their_height);
  void CheckPrevotes(uint64_t round);
  void CheckPrecommits(uint64_t round);
  void CommitValue(uint64_t round, const crypto::Hash256& digest);
  void ArmStepTimeout(Step step);

  uint64_t PowerOfNode(sim::NodeId node) const;
  /// Sum of voting power behind `digest` in the given tally.
  uint64_t TallyPower(
      const std::map<crypto::Hash256, std::set<sim::NodeId>>& tally,
      const crypto::Hash256& digest) const;
  uint64_t TotalTallyPower(
      const std::map<crypto::Hash256, std::set<sim::NodeId>>& tally) const;
  bool SuperMajority(uint64_t power) const {
    return power * 3 > cfg_.TotalPower() * 2;
  }

  uint64_t height_ = 1;
  uint64_t round_ = 0;
  Step step_ = Step::kPropose;
  bool active_ = false;

  std::optional<Batch> locked_value_;
  int64_t locked_round_ = -1;

  // Per-round state for the current height (cleared on commit).
  std::map<uint64_t, std::map<crypto::Hash256, Batch>> proposals_;
  std::map<uint64_t, std::map<crypto::Hash256, std::set<sim::NodeId>>>
      prevotes_;
  std::map<uint64_t, std::map<crypto::Hash256, std::set<sim::NodeId>>>
      precommits_;
  /// Precommit signatures retained to assemble decision certificates.
  std::map<uint64_t,
           std::map<crypto::Hash256,
                    std::map<sim::NodeId, crypto::Signature>>>
      precommit_sigs_;
  /// Committed heights (certificate store for catch-up).
  std::map<uint64_t, TmDecision> decisions_;

  uint64_t timer_epoch_ = 0;
  /// Nil marker.
  static crypto::Hash256 Nil() { return crypto::Hash256::Zero(); }
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_TENDERMINT_H_
