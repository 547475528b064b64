// Chained HotStuff (Yin et al., PODC'19) — the linear-communication BFT
// protocol cited by the survey (§2.3.3) as the modern alternative to PBFT.
//
// Implemented: the chained variant with a rotating leader per view. Votes
// for the view-v proposal flow to the leader of view v+1 (linear message
// complexity, vs PBFT's all-to-all); that leader aggregates n-f votes into
// a quorum certificate and proposes on top of it. Safety uses the two-chain
// locking rule, liveness a timeout pacemaker with NewView messages carrying
// the sender's highest QC. Commit fires on a direct-parent three-chain.
#ifndef PBC_CONSENSUS_HOTSTUFF_H_
#define PBC_CONSENSUS_HOTSTUFF_H_

#include <map>
#include <set>

#include "consensus/replica.h"

namespace pbc::consensus {

/// \brief Quorum certificate: n-f votes for one tree node in one view.
struct QuorumCert {
  uint64_t view = 0;
  crypto::Hash256 node_hash;  ///< Zero = genesis
};

/// \brief One node of the proposal tree.
struct HsTreeNode {
  crypto::Hash256 hash;
  crypto::Hash256 parent;
  uint64_t view = 0;
  uint64_t depth = 0;  ///< genesis = 0; used as the delivery sequence
  Batch batch;
  QuorumCert justify;

  static crypto::Hash256 ComputeHash(const crypto::Hash256& parent,
                                     uint64_t view,
                                     const crypto::Hash256& batch_digest);
};

struct HsProposal : sim::Typed<HsProposal> {
  HsTreeNode node;
  crypto::Signature sig;
  static constexpr char kType[] = "hs-proposal";
  size_t ByteSize() const override { return 160 + node.batch.WireBytes(); }
};

struct HsVote : sim::Typed<HsVote> {
  uint64_t view = 0;
  crypto::Hash256 node_hash;
  crypto::Signature sig;
  static constexpr char kType[] = "hs-vote";
};

struct HsNewView : sim::Typed<HsNewView> {
  uint64_t view = 0;  ///< the view being entered
  QuorumCert high_qc;
  /// True when the sender entered `view` because its pacemaker timed out
  /// (vs. happy-path advancement on a QC). Only timeout NewViews authorize
  /// the leader's fallback proposal without a fresh QC — otherwise the
  /// fallback races the vote quorum and forks the happy path.
  bool timeout = false;
  crypto::Signature sig;
  static constexpr char kType[] = "hs-newview";
};

/// \brief A chained-HotStuff replica.
class HotStuffReplica : public Replica {
 public:
  HotStuffReplica(sim::NodeId id, sim::Network* net, ClusterConfig config,
                  crypto::PrivateKey key, const crypto::KeyRegistry* registry);

  void OnStart() override;

  uint64_t view() const { return view_; }
  sim::NodeId LeaderOf(uint64_t view) const {
    return cfg_.replicas[view % cfg_.n()];
  }
  const QuorumCert& high_qc() const { return high_qc_; }
  uint64_t timeouts() const { return timeouts_; }

  ReplicaStatus Status() const override { return RotatingStatus(view_); }

 private:
  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override;
  void OnStartPoll();
  void HandleProposal(sim::NodeId from, const HsProposal& m);
  void HandleVote(sim::NodeId from, const HsVote& m);
  void HandleNewView(sim::NodeId from, const HsNewView& m);

  /// Leader path: propose in `view_` extending high_qc_ if this replica
  /// leads the view and has something to flush.
  void MaybePropose();
  /// Called when a QC for `node_hash` in `view` is observed or formed.
  void ProcessQC(const QuorumCert& qc);
  /// Applies the three-chain commit rule triggered by a new QC.
  void TryCommitFrom(const QuorumCert& qc);
  void EnterView(uint64_t view, bool by_timeout = false);
  /// Announces entry into `view_` (with this replica's high QC) to its
  /// leader.
  void SendNewView(bool by_timeout);
  void ArmViewTimer();
  bool HasPendingWork() const;

  crypto::Hash256 VoteDigest(uint64_t view,
                             const crypto::Hash256& node_hash) const;

  const HsTreeNode* NodeOf(const crypto::Hash256& h) const;
  bool Extends(const crypto::Hash256& descendant,
               const crypto::Hash256& ancestor) const;

  uint64_t view_ = 1;
  QuorumCert high_qc_;    // genesis
  QuorumCert locked_qc_;  // genesis
  uint64_t last_voted_view_ = 0;
  std::map<crypto::Hash256, HsTreeNode> tree_;
  std::map<crypto::Hash256, std::set<sim::NodeId>> votes_;
  std::map<uint64_t, std::map<sim::NodeId, QuorumCert>> new_views_;
  std::map<uint64_t, std::set<sim::NodeId>> timeout_new_views_;
  crypto::Hash256 last_committed_;  ///< deepest committed node
  uint64_t committed_depth_ = 0;
  uint64_t max_tree_depth_ = 0;
  uint64_t timer_epoch_ = 0;
  uint64_t timeouts_ = 0;
  std::set<uint64_t> proposed_views_;
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_HOTSTUFF_H_
