#include "consensus/hotstuff.h"

#include <algorithm>

namespace pbc::consensus {

crypto::Hash256 HsTreeNode::ComputeHash(const crypto::Hash256& parent,
                                        uint64_t view,
                                        const crypto::Hash256& batch_digest) {
  crypto::Sha256 h;
  h.Update(std::string("pbc-hs-node"));
  h.Update(parent);
  h.UpdateU64(view);
  h.Update(batch_digest);
  return h.Finalize();
}

HotStuffReplica::HotStuffReplica(sim::NodeId id, sim::Network* net,
                                 ClusterConfig config, crypto::PrivateKey key,
                                 const crypto::KeyRegistry* registry)
    : Replica(id, net, std::move(config), std::move(key), registry) {
  // Install the genesis node.
  HsTreeNode genesis;
  genesis.hash = crypto::Hash256::Zero();
  genesis.parent = crypto::Hash256::Zero();
  genesis.view = 0;
  genesis.depth = 0;
  tree_[genesis.hash] = genesis;
  last_committed_ = genesis.hash;
}

crypto::Hash256 HotStuffReplica::VoteDigest(
    uint64_t view, const crypto::Hash256& node_hash) const {
  crypto::Sha256 h;
  h.Update(std::string("pbc-hs-vote"));
  h.UpdateU64(view);
  h.Update(node_hash);
  return h.Finalize();
}

const HsTreeNode* HotStuffReplica::NodeOf(const crypto::Hash256& h) const {
  auto it = tree_.find(h);
  return it == tree_.end() ? nullptr : &it->second;
}

bool HotStuffReplica::Extends(const crypto::Hash256& descendant,
                              const crypto::Hash256& ancestor) const {
  crypto::Hash256 cur = descendant;
  for (int hops = 0; hops < 10000; ++hops) {
    if (cur == ancestor) return true;
    const HsTreeNode* n = NodeOf(cur);
    if (n == nullptr || n->depth == 0) return ancestor.IsZero();
    cur = n->parent;
  }
  return false;
}

void HotStuffReplica::OnStart() {
  if (byzantine_mode() == ByzantineMode::kSilent) return;
  ArmViewTimer();
  // Kick the pipeline: everyone announces view 1 to its leader.
  SendNewView(/*by_timeout=*/false);
  // Poll for late-arriving client transactions when idle.
  SetTimer(1000, [this] { OnStartPoll(); });
}

void HotStuffReplica::OnStartPoll() {
  if (byzantine_mode() == ByzantineMode::kSilent) return;
  MaybePropose();
  SetTimer(std::max<sim::Time>(1000, cfg_.timeout_us / 20),
           [this] { OnStartPoll(); });
}

bool HotStuffReplica::HasPendingWork() const {
  // Pending client transactions, or any proposal in the tree that has not
  // yet committed (covers a proposer whose own in-flight proposal drained
  // its pool — without this the pacemaker would never fire for it).
  return pool_size() > 0 || max_tree_depth_ > committed_depth_;
}

void HotStuffReplica::ArmViewTimer() {
  ArmTimer(&timer_epoch_, cfg_.timeout_us, [this] {
    if (!HasPendingWork()) {
      ArmViewTimer();
      return;
    }
    ++timeouts_;
    // Only timeout-driven view advances are "view changes" in the PBFT
    // sense; happy-path pipelining through EnterView is normal progress.
    CountViewChange("hotstuff.view_changes", "hs-timeout", view_ + 1);
    EnterView(view_ + 1, /*by_timeout=*/true);
  });
}

void HotStuffReplica::EnterView(uint64_t view, bool by_timeout) {
  if (view <= view_) return;
  view_ = view;
  ArmViewTimer();
  SendNewView(by_timeout);
  MaybePropose();
}

void HotStuffReplica::SendNewView(bool by_timeout) {
  auto nv = std::make_shared<HsNewView>();
  nv->view = view_;
  nv->high_qc = high_qc_;
  nv->timeout = by_timeout;
  nv->sig = Sign(VoteDigest(view_, high_qc_.node_hash));
  Send(LeaderOf(view_), nv);
}

void HotStuffReplica::MaybePropose() {
  if (LeaderOf(view_) != id()) return;
  if (proposed_views_.count(view_) > 0) return;
  // Need justification to extend: either a fresh QC for view_-1 (happy
  // path) or n-f *timeout* NewView messages for this view. Happy-path
  // NewViews must not count here: every replica sends one on each view
  // entry, so they would race the vote quorum and make the leader fork
  // the chain with a stale justify roughly every other view.
  bool have_newviews =
      timeout_new_views_[view_].size() >= cfg_.n() - cfg_.f;
  bool have_fresh_qc = high_qc_.view + 1 == view_;
  if (!have_newviews && !have_fresh_qc) return;
  if (!HasPendingWork()) return;

  const HsTreeNode* parent = NodeOf(high_qc_.node_hash);
  if (parent == nullptr) return;

  Batch batch = TakeBatch();
  proposed_views_.insert(view_);
  auto make = [&](Batch b) {
    auto m = std::make_shared<HsProposal>();
    m->node.parent = parent->hash;
    m->node.view = view_;
    m->node.depth = parent->depth + 1;
    m->node.batch = std::move(b);
    m->node.justify = high_qc_;
    m->node.hash =
        HsTreeNode::ComputeHash(parent->hash, view_, m->node.batch.Digest());
    m->sig = Sign(VoteDigest(view_, m->node.hash));
    return m;
  };

  if (byzantine_mode() == ByzantineMode::kEquivocate) {
    Batch forked = Forked(batch, 0xE0110000000000ULL + view_);
    for (size_t i = 0; i < cfg_.n(); ++i) {
      Send(cfg_.replicas[i], make(i < cfg_.n() / 2 ? batch : forked));
    }
    return;
  }
  Broadcast(cfg_.replicas, make(std::move(batch)));
}

void HotStuffReplica::OnProtocolMessage(sim::NodeId from,
                                        const sim::MessagePtr& msg) {
  if (const auto* proposal = sim::As<HsProposal>(*msg)) {
    // The vote rule checks client authenticity against the block body;
    // park the proposal until the body (broadcast alongside) arrives.
    if (!EnsureBodyOrFetch(from, msg, proposal->node.batch)) return;
    HandleProposal(from, *proposal);
  } else if (const auto* vote = sim::As<HsVote>(*msg)) {
    HandleVote(from, *vote);
  } else if (const auto* nv = sim::As<HsNewView>(*msg)) {
    HandleNewView(from, *nv);
  }
}

void HotStuffReplica::HandleProposal(sim::NodeId from, const HsProposal& m) {
  if (from != LeaderOf(m.node.view)) return;
  if (!VerifyFrom(from, VoteDigest(m.node.view, m.node.hash), m.sig)) return;
  if (HsTreeNode::ComputeHash(m.node.parent, m.node.view,
                              m.node.batch.Digest()) != m.node.hash) {
    return;
  }
  const HsTreeNode* parent = NodeOf(m.node.parent);
  if (parent == nullptr) return;  // unknown ancestry; drop (no sync layer)
  if (m.node.depth != parent->depth + 1) return;
  if (m.node.justify.node_hash != m.node.parent) return;  // chained form

  tree_[m.node.hash] = m.node;
  max_tree_depth_ = std::max(max_tree_depth_, m.node.depth);
  ProcessQC(m.node.justify);

  // Vote rule: once per view, and only for safe extensions.
  bool safe = Extends(m.node.hash, locked_qc_.node_hash) ||
              m.node.justify.view > locked_qc_.view;
  // Client-authenticity check: never vote for fabricated transactions.
  if (byzantine_mode() == ByzantineMode::kHonest &&
      !KnownClientTxns(m.node.batch)) {
    safe = false;
  }
  if (byzantine_mode() == ByzantineMode::kVoteBoth) safe = true;
  if (m.node.view >= view_ &&
      (m.node.view > last_voted_view_ ||
       byzantine_mode() == ByzantineMode::kVoteBoth) &&
      safe) {
    last_voted_view_ = m.node.view;
    auto vote = std::make_shared<HsVote>();
    vote->view = m.node.view;
    vote->node_hash = m.node.hash;
    vote->sig = Sign(VoteDigest(m.node.view, m.node.hash));
    Send(LeaderOf(m.node.view + 1), vote);
    EnterView(m.node.view + 1);
  }
}

void HotStuffReplica::HandleVote(sim::NodeId from, const HsVote& m) {
  if (!VerifyFrom(from, VoteDigest(m.view, m.node_hash), m.sig)) return;
  auto& voters = votes_[m.node_hash];
  voters.insert(from);
  if (voters.size() >= cfg_.n() - cfg_.f) {
    ProcessQC(QuorumCert{m.view, m.node_hash});
    MaybePropose();
  }
}

void HotStuffReplica::HandleNewView(sim::NodeId from, const HsNewView& m) {
  if (!VerifyFrom(from, VoteDigest(m.view, m.high_qc.node_hash), m.sig)) {
    return;
  }
  ProcessQC(m.high_qc);
  new_views_[m.view][from] = m.high_qc;
  if (m.timeout) timeout_new_views_[m.view].insert(from);
  if (m.view > view_ &&
      new_views_[m.view].size() >= cfg_.f + 1) {
    EnterView(m.view);  // join a pacemaker round we missed
  }
  MaybePropose();
}

void HotStuffReplica::ProcessQC(const QuorumCert& qc) {
  if (qc.view > high_qc_.view) {
    high_qc_ = qc;
    TryCommitFrom(qc);
    if (qc.view + 1 > view_) EnterView(qc.view + 1);
  }
}

void HotStuffReplica::TryCommitFrom(const QuorumCert& qc) {
  // Three-chain: qc certifies b2; b1 = b2.justify node; b0 = b1.justify
  // node. Direct-parent links b2→b1→b0 commit b0 and its ancestors.
  const HsTreeNode* b2 = NodeOf(qc.node_hash);
  if (b2 == nullptr || b2->depth == 0) return;

  // Locking (two-chain): lock b1. Unlike the decide rule below, locking
  // must NOT require direct-parent links (Yin et al., Algorithm 4): a
  // replica locks whenever it sees a two-chain, even across view gaps.
  // Requiring parent links here leaves replicas under-locked after
  // timeouts, and under-locked replicas vote for sibling branches that
  // can then assemble conflicting decided three-chains.
  const HsTreeNode* b1 = NodeOf(b2->justify.node_hash);
  if (b1 != nullptr && b2->justify.view > locked_qc_.view) {
    locked_qc_ = b2->justify;
  }
  if (b1 == nullptr || b1->depth == 0) return;
  const HsTreeNode* b0 = NodeOf(b1->justify.node_hash);
  if (b0 == nullptr) return;
  // Decide rule: the justify chain b2→b1→b0 must follow direct parent
  // links (the views may have gaps — parent links are what matter).
  if (b2->parent != b1->hash || b1->parent != b0->hash) return;
  if (b0->depth == 0 || b0->depth <= committed_depth_) return;

  // Commit b0 and every uncommitted ancestor, shallowest first.
  std::vector<const HsTreeNode*> to_commit;
  const HsTreeNode* cur = b0;
  while (cur != nullptr && cur->depth > committed_depth_) {
    to_commit.push_back(cur);
    cur = NodeOf(cur->parent);
  }
  for (auto it = to_commit.rbegin(); it != to_commit.rend(); ++it) {
    DeliverCommitted((*it)->depth, (*it)->batch);
  }
  committed_depth_ = b0->depth;
  last_committed_ = b0->hash;
}

}  // namespace pbc::consensus
