// Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI'99) — the
// baseline BFT ordering protocol of the survey (§2.2, §2.3.3).
//
// Implemented: the normal-case three-phase exchange (pre-prepare / prepare /
// commit) with pipelining inside a sequence window, periodic checkpoints
// with log garbage collection, and view changes carrying prepared
// certificates so a new primary re-proposes in-flight batches. Message
// authenticity uses per-replica keys via the registry (see crypto/auth.h).
//
// Byzantine hooks (ByzantineMode on the base class):
//   kSilent      — replica sends nothing,
//   kEquivocate  — as primary, sends conflicting pre-prepares,
//   kVoteBoth    — prepares/commits every digest it sees.
#ifndef PBC_CONSENSUS_PBFT_H_
#define PBC_CONSENSUS_PBFT_H_

#include <map>
#include <set>

#include "consensus/replica.h"

namespace pbc::consensus {

/// \brief A prepared certificate carried in view-change messages.
struct PreparedProof {
  uint64_t seq = 0;
  uint64_t view = 0;
  crypto::Hash256 digest;
  Batch batch;
};

struct PbftPrePrepare : sim::Typed<PbftPrePrepare> {
  uint64_t view = 0;
  uint64_t seq = 0;
  Batch batch;
  crypto::Hash256 digest;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-preprepare";
  size_t ByteSize() const override { return 96 + batch.WireBytes(); }
};

struct PbftPrepare : sim::Typed<PbftPrepare> {
  uint64_t view = 0;
  uint64_t seq = 0;
  crypto::Hash256 digest;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-prepare";
};

struct PbftCommit : sim::Typed<PbftCommit> {
  uint64_t view = 0;
  uint64_t seq = 0;
  crypto::Hash256 digest;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-commit";
};

struct PbftCheckpoint : sim::Typed<PbftCheckpoint> {
  uint64_t seq = 0;
  crypto::Hash256 state_digest;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-checkpoint";
};

struct PbftViewChange : sim::Typed<PbftViewChange> {
  uint64_t new_view = 0;
  uint64_t last_delivered = 0;
  std::vector<PreparedProof> prepared;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-viewchange";
  size_t ByteSize() const override {
    size_t bytes = 96;
    for (const auto& p : prepared) bytes += 64 + p.batch.WireBytes();
    return bytes;
  }
};

struct PbftNewView : sim::Typed<PbftNewView> {
  uint64_t new_view = 0;
  std::vector<PbftPrePrepare> preprepares;
  crypto::Signature sig;
  static constexpr char kType[] = "pbft-newview";
  size_t ByteSize() const override {
    size_t bytes = 96;
    for (const auto& pp : preprepares) bytes += 32 + pp.ByteSize();
    return bytes;
  }
};

/// \brief A PBFT replica.
class PbftReplica : public Replica {
 public:
  PbftReplica(sim::NodeId id, sim::Network* net, ClusterConfig config,
              crypto::PrivateKey key, const crypto::KeyRegistry* registry);

  void OnStart() override;

  uint64_t view() const { return view_; }
  sim::NodeId PrimaryOf(uint64_t view) const {
    return cfg_.replicas[view % cfg_.n()];
  }
  bool IsPrimary() const { return PrimaryOf(view_) == id(); }
  uint64_t stable_checkpoint() const { return stable_checkpoint_; }
  uint64_t view_changes() const { return view_changes_; }

  ReplicaStatus Status() const override { return RotatingStatus(view_); }

 private:
  struct Slot {
    uint64_t view = 0;
    bool has_preprepare = false;
    Batch batch;
    crypto::Hash256 digest;
    bool prepared = false;
    bool committed = false;
    bool proposed_by_me = false;
  };

  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override;

  // Normal case.
  void ScheduleProposeTick(sim::Time tick);
  void MaybePropose();
  void HandlePrePrepare(sim::NodeId from, const PbftPrePrepare& m);
  void HandlePrepare(sim::NodeId from, const PbftPrepare& m);
  void HandleCommit(sim::NodeId from, const PbftCommit& m);
  void TryPrepare(uint64_t seq);
  void TryCommit(uint64_t seq);
  void SendPrepare(uint64_t seq, const crypto::Hash256& digest);
  void SendCommit(uint64_t seq, const crypto::Hash256& digest);

  // Checkpoints: every replica checkpoints each multiple of
  // checkpoint_interval at exactly that seq, so their digests agree even
  // when out-of-order commits drain several seqs at once.
  void OnDelivered(uint64_t seq) override;
  void HandleCheckpoint(sim::NodeId from, const PbftCheckpoint& m);

  // View change.
  void ArmProgressTimer();
  void OnProgressTimeout();
  void StartViewChange(uint64_t target_view);
  void HandleViewChange(sim::NodeId from, const PbftViewChange& m);
  void HandleNewView(sim::NodeId from, const PbftNewView& m);

  /// Signed digest of a view-change message.
  static crypto::Hash256 ViewChangeDigest(const PbftViewChange& vc);

  bool InWindow(uint64_t seq) const {
    return seq > stable_checkpoint_ && seq <= stable_checkpoint_ + kWindow;
  }

  static constexpr uint64_t kWindow = 256;

  uint64_t view_ = 0;
  uint64_t next_seq_ = 1;  // primary's next assignment
  std::map<uint64_t, Slot> log_;

  // Vote tallies keyed by (seq, digest) so votes arriving before the
  // pre-prepare are not lost and conflicting digests never pool together.
  std::map<uint64_t, std::map<crypto::Hash256, std::set<sim::NodeId>>>
      digest_prepares_;
  std::map<uint64_t, std::map<crypto::Hash256, std::set<sim::NodeId>>>
      digest_commits_;

  // Checkpointing.
  std::map<uint64_t, std::map<crypto::Hash256, std::set<sim::NodeId>>>
      checkpoint_votes_;
  uint64_t stable_checkpoint_ = 0;

  // View change.
  bool in_view_change_ = false;
  uint64_t target_view_ = 0;
  std::map<uint64_t, std::map<sim::NodeId, PbftViewChange>> vc_msgs_;
  std::set<uint64_t> new_view_sent_;
  uint64_t view_changes_ = 0;

  // Progress tracking for the timeout.
  uint64_t delivered_at_last_tick_ = 0;
  uint64_t timer_epoch_ = 0;
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_PBFT_H_
