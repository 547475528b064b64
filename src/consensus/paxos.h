// Multi-Paxos (Lamport, "Paxos Made Simple") — the other CFT ordering
// protocol the survey names for permissioned blockchains (§2.2:
// "asynchronous fault-tolerant protocols, e.g., Paxos or PBFT").
//
// Implemented as classic Multi-Paxos with a stable distinguished proposer:
// Phase 1 (prepare/promise) runs once per leadership term over the whole
// log ("multi" optimization); Phase 2 (accept/accepted) runs per slot.
// Leadership is acquired by whoever times out first with a higher ballot;
// promises carry previously-accepted values so a new leader re-proposes
// them (the safety core of Paxos). Learners are the acceptors themselves:
// a value is chosen when a majority accepts it, and the leader broadcasts
// a commit notice for cheap learning.
//
// Differences from Raft worth teaching: no log-matching invariant —
// every slot is decided independently, so holes are filled with no-ops on
// leader change; ballots play the role of terms.
#ifndef PBC_CONSENSUS_PAXOS_H_
#define PBC_CONSENSUS_PAXOS_H_

#include <map>
#include <set>

#include "consensus/replica.h"

namespace pbc::consensus {

/// Ballot number: (round << 16) | proposer-index, totally ordered.
using Ballot = uint64_t;

struct PaxosPrepare : sim::Typed<PaxosPrepare> {
  Ballot ballot = 0;
  uint64_t first_slot = 1;  ///< prepare covers [first_slot, ∞)
  static constexpr char kType[] = "paxos-prepare";
};

struct PaxosPromise : sim::Typed<PaxosPromise> {
  Ballot ballot = 0;
  /// Previously accepted (ballot, value) per slot ≥ first_slot.
  struct Accepted {
    uint64_t slot;
    Ballot ballot;
    Batch value;
  };
  std::vector<Accepted> accepted;
  uint64_t last_committed = 0;
  static constexpr char kType[] = "paxos-promise";
  size_t ByteSize() const override {
    size_t bytes = 64;
    for (const auto& a : accepted) bytes += 32 + a.value.WireBytes();
    return bytes;
  }
};

struct PaxosAccept : sim::Typed<PaxosAccept> {
  Ballot ballot = 0;
  uint64_t slot = 0;
  Batch value;
  static constexpr char kType[] = "paxos-accept";
  size_t ByteSize() const override { return 80 + value.WireBytes(); }
};

struct PaxosAccepted : sim::Typed<PaxosAccepted> {
  Ballot ballot = 0;
  uint64_t slot = 0;
  static constexpr char kType[] = "paxos-accepted";
};

struct PaxosCommit : sim::Typed<PaxosCommit> {
  uint64_t slot = 0;
  Batch value;
  static constexpr char kType[] = "paxos-commit";
  size_t ByteSize() const override { return 72 + value.WireBytes(); }
};

/// \brief A Multi-Paxos replica (proposer + acceptor + learner in one).
class PaxosReplica : public Replica {
 public:
  PaxosReplica(sim::NodeId id, sim::Network* net, ClusterConfig config,
               crypto::PrivateKey key, const crypto::KeyRegistry* registry);

  void OnStart() override;

  bool IsLeader() const { return leading_; }
  Ballot ballot() const { return my_ballot_; }

  /// Like Raft: only the distinguished proposer self-reports leadership.
  ReplicaStatus Status() const override {
    ReplicaStatus status;
    status.commit_index = last_delivered_seq();
    status.view = my_ballot_ >> 16;  // ballot round; low bits are the index
    status.is_leader = leading_;
    if (leading_) {
      status.knows_leader = true;
      status.leader_index = cfg_.IndexOf(id());
    }
    return status;
  }

 private:
  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override;
  // Proposer.
  void TryBecomeLeader();
  void HandlePromise(sim::NodeId from, const PaxosPromise& m);
  void ProposePending();
  /// Block mode: re-poll TakeBatch until the cut rules fire.
  void SchedulePendingPropose();
  void HandleAccepted(sim::NodeId from, const PaxosAccepted& m);
  // Acceptor.
  void HandlePrepare(sim::NodeId from, const PaxosPrepare& m);
  void HandleAccept(sim::NodeId from, const PaxosAccept& m);
  // Learner.
  void HandleCommit(sim::NodeId from, const PaxosCommit& m);
  void ArmLivenessTimer();

  Ballot MakeBallot(uint64_t round) const {
    return (round << 16) | cfg_.IndexOf(id());
  }

  // Acceptor state.
  Ballot promised_ = 0;
  struct SlotState {
    Ballot accepted_ballot = 0;
    Batch accepted_value;
    bool has_value = false;
  };
  std::map<uint64_t, SlotState> acceptor_log_;

  // Proposer state.
  bool leading_ = false;
  Ballot my_ballot_ = 0;
  uint64_t round_ = 0;
  std::map<sim::NodeId, PaxosPromise> promises_;
  std::map<uint64_t, std::set<sim::NodeId>> accept_votes_;
  std::map<uint64_t, Batch> proposing_;  ///< in-flight slot → value
  uint64_t next_slot_ = 1;

  // Learner state.
  uint64_t last_learned_ = 0;

  uint64_t timer_epoch_ = 0;
  bool propose_poll_armed_ = false;
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_PAXOS_H_
