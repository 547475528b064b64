// Raft (Ongaro & Ousterhout, ATC'14) — the crash-fault-tolerant ordering
// protocol used by Hyperledger Fabric's ordering service and by Quorum
// (§2.3.2, §2.3.3 of the survey).
//
// Implemented: randomized-timeout leader election, log replication with
// conflict repair (nextIndex backtracking), the leader-only commit rule for
// current-term entries, and a no-op entry on election win so previous-term
// entries commit promptly. Messages are unsigned: Raft assumes crash (not
// Byzantine) failures, which is exactly the trust model the survey assigns
// it.
#ifndef PBC_CONSENSUS_RAFT_H_
#define PBC_CONSENSUS_RAFT_H_

#include <map>
#include <set>

#include "consensus/replica.h"

namespace pbc::consensus {

struct RaftEntry {
  uint64_t term = 0;
  Batch batch;
};

struct RaftRequestVote : sim::Typed<RaftRequestVote> {
  uint64_t term = 0;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  static constexpr char kType[] = "raft-reqvote";
};

struct RaftVoteReply : sim::Typed<RaftVoteReply> {
  uint64_t term = 0;
  bool granted = false;
  static constexpr char kType[] = "raft-votereply";
};

struct RaftAppendEntries : sim::Typed<RaftAppendEntries> {
  uint64_t term = 0;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  std::vector<RaftEntry> entries;
  uint64_t leader_commit = 0;
  static constexpr char kType[] = "raft-append";
  size_t ByteSize() const override {
    size_t bytes = 96;
    for (const auto& e : entries) bytes += 32 + e.batch.WireBytes();
    return bytes;
  }
};

struct RaftAppendReply : sim::Typed<RaftAppendReply> {
  uint64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;  ///< on success, highest replicated index
  static constexpr char kType[] = "raft-appendreply";
};

/// \brief A Raft replica ordering transaction batches.
class RaftReplica : public Replica {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  RaftReplica(sim::NodeId id, sim::Network* net, ClusterConfig config,
              crypto::PrivateKey key, const crypto::KeyRegistry* registry);

  void OnStart() override;

  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t log_size() const { return log_.size(); }

  /// Raft followers do not track the leader's identity (AppendEntries
  /// carries no leader id here), so only the leader itself reports
  /// leadership — an observer aggregates across replicas.
  ReplicaStatus Status() const override {
    ReplicaStatus status;
    status.commit_index = commit_index_;
    status.view = term_;
    status.is_leader = IsLeader();
    if (status.is_leader) {
      status.knows_leader = true;
      status.leader_index = cfg_.IndexOf(id());
    }
    return status;
  }

 private:
  void OnProtocolMessage(sim::NodeId from,
                         const sim::MessagePtr& msg) override;
  void ResetElectionTimer();
  void OnElectionTimeout();
  void BecomeLeader();
  void StepDown(uint64_t term);
  void HeartbeatTick();
  void SendAppendTo(size_t peer_index);
  void AdvanceCommitIndex();
  void ApplyCommitted();

  void HandleRequestVote(sim::NodeId from, const RaftRequestVote& m);
  void HandleVoteReply(sim::NodeId from, const RaftVoteReply& m);
  void HandleAppendEntries(sim::NodeId from, const RaftAppendEntries& m);
  void HandleAppendReply(sim::NodeId from, const RaftAppendReply& m);

  uint64_t LastLogIndex() const { return log_.size(); }
  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }
  uint64_t TermAt(uint64_t index) const {
    return index == 0 || index > log_.size() ? 0 : log_[index - 1].term;
  }

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  sim::NodeId voted_for_ = kNoVote;
  std::vector<RaftEntry> log_;  // log_[i] is index i+1
  uint64_t commit_index_ = 0;
  uint64_t applied_index_ = 0;

  std::set<sim::NodeId> votes_;
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;

  uint64_t election_epoch_ = 0;
  uint64_t heartbeat_epoch_ = 0;

  static constexpr sim::NodeId kNoVote = 0xffffffff;
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_RAFT_H_
