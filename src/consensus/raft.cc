#include "consensus/raft.h"

#include <algorithm>

namespace pbc::consensus {

RaftReplica::RaftReplica(sim::NodeId id, sim::Network* net,
                         ClusterConfig config, crypto::PrivateKey key,
                         const crypto::KeyRegistry* registry)
    : Replica(id, net, std::move(config), std::move(key), registry) {}

void RaftReplica::OnStart() { ResetElectionTimer(); }

void RaftReplica::ResetElectionTimer() {
  // Randomized timeout in [T, 2T) — the classic split-vote breaker.
  // NextU64 tolerates timeout_us == 0 (degenerate immediate-timeout
  // configs used in tests) by returning 0.
  sim::Time t = cfg_.timeout_us +
                network()->simulator()->rng()->NextU64(cfg_.timeout_us);
  ArmTimer(&election_epoch_, t, [this] { OnElectionTimeout(); });
}

void RaftReplica::OnElectionTimeout() {
  if (role_ == Role::kLeader) return;
  role_ = Role::kCandidate;
  ++term_;
  CountViewChange("raft.elections", "raft-election", term_);
  voted_for_ = id();
  votes_ = {id()};
  auto rv = std::make_shared<RaftRequestVote>();
  rv->term = term_;
  rv->last_log_index = LastLogIndex();
  rv->last_log_term = LastLogTerm();
  for (sim::NodeId peer : cfg_.replicas) {
    if (peer != id()) Send(peer, rv);
  }
  ResetElectionTimer();
}

void RaftReplica::StepDown(uint64_t term) {
  bool was_leader = role_ == Role::kLeader;
  if (term > term_) {
    term_ = term;
    voted_for_ = kNoVote;
  }
  role_ = Role::kFollower;
  votes_.clear();
  if (was_leader) ++heartbeat_epoch_;  // cancel heartbeats
  ResetElectionTimer();
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  next_index_.assign(cfg_.n(), LastLogIndex() + 1);
  match_index_.assign(cfg_.n(), 0);
  match_index_[cfg_.IndexOf(id())] = LastLogIndex();
  ++election_epoch_;  // suppress election timeouts while leading
  // Commit-barrier no-op: lets entries from previous terms commit.
  log_.push_back(RaftEntry{term_, Batch{}});
  match_index_[cfg_.IndexOf(id())] = LastLogIndex();
  HeartbeatTick();
}

void RaftReplica::HeartbeatTick() {
  if (role_ != Role::kLeader) return;

  // Batch pending client transactions into a new log entry.
  if (pool_size() > 0) {
    Batch batch = TakeBatch();
    if (!batch.empty()) {
      log_.push_back(RaftEntry{term_, std::move(batch)});
      match_index_[cfg_.IndexOf(id())] = LastLogIndex();
    }
  }
  for (size_t i = 0; i < cfg_.n(); ++i) {
    if (cfg_.replicas[i] != id()) SendAppendTo(i);
  }
  AdvanceCommitIndex();

  ArmTimer(&heartbeat_epoch_, cfg_.timeout_us / 5, [this] { HeartbeatTick(); });
}

void RaftReplica::SendAppendTo(size_t peer_index) {
  auto ae = std::make_shared<RaftAppendEntries>();
  ae->term = term_;
  uint64_t next = next_index_[peer_index];
  ae->prev_log_index = next - 1;
  ae->prev_log_term = TermAt(next - 1);
  for (uint64_t idx = next; idx <= LastLogIndex(); ++idx) {
    ae->entries.push_back(log_[idx - 1]);
  }
  ae->leader_commit = commit_index_;
  Send(cfg_.replicas[peer_index], ae);
}

void RaftReplica::OnProtocolMessage(sim::NodeId from,
                                    const sim::MessagePtr& msg) {
  if (const auto* rv = sim::As<RaftRequestVote>(*msg)) {
    HandleRequestVote(from, *rv);
  } else if (const auto* vr = sim::As<RaftVoteReply>(*msg)) {
    HandleVoteReply(from, *vr);
  } else if (const auto* ae = sim::As<RaftAppendEntries>(*msg)) {
    HandleAppendEntries(from, *ae);
  } else if (const auto* ar = sim::As<RaftAppendReply>(*msg)) {
    HandleAppendReply(from, *ar);
  }
}

void RaftReplica::HandleRequestVote(sim::NodeId from,
                                    const RaftRequestVote& m) {
  if (m.term > term_) StepDown(m.term);
  auto reply = std::make_shared<RaftVoteReply>();
  reply->term = term_;
  bool log_ok = m.last_log_term > LastLogTerm() ||
                (m.last_log_term == LastLogTerm() &&
                 m.last_log_index >= LastLogIndex());
  if (m.term == term_ && log_ok &&
      (voted_for_ == kNoVote || voted_for_ == from)) {
    voted_for_ = from;
    reply->granted = true;
    ResetElectionTimer();
  }
  Send(from, reply);
}

void RaftReplica::HandleVoteReply(sim::NodeId from, const RaftVoteReply& m) {
  if (m.term > term_) {
    StepDown(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  votes_.insert(from);
  if (votes_.size() >= cfg_.MajorityQuorum()) BecomeLeader();
}

void RaftReplica::HandleAppendEntries(sim::NodeId from,
                                      const RaftAppendEntries& m) {
  if (m.term > term_) StepDown(m.term);
  auto reply = std::make_shared<RaftAppendReply>();
  reply->term = term_;
  if (m.term < term_) {
    reply->success = false;
    Send(from, reply);
    return;
  }
  // Valid leader for this term.
  if (role_ != Role::kFollower) StepDown(m.term);
  ResetElectionTimer();

  if (m.prev_log_index > LastLogIndex() ||
      TermAt(m.prev_log_index) != m.prev_log_term) {
    reply->success = false;
    Send(from, reply);
    return;
  }
  // Append / overwrite conflicting suffix.
  uint64_t idx = m.prev_log_index;
  for (const auto& entry : m.entries) {
    ++idx;
    if (idx <= LastLogIndex()) {
      if (TermAt(idx) != entry.term) {
        log_.resize(idx - 1);  // delete conflicting suffix
        log_.push_back(entry);
      }
    } else {
      log_.push_back(entry);
    }
  }
  if (m.leader_commit > commit_index_) {
    commit_index_ = std::min(m.leader_commit, LastLogIndex());
    ApplyCommitted();
  }
  reply->success = true;
  reply->match_index = m.prev_log_index + m.entries.size();
  Send(from, reply);
}

void RaftReplica::HandleAppendReply(sim::NodeId from,
                                    const RaftAppendReply& m) {
  if (m.term > term_) {
    StepDown(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  size_t peer = cfg_.IndexOf(from);
  if (peer >= cfg_.n()) return;
  if (m.success) {
    match_index_[peer] = std::max(match_index_[peer], m.match_index);
    next_index_[peer] = match_index_[peer] + 1;
    AdvanceCommitIndex();
  } else {
    // Conflict: back off and retry immediately.
    if (next_index_[peer] > 1) --next_index_[peer];
    SendAppendTo(peer);
  }
}

void RaftReplica::AdvanceCommitIndex() {
  if (role_ != Role::kLeader) return;
  for (uint64_t n = LastLogIndex(); n > commit_index_; --n) {
    if (TermAt(n) != term_) break;  // only commit current-term entries
    size_t count = 0;
    for (uint64_t mi : match_index_) {
      if (mi >= n) ++count;
    }
    if (count >= cfg_.MajorityQuorum()) {
      commit_index_ = n;
      ApplyCommitted();
      break;
    }
  }
}

void RaftReplica::ApplyCommitted() {
  while (applied_index_ < commit_index_) {
    ++applied_index_;
    DeliverCommitted(applied_index_, log_[applied_index_ - 1].batch);
  }
}

}  // namespace pbc::consensus
