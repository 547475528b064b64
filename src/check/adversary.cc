#include "check/adversary.h"

#include <algorithm>
#include <set>
#include <utility>

namespace pbc::check {

ReactiveNemesis::ReactiveNemesis(Options options, sim::Simulator* sim,
                                 const FaultApplier* applier,
                                 GroupObserver observer)
    : options_(std::move(options)),
      sim_(sim),
      apply_(applier),
      observer_(std::move(observer)),
      // Private stream, distinct from the generator's and the simulator's,
      // so adaptive and random modes never share randomness.
      rng_(options_.seed ^ 0x5245414354A5A5ULL),
      state_(options_.topology.groups.size()) {}

void ReactiveNemesis::Arm() {
  sim_->Schedule(options_.tick_us, [this] { Tick(); });
}

void ReactiveNemesis::Tick() {
  const sim::Time now = sim_->now();
  // Same contract as generated schedules: no fault *starts* after 55% of
  // the horizon (already-scheduled recovers/heals drain by 70%), so a
  // correct system always gets a fault-free tail to prove liveness in.
  if (now >= FaultStartMax()) return;
  for (size_t g = 0; g < options_.topology.groups.size(); ++g) {
    if (now < state_[g].busy_until) continue;
    GroupObservation obs = observer_ ? observer_(g) : GroupObservation{};
    switch (options_.mode) {
      case AdversaryMode::kRandom:
        break;  // not reactive; handled by NemesisSchedule::Generate
      case AdversaryMode::kLeader:
        LeaderTick(g, obs);
        break;
      case AdversaryMode::kQuorum:
        QuorumTick(g, obs);
        break;
      case AdversaryMode::kChurn:
        ChurnTick(g, obs);
        break;
    }
  }
  sim_->Schedule(options_.tick_us, [this] { Tick(); });
}

void ReactiveNemesis::LeaderTick(size_t g, const GroupObservation& obs) {
  const auto& group = options_.topology.groups[g];
  GroupState& st = state_[g];
  if (!obs.has_leader || obs.leader_index >= group.nodes.size()) return;
  const sim::Time now = sim_->now();

  // Phase 1 — crash the current leader once, forcing an election/view
  // change while it is down.
  if (!st.did_initial_crash) {
    st.did_initial_crash = true;  // one attempt, eligible or not
    sim::Time dur =
        options_.horizon / 20 + rng_.NextU64(options_.horizon / 40 + 1);
    sim::Time until = std::min(now + dur, FaultEnd());
    if (InjectCrash(g, group.nodes[obs.leader_index], until)) {
      st.busy_until = until + options_.horizon / 50;
      return;
    }
  }

  // Phase 2 (BFT only) — the leader observed after that forced election
  // is the proposer the cluster just rotated to; flip it to equivocation
  // so the proposer itself forks its proposals. Charged permanently
  // against the group's fault budget.
  if (options_.topology.supports_byzantine && !st.byzantine_used) {
    if (InjectByzantineFlip(g, obs.leader_index)) {
      st.busy_until = now + options_.horizon / 20;
      return;
    }
  }

  // Phase 3 — steady-state pressure: slow the fastest inbound link into
  // whoever currently leads (delays are free; they only reorder).
  sim::Time dur =
      options_.horizon / 20 + rng_.NextU64(options_.horizon / 30 + 1);
  sim::Time until = std::min(now + dur, FaultEnd());
  if (until > now && group.nodes.size() >= 2) {
    InjectLeaderDelay(g, obs.leader_index, until);
    st.busy_until = until;
  }
}

void ReactiveNemesis::QuorumTick(size_t g, const GroupObservation& obs) {
  const auto& group = options_.topology.groups[g];
  GroupState& st = state_[g];
  const sim::Time now = sim_->now();
  if (now < partition_busy_until_) return;
  // Sharded topologies forbid arbitrary splits (see NemesisTopology).
  if (!options_.topology.partition_whole_network) return;
  size_t leader_index =
      obs.has_leader && obs.leader_index < group.nodes.size()
          ? obs.leader_index
          : 0;  // no leader known yet: split around the rotation origin
  sim::Time dur =
      options_.horizon / 15 + rng_.NextU64(options_.horizon / 20 + 1);
  sim::Time until = std::min(now + dur, FaultEnd());
  if (until <= now) return;
  InjectQuorumPartition(g, leader_index, until);
  partition_busy_until_ = until + options_.horizon / 30;
  st.busy_until = partition_busy_until_;
}

void ReactiveNemesis::ChurnTick(size_t g, const GroupObservation& obs) {
  const auto& group = options_.topology.groups[g];
  GroupState& st = state_[g];
  if (!obs.has_leader || obs.leader_index >= group.nodes.size()) return;
  const sim::Time now = sim_->now();
  sim::Time dur =
      options_.horizon / 40 + rng_.NextU64(options_.horizon / 60 + 1);
  sim::Time until = std::min(now + dur, FaultEnd());
  if (until <= now) return;
  sim::NodeId victim = group.nodes[obs.leader_index];
  if (options_.topology.NeverCrashes(victim)) {
    // Protected leader (a gateway): churn the expected successor instead.
    if (!obs.has_next_leader || obs.next_leader_index >= group.nodes.size()) {
      return;
    }
    victim = group.nodes[obs.next_leader_index];
  }
  if (InjectCrash(g, victim, until)) {
    // Short gap, then re-target whoever leads by the next tick: sustained
    // leader churn that follows leadership as it moves.
    st.busy_until = until + options_.horizon / 200;
  }
}

void ReactiveNemesis::InjectWindow(NemesisEvent down, sim::Time until,
                                   std::function<void()> after_end) {
  const sim::Time now = sim_->now();
  auto [start, end] = FaultWindow(std::move(down), next_window_++, now, until);
  (*apply_)(start);
  events_.push_back(std::move(start));
  events_.push_back(end);
  sim_->Schedule(until - now, [this, end = std::move(end),
                               after_end = std::move(after_end)] {
    (*apply_)(end);
    if (after_end) after_end();
  });
}

bool ReactiveNemesis::InjectCrash(size_t g, sim::NodeId victim,
                                  sim::Time until) {
  const auto& group = options_.topology.groups[g];
  GroupState& st = state_[g];
  if (st.active_faults >= group.max_faulty) return false;
  if (!Targetable(victim)) return false;
  if (until <= sim_->now()) return false;
  NemesisEvent crash;
  crash.kind = NemesisKind::kCrash;
  crash.node = victim;
  ++st.active_faults;
  InjectWindow(std::move(crash), until,
               [this, g] { --state_[g].active_faults; });
  return true;
}

void ReactiveNemesis::InjectQuorumPartition(size_t g, size_t leader_index,
                                            sim::Time until) {
  const auto& topo = options_.topology;
  const auto& group = topo.groups[g];
  const size_t n = group.nodes.size();
  if (n < 2) return;
  const uint32_t f = group.max_faulty;
  // BFT (quorum 2f+1 of 3f+1): a leader side of exactly f+1 leaves BOTH
  // sides short of quorum — total stall at the edge. CFT (majority f+1 of
  // 2f+1): strand the leader in a minority of f so the other side elects
  // a rival — the classic stale-leader split.
  size_t leader_side = topo.supports_byzantine ? static_cast<size_t>(f) + 1
                                               : static_cast<size_t>(f);
  leader_side = std::max<size_t>(1, std::min(leader_side, n - 1));
  std::vector<sim::NodeId> side_a;
  side_a.push_back(group.nodes[leader_index]);
  for (size_t i = 1; i < n && side_a.size() < leader_side; ++i) {
    side_a.push_back(group.nodes[(leader_index + i) % n]);
  }
  std::set<sim::NodeId> in_a(side_a.begin(), side_a.end());
  std::vector<sim::NodeId> side_b;
  for (sim::NodeId id : topo.all_nodes) {
    if (in_a.count(id) == 0) side_b.push_back(id);
  }
  if (side_b.empty()) return;
  NemesisEvent cut;
  cut.kind = NemesisKind::kPartition;
  cut.groups = {std::move(side_a), std::move(side_b)};
  InjectWindow(std::move(cut), until);
}

void ReactiveNemesis::InjectLeaderDelay(size_t g, size_t leader_index,
                                        sim::Time until) {
  const auto& group = options_.topology.groups[g];
  sim::NodeId leader = group.nodes[leader_index];
  bool found = false;
  sim::NodeId fastest = 0;
  sim::Time best = 0;
  for (sim::NodeId peer : group.nodes) {  // node order: deterministic ties
    if (peer == leader) continue;
    sim::Time base = apply_->net->EffectiveLatency(peer, leader).base_us;
    if (!found || base < best) {
      found = true;
      best = base;
      fastest = peer;
    }
  }
  if (!found) return;
  NemesisEvent slow;
  slow.kind = NemesisKind::kDelay;
  slow.from = fastest;
  slow.to = leader;
  slow.latency = {15'000 + rng_.NextU64(15'000), 2'000};
  InjectWindow(std::move(slow), until);
}

bool ReactiveNemesis::InjectByzantineFlip(size_t g, size_t replica_index) {
  const auto& group = options_.topology.groups[g];
  GroupState& st = state_[g];
  if (replica_index >= group.nodes.size()) return false;
  if (st.byzantine_used || st.active_faults >= group.max_faulty) return false;
  if (!apply_->set_byzantine) return false;
  sim::NodeId node = group.nodes[replica_index];
  if (!Targetable(node)) return false;
  NemesisEvent ev;
  ev.at = sim_->now();
  ev.kind = NemesisKind::kByzantine;
  ev.window = next_window_++;
  ev.node = node;
  ev.replica_index = replica_index;
  ev.mode = consensus::ByzantineMode::kEquivocate;
  (*apply_)(ev);
  events_.push_back(ev);
  st.byzantine_used = true;
  ++st.active_faults;  // a Byzantine member occupies its slot for good
  return true;
}

}  // namespace pbc::check
