// Adaptive, state-aware adversary: a nemesis that *reacts*.
//
// The schedule generator in nemesis.h fires faults at pre-scheduled times
// over a fixed topology — good coverage of random badness, but it never
// stresses the quorum edge the way a real attacker (or a correlated
// datacenter failure) does. `ReactiveNemesis` instead observes simulator
// state between events — the current leader of each cluster, its view
// number, commit progress — and chooses its next fault to maximize
// damage: crash the leader the moment it is elected, partition the
// network exactly at the f+1/f quorum edge, slow the fastest link into
// the leader, or Byzantine-flip the proposer the cluster is about to
// elect.
//
// Determinism of observation (the property everything else rides on):
// the adversary runs inside the simulator as ordinary scheduled events at
// fixed tick times, reads only deterministic replica state through a
// read-only observer, and draws all randomness from its own seeded Rng —
// so an adaptive run is still a pure function of (config, seed). Every
// fault it injects is recorded as a `NemesisEvent` (with a window id)
// into a trace and applied through the same `FaultApplier` that replays
// schedules, so a replay makes exactly the calls the live run made.
// `RunResult::schedule` carries that trace, and shrinking replays
// *subsets of the trace statically* via RunWithSchedule — the adversary
// does not re-run during replays, which keeps ddmin sound and sweep
// reports byte-identical across `--jobs N`. See DESIGN.md §12.
#ifndef PBC_CHECK_ADVERSARY_H_
#define PBC_CHECK_ADVERSARY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "check/nemesis.h"
#include "common/rng.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pbc::check {

/// \brief Adversary strategies (`check_runner --adversary`).
enum class AdversaryMode {
  kRandom,  ///< pre-generated seeded schedule (NemesisSchedule::Generate)
  kLeader,  ///< crash, delay and Byzantine-flip whoever leads
  kQuorum,  ///< partition exactly at the quorum edge (f+1 / rest)
  kChurn,   ///< sustained short crash windows that follow leadership
};

template <>
struct NameTable<AdversaryMode> {
  static constexpr Named<AdversaryMode> rows[] = {
      {AdversaryMode::kRandom, "random"},
      {AdversaryMode::kLeader, "leader"},
      {AdversaryMode::kQuorum, "quorum"},
      {AdversaryMode::kChurn, "churn"},
  };
};

/// \brief What the adversary may see of one consensus group between
/// events. Pure observation aggregated across live replicas; never fed
/// back into protocol logic.
struct GroupObservation {
  bool has_leader = false;
  size_t leader_index = 0;       ///< index into the group's node list
  bool has_next_leader = false;
  size_t next_leader_index = 0;  ///< proposer after one view change
  uint64_t view = 0;             ///< highest view/term/round observed
  uint64_t commit_index = 0;     ///< max in-order commit across replicas
};

/// Reads the observation for topology group `g`.
using GroupObserver = std::function<GroupObservation(size_t group)>;

/// \brief The adaptive adversary. One instance drives one run: Arm() it
/// before Network::Start(), then read Trace() after the run for the
/// replayable fault schedule it actually executed.
class ReactiveNemesis {
 public:
  struct Options {
    AdversaryMode mode = AdversaryMode::kLeader;
    NemesisTopology topology;
    sim::Time horizon = 0;             ///< run horizon; faults end by 70%
    uint64_t seed = 0;                 ///< adversary's private Rng stream
    sim::Time tick_us = 500'000;       ///< observation cadence
  };

  /// Faults go through `applier`, which must outlive the run; a null
  /// `set_byzantine` hook there means no replica is ever flipped.
  ReactiveNemesis(Options options, sim::Simulator* sim,
                  const FaultApplier* applier, GroupObserver observer);

  /// Schedules the first observation tick. Faults never start after
  /// 0.55 * horizon and all end by 0.7 * horizon — the same fault-free
  /// tail contract as generated schedules, so liveness stays achievable.
  void Arm();

  /// The faults injected so far, as a well-formed replayable schedule
  /// (every crash paired with its recover, etc.), sorted by time.
  NemesisSchedule Trace() const {
    return NemesisSchedule::FromEvents(events_);
  }

  /// Instantaneous fault count charged against group `g`'s budget
  /// (crashed-now plus permanently-Byzantine). Exposed for tests.
  uint32_t active_faults(size_t g) const { return state_[g].active_faults; }

 private:
  struct GroupState {
    uint32_t active_faults = 0;  ///< crashed-now + Byzantine members
    bool byzantine_used = false;
    bool did_initial_crash = false;  ///< leader mode: crash before flip
    sim::Time busy_until = 0;        ///< cooldown before the next action
  };

  void Tick();
  void LeaderTick(size_t g, const GroupObservation& obs);
  void QuorumTick(size_t g, const GroupObservation& obs);
  void ChurnTick(size_t g, const GroupObservation& obs);

  /// Records the window `down` opens now and closes at `until`, applies
  /// `down` now and its end event at `until`, then runs `after_end`.
  void InjectWindow(NemesisEvent down, sim::Time until,
                    std::function<void()> after_end = nullptr);
  /// Crash `victim` now, recover at `until`; keeps the group's budget
  /// accounting. No-op (returns false) if the victim is protected,
  /// already crashed, or the budget is exhausted.
  bool InjectCrash(size_t g, sim::NodeId victim, sim::Time until);
  /// Splits all_nodes into {leader side} / {rest} at the quorum edge.
  void InjectQuorumPartition(size_t g, size_t leader_index, sim::Time until);
  /// Slows the fastest inbound link into the leader until `until`.
  void InjectLeaderDelay(size_t g, size_t leader_index, sim::Time until);
  /// Permanently flips one replica to equivocation; charges the budget.
  bool InjectByzantineFlip(size_t g, size_t replica_index);

  /// Neither protected nor crashed now.
  bool Targetable(sim::NodeId id) const {
    return !options_.topology.NeverCrashes(id) && !apply_->net->IsCrashed(id);
  }
  sim::Time FaultStartMax() const { return options_.horizon * 55 / 100; }
  sim::Time FaultEnd() const { return options_.horizon * 70 / 100; }

  Options options_;
  sim::Simulator* sim_;
  const FaultApplier* apply_;
  GroupObserver observer_;
  Rng rng_;
  std::vector<GroupState> state_;
  /// Partitions are global network state: one window at a time.
  sim::Time partition_busy_until_ = 0;
  uint64_t next_window_ = 1;  // 0 is reserved for the clock-skew overlay
  std::vector<NemesisEvent> events_;
};

}  // namespace pbc::check

#endif  // PBC_CHECK_ADVERSARY_H_
