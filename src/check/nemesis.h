// Nemesis: randomized fault schedules generated from a seed.
//
// A `NemesisSchedule` is an explicit, replayable list of fault-injection
// events (crash/recover, partition/heal, asymmetric link delays, Byzantine
// mode assignment) layered on the sim::Network fault API. Generation is a
// pure function of (profile, topology, horizon, seed) and never touches
// the simulator's RNG, so the same schedule can be re-applied — whole or
// shrunk to a subset of its windows — against a fresh deterministic run.
//
// Events come in *windows* (crash→recover, partition→heal, delay→clear;
// a Byzantine assignment is a single-event window). Windows are the unit
// of shrinking: removing a window removes both endpoints, so a shrunk
// schedule is always well-formed.
#ifndef PBC_CHECK_NEMESIS_H_
#define PBC_CHECK_NEMESIS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "consensus/types.h"
#include "obs/json.h"
#include "sim/network.h"

namespace pbc::check {

/// \brief One row of an enum's name table: a value and its stable wire name.
template <typename E>
struct Named {
  E value;
  const char* name;
};

/// \brief An enum's name table, specialized next to each named enum:
/// `rows` lists every value once, in declaration order. NameOf and FromName
/// are the one lookup over it, in each direction.
template <typename E>
struct NameTable;

template <typename E>
const char* NameOf(E value) {
  for (const Named<E>& row : NameTable<E>::rows) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// False on a name the table lacks.
template <typename E>
bool FromName(std::string_view name, E* out) {
  for (const Named<E>& row : NameTable<E>::rows) {
    if (name == row.name) {
      *out = row.value;
      return true;
    }
  }
  return false;
}

template <>
struct NameTable<consensus::ByzantineMode> {
  static constexpr Named<consensus::ByzantineMode> rows[] = {
      {consensus::ByzantineMode::kHonest, "honest"},
      {consensus::ByzantineMode::kSilent, "silent"},
      {consensus::ByzantineMode::kEquivocate, "equivocate"},
      {consensus::ByzantineMode::kVoteBoth, "vote-both"},
  };
};

/// \brief Which fault classes a schedule may draw from.
struct NemesisProfile {
  bool crash = false;      ///< crash-stop + later recovery
  bool partition = false;  ///< network split + later heal
  bool delay = false;      ///< asymmetric link slowdown windows
  bool byzantine = false;  ///< one Byzantine replica (BFT protocols only)
  bool torn_write = false;  ///< crash with a torn disk write (durable only)
  bool lost_flush = false;  ///< lying-disk window: fsyncs ack'd, dropped

  /// Parses "crash,partition,delay,byzantine,torn-write,lost-flush" (any
  /// subset, any order); "none" yields an empty profile. Unknown tokens
  /// and "" fail. torn-write / lost-flush require a durable run — the
  /// harness rejects them without `RunConfig::durable`.
  static bool Parse(const std::string& csv, NemesisProfile* out);
  /// The canonical CSV: tokens in the order above, or "none".
  std::string ToString() const;
  bool operator==(const NemesisProfile&) const = default;
};

enum class NemesisKind {
  kCrash,
  kRecover,
  kPartition,
  kHeal,
  kDelay,       ///< directional latency override on one link
  kClearDelay,  ///< restore the default latency on that link
  kByzantine,   ///< set a replica's Byzantine mode (t=0 applies pre-Start)
  kClockSkew,   ///< per-node timer-rate multiplier/offset (sim clock shim)
  kTornWrite,   ///< crash whose power cut tears the node's unsynced bytes
  kLostFlush,   ///< start a lying-disk window: fsyncs ack'd but dropped
  kRestoreFlush,  ///< end the lying-disk window (fsyncs honest again)
};

template <>
struct NameTable<NemesisKind> {
  static constexpr Named<NemesisKind> rows[] = {
      {NemesisKind::kCrash, "crash"},
      {NemesisKind::kRecover, "recover"},
      {NemesisKind::kPartition, "partition"},
      {NemesisKind::kHeal, "heal"},
      {NemesisKind::kDelay, "delay"},
      {NemesisKind::kClearDelay, "clear-delay"},
      {NemesisKind::kByzantine, "byzantine"},
      {NemesisKind::kClockSkew, "clock-skew"},
      {NemesisKind::kTornWrite, "torn-write"},
      {NemesisKind::kLostFlush, "lost-flush"},
      {NemesisKind::kRestoreFlush, "restore-flush"},
  };
};

/// \brief One fault-injection event.
struct NemesisEvent {
  sim::Time at = 0;
  NemesisKind kind = NemesisKind::kCrash;
  uint64_t window = 0;  ///< shrink unit: events sharing a window id

  sim::NodeId node = 0;                            // crash / recover
  std::vector<std::vector<sim::NodeId>> groups;    // partition
  sim::NodeId from = 0, to = 0;                    // delay link
  sim::LinkLatency latency;                        // delay value
  size_t replica_index = 0;                        // byzantine target
  consensus::ByzantineMode mode = consensus::ByzantineMode::kHonest;
  int64_t skew_ppm = 0;                            // clock-skew rate
  sim::Time skew_offset_us = 0;                    // clock-skew lag
  uint64_t tear_ppm = 0;                           // torn-write leak bound

  /// The one walk over the kind's fields: "at_us", "kind", "window", then
  /// the fields the kind uses.
  obs::Json ToJson() const;
  /// ToJson's fields as one line of `key=value` pairs.
  std::string Describe() const;
};

/// \brief One fault window's two events, `down` at `start` and the event
/// that ends it at `end`, under window id `window`. The end event is
/// `down` with its kind swapped (crash or torn-write → recover, partition →
/// heal, delay → clear-delay, lost-flush → restore-flush), so it names the
/// same target. Every two-event window is built here.
std::pair<NemesisEvent, NemesisEvent> FaultWindow(NemesisEvent down,
                                                  uint64_t window,
                                                  sim::Time start,
                                                  sim::Time end);

/// \brief The one code path from a NemesisEvent to the system under test.
/// Generated schedules, shrink replays and the adaptive adversary's live
/// faults all pass through it, so a replayed trace makes exactly the calls
/// the live run made.
struct FaultApplier {
  sim::Network* net = nullptr;
  /// Sets a replica's Byzantine mode (kByzantine). Null when the system
  /// hosts no Byzantine replicas; the events are then dropped.
  std::function<void(const NemesisEvent&)> set_byzantine;
  /// Receives the durable-storage fault events: kTornWrite (arm the
  /// filesystem tear, called right before the crash so the power cut sees
  /// it) and kLostFlush / kRestoreFlush (toggle the lying-disk window).
  /// Null for non-durable runs: a torn write is then a plain crash and
  /// the flush kinds are dropped.
  std::function<void(const NemesisEvent&)> on_durable;

  /// Applies `ev` now.
  void operator()(const NemesisEvent& ev) const;
};

/// \brief Fault-budget topology of the system under test.
struct NemesisTopology {
  /// One group per consensus cluster: at most `max_faulty` of its nodes
  /// may be crashed/Byzantine at a time (the cluster's f).
  struct Group {
    std::vector<sim::NodeId> nodes;
    uint32_t max_faulty = 1;
  };
  std::vector<Group> groups;

  /// Every node in the system (partitions must cover all of them — nodes
  /// left out of all partition groups would be isolated).
  std::vector<sim::NodeId> all_nodes;

  /// Nodes that must never crash (single-point gateways in the shard
  /// model; they stand for whole clusters, not individual machines).
  std::vector<sim::NodeId> never_crash;
  bool NeverCrashes(sim::NodeId id) const {
    return std::find(never_crash.begin(), never_crash.end(), id) !=
           never_crash.end();
  }

  /// When true, partitions may split `all_nodes` arbitrarily. When false
  /// (sharded systems), partitions only split one cluster's replicas:
  /// cross-gateway protocol messages have no retransmission layer, so an
  /// arbitrary split would lose them forever and turn a liveness gap into
  /// a false safety alarm (see DESIGN.md §8).
  bool partition_whole_network = true;

  /// Whether replicas accept set_byzantine_mode (BFT protocols).
  bool supports_byzantine = false;
};

/// \brief A replayable fault schedule.
class NemesisSchedule {
 public:
  /// Generates a schedule from the seed. All injected faults begin before
  /// `0.55 * horizon` and end by `0.7 * horizon`, leaving a fault-free
  /// tail so liveness is achievable in correct systems.
  static NemesisSchedule Generate(const NemesisProfile& profile,
                                  const NemesisTopology& topology,
                                  sim::Time horizon, uint64_t seed);

  const std::vector<NemesisEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Window ids present, ascending.
  std::vector<uint64_t> WindowIds() const;

  /// The schedule restricted to the given windows (shrinking).
  NemesisSchedule Filtered(const std::vector<uint64_t>& windows) const;

  /// Schedules `applier` on `sim` for every event at its `at`. kByzantine
  /// and kClockSkew events at t=0 are start-of-run assignments: they are
  /// applied now, before Network::Start. An event whose hook is null in
  /// `applier` is dropped unscheduled. `applier` must outlive the run.
  void Apply(sim::Simulator* sim, const FaultApplier* applier) const;

  obs::Json ToJson() const;
  std::string Describe() const;

  /// The schedule of `events`, sorted by time (stable: events at equal
  /// times keep their order).
  static NemesisSchedule FromEvents(std::vector<NemesisEvent> events);

  /// The union of two schedules, sorted by time (`a`'s events precede
  /// `b`'s at equal timestamps). Window ids must already be
  /// disjoint — callers keep them so (the clock-skew overlay uses window
  /// 0; generators and the adaptive adversary allocate from 1).
  static NemesisSchedule Merged(const NemesisSchedule& a,
                                const NemesisSchedule& b);

 private:
  std::vector<NemesisEvent> events_;  // ordered by `at`
};

/// \brief Batch probe for one ddmin round: decides which of `candidates`
/// is the first (lowest-index) that still reproduces the failure.
///
/// Returns that index, or SIZE_MAX if none of the first
/// min(candidates.size(), max_probes) candidates reproduces. Sets
/// *probes_charged to the number of probes a serial left-to-right scan
/// would consume: first_index + 1 on success, else the number evaluated.
/// Implementations may probe later candidates speculatively/concurrently
/// (the parallel sweep engine does), but must return the *lowest*
/// reproducing index and charge serially — that keeps the shrunk windows
/// and replay counts in sweep reports byte-identical however many worker
/// threads executed the probes.
using ShrinkBatchProbe = std::function<size_t(
    const std::vector<std::vector<uint64_t>>& candidates, size_t max_probes,
    size_t* probes_charged)>;

/// \brief Adapts a plain reproduces() predicate into a serial batch probe.
ShrinkBatchProbe SerialShrinkProbe(
    std::function<bool(const std::vector<uint64_t>&)> reproduces);

/// \brief ddmin-style shrinking over window ids: returns a (locally)
/// minimal subset of `windows` that still reproduces the failure, charging
/// at most `budget` probes. The round structure (candidate generation,
/// granularity schedule, budget) lives here; `probe` decides how a round's
/// candidates are evaluated and must be deterministic. `replays`
/// (optional) receives the probes charged.
std::vector<uint64_t> ShrinkWindowsBatched(std::vector<uint64_t> windows,
                                           const ShrinkBatchProbe& probe,
                                           size_t budget = 64,
                                           size_t* replays = nullptr);

}  // namespace pbc::check

#endif  // PBC_CHECK_NEMESIS_H_
