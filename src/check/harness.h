// Harness: builds a (protocol, cluster size, nemesis, seed) world, runs it
// deterministically, and evaluates the invariant checkers against it.
//
// A run is a pure function of `RunConfig` (+ an optional explicit
// schedule): same inputs, same `RunResult` — which is what makes the
// `(config, seed)` repro lines in sweep reports replayable and schedule
// shrinking sound.
#ifndef PBC_CHECK_HARNESS_H_
#define PBC_CHECK_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/adversary.h"
#include "check/invariants.h"
#include "check/nemesis.h"
#include "obs/json.h"

namespace pbc::check {

/// \brief The protocols RunOne runs.
enum class Protocol {
  kPbft,
  kRaft,
  kHotStuff,
  kTendermint,
  kPaxos,
  kSharper,
  kAhl,
};

template <>
struct NameTable<Protocol> {
  static constexpr Named<Protocol> rows[] = {
      {Protocol::kPbft, "pbft"},
      {Protocol::kRaft, "raft"},
      {Protocol::kHotStuff, "hotstuff"},
      {Protocol::kTendermint, "tendermint"},
      {Protocol::kPaxos, "paxos"},
      {Protocol::kSharper, "sharper"},
      {Protocol::kAhl, "ahl"},
  };
};

/// \brief Everything that determines a run. Every field is a parsed value:
/// text is read only by the run-flag table (see RunFlags()).
struct RunConfig {
  Protocol protocol = Protocol::kPbft;
  /// Replicas per consensus cluster (per shard for sharded protocols).
  size_t cluster_size = 4;
  /// Number of shards (sharded protocols only).
  uint32_t num_shards = 2;
  /// Fault classes the generated schedule draws from.
  NemesisProfile nemesis{.crash = true};
  uint64_t seed = 0;
  /// Client transactions submitted, paced over the first half of the run.
  size_t txns = 40;
  /// TEST-ONLY mutation: ClusterConfig::quorum_slack_for_test, which
  /// lowers BftQuorum/MajorityQuorum. The sweeps must catch > 0.
  uint32_t quorum_slack = 0;
  /// > 0 enables the consensus block pipeline (ClusterConfig::block) with
  /// this size cut; 0 keeps the seed's inline-batch path.
  size_t block_max_txns = 0;
  /// kRandom replays the schedule generated from `nemesis`; the other
  /// modes run the state-aware ReactiveNemesis (see check/adversary.h),
  /// which *replaces* the generated schedule (the `nemesis` profile is
  /// ignored). Consensus protocols only; sharded runs reject them.
  AdversaryMode adversary = AdversaryMode::kRandom;
  /// Per-node clock-skew rate in ppm, alternated ±ppm across nodes (even
  /// indices run fast, odd run slow); 0 = no skew. Composes with any
  /// nemesis or adversary mode.
  int64_t clock_skew_ppm = 0;
  /// Attach a per-replica durable ledger (block log + snapshots) over a
  /// deterministic sim::Fs, plus the crash-recovery invariant checkers
  /// (see check/durable.h). Consensus protocols only; required for the
  /// torn-write / lost-flush nemesis kinds. Composes with block mode,
  /// adversaries and clock skew.
  bool durable = false;
  /// TEST-ONLY mutation: off-by-one torn-tail truncation in recovery (see
  /// BlockLog::RecoverAndTruncate). The durable sweeps must catch it.
  bool mutate_recovery = false;

  /// A command line that replays exactly this run (see RunFlags()).
  std::string ReproLine() const;
  obs::Json ToJson() const;
  bool operator==(const RunConfig&) const = default;
};

/// \brief Outcome of one deterministic run.
struct RunResult {
  /// Workload completed (every expected commit/decision observed) before
  /// the horizon. A liveness indicator, reported but — unlike safety
  /// violations — tolerated under fault schedules.
  bool live = false;
  /// Transactions the most advanced replica committed (consensus) or
  /// client decisions received (sharded).
  uint64_t committed = 0;
  /// Transactions the LEAST advanced replica committed (consensus runs;
  /// 0 for sharded). `committed_min < committed` after the drain exposes
  /// laggards — e.g. PBFT's missing state transfer under leader churn.
  /// Not serialized into sweep reports (it is derived state, and keeping
  /// it out preserves historical report byte-compatibility).
  uint64_t committed_min = 0;
  std::vector<Violation> violations;
  /// Invariant name → number of checker invocations.
  std::map<std::string, uint64_t> coverage;
  uint64_t sim_events = 0;
  sim::Time sim_end_us = 0;
  /// The schedule the run executed (generated from the seed unless an
  /// explicit one was supplied) — the input to shrinking.
  NemesisSchedule schedule;

  bool ok() const { return violations.empty(); }
};

/// \brief Runs one seed with the schedule generated from the config.
RunResult RunOne(const RunConfig& config);

/// \brief Runs one seed with an explicit (e.g. shrunk) schedule.
RunResult RunWithSchedule(const RunConfig& config,
                          const NemesisSchedule& schedule);

/// \brief A protocol's fault model: BFT (f = (n-1)/3, one may be
/// Byzantine), CFT ((n-1)/2 crashes) or sharded (crashes per shard).
enum class ProtocolFamily { kBft, kCft, kSharded };

/// \brief Every protocol, in name-table order; what "--protocol all" runs.
std::vector<Protocol> KnownProtocols();

/// \brief Whether the protocol table lists `protocol` under `family`.
bool InFamily(Protocol protocol, ProtocolFamily family);

}  // namespace pbc::check

#endif  // PBC_CHECK_HARNESS_H_
