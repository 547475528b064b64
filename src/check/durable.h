// Crash-recovery invariant checkers for the durable storage layer.
//
// All three checkers work by *shadow recovery*: they take the durable
// image a power loss would leave on the platter (sim::Fs::DurableImage,
// which is RNG-free and read-only, so checking never perturbs the run)
// and run a recovery function over it, then compare the result against
// references. The recovery function is injectable so unit tests can
// substitute deliberately broken recoveries and prove each invariant
// trips on exactly the failure it owns:
//  * durable-recovery-equivalence — what recovery rebuilds is a prefix of
//    the replica's in-memory chain, and its world state byte-equals a
//    replay of that prefix (ISSUE: "recover-from-disk byte-equals
//    in-memory state").
//  * durable-snapshot-convergence — recovery through the newest valid
//    snapshot plus the log tail converges to the same state as pure
//    full-log replay ("snapshot+replay converges to full replay").
//  * durable-synced-commit — no block past an fsynced commit barrier is
//    lost: recovery keeps at least every valid frame on the platter, and
//    the store's durability belief never exceeds the platter unless the
//    disk provably lied (dropped flush / torn sector).
#ifndef PBC_CHECK_DURABLE_H_
#define PBC_CHECK_DURABLE_H_

#include <functional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "ledger/chain.h"
#include "sim/fs.h"
#include "store/durable_ledger.h"

namespace pbc::check {

/// \brief One replica's durable-storage attachment points.
struct DurableTarget {
  std::string dir;  ///< node directory in the shared Fs, e.g. "n0"
  /// The replica's live store, for belief introspection (durable_height).
  /// May be null in tests that only exercise image-based checks.
  const store::DurableLedger* ledger = nullptr;
  /// The replica's in-memory chain (the reference recovery must match).
  std::function<const ledger::Chain*()> chain;
};

/// \brief Recovery procedure the checkers shadow-run over durable images.
using RecoverFn = std::function<store::DurableLedger::Recovered(
    const sim::FsImage& image, const std::string& dir)>;

/// The production recovery path as a RecoverFn. `mutate_recovery` mirrors
/// the run's canary flag — the shadow recovery must model the same
/// (possibly buggy) truncation the live path uses, so the canary is
/// caught as a *durability loss*, not as a shadow/live disagreement.
/// `use_snapshot` false forces pure log replay (the snapshot-convergence
/// reference).
RecoverFn ProductionRecovery(bool mutate_recovery, bool use_snapshot = true);

/// Canonical world state after the first `height` blocks of `chain`:
/// replays them with txn::ApplyCommitted, as the durable ledger and the KV
/// model checker do, then serializes (codec.h).
std::string ReplayChainState(const ledger::Chain& chain, uint64_t height);

/// \brief Recovery from disk reproduces a prefix of the replica's
/// in-memory reality — same blocks, byte-equal world state.
class RecoveryEquivalenceChecker : public InvariantChecker {
 public:
  RecoveryEquivalenceChecker(const sim::Fs* fs,
                             std::vector<DurableTarget> targets,
                             RecoverFn recover)
      : fs_(fs), targets_(std::move(targets)), recover_(std::move(recover)) {}

  const char* name() const override { return "durable-recovery-equivalence"; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  const sim::Fs* fs_;
  std::vector<DurableTarget> targets_;
  RecoverFn recover_;
};

/// \brief Snapshot-based recovery and pure log replay agree on height,
/// state bytes, and writer bookkeeping.
class SnapshotConvergenceChecker : public InvariantChecker {
 public:
  SnapshotConvergenceChecker(const sim::Fs* fs,
                             std::vector<DurableTarget> targets,
                             RecoverFn recover_snapshot, RecoverFn recover_full)
      : fs_(fs),
        targets_(std::move(targets)),
        recover_snapshot_(std::move(recover_snapshot)),
        recover_full_(std::move(recover_full)) {}

  const char* name() const override { return "durable-snapshot-convergence"; }

  /// Snapshot-path recoveries that actually used a snapshot (coverage:
  /// convergence is vacuous while no snapshot exists).
  uint64_t snapshot_recoveries() const { return snapshot_recoveries_; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  const sim::Fs* fs_;
  std::vector<DurableTarget> targets_;
  RecoverFn recover_snapshot_;
  RecoverFn recover_full_;
  uint64_t snapshot_recoveries_ = 0;
};

/// \brief No committed block is lost past an fsynced commit point.
///
/// Two teeth: (a) shadow recovery over the current durable image must
/// keep every valid frame the platter holds — a recovery that truncates
/// into valid frames (the --mutate-recovery canary) loses an fsynced
/// block; (b) the store's durability belief (durable_height) must not
/// exceed the platter's valid frames unless the Fs records that the disk
/// lied to this node (dropped flush or torn sector) — an honest disk
/// makes overclaimed durability a store bug. Live recoveries observed by
/// the harness (RecoverAndResync reports) are checked with the same rule
/// at the moment they happen via ObserveRecovery.
class SyncedCommitDurabilityChecker : public InvariantChecker {
 public:
  SyncedCommitDurabilityChecker(const sim::Fs* fs,
                                std::vector<DurableTarget> targets,
                                RecoverFn recover)
      : fs_(fs), targets_(std::move(targets)), recover_(std::move(recover)) {}

  /// Harness hook: called with the report of a live post-crash
  /// RecoverAndResync on replica `replica_index`.
  void ObserveRecovery(size_t replica_index,
                       const store::DurableLedger::RecoveryReport& report,
                       sim::Time now);

  const char* name() const override { return "durable-synced-commit"; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  const sim::Fs* fs_;
  std::vector<DurableTarget> targets_;
  RecoverFn recover_;
};

}  // namespace pbc::check

#endif  // PBC_CHECK_DURABLE_H_
