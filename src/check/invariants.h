// Reusable invariant checkers for deterministic simulation testing.
//
// Each checker observes a system-under-test through narrow accessors (or
// event callbacks wired by the harness) and appends `Violation`s when a
// safety property is broken. Checkers NEVER mutate the system: attaching
// them cannot change a run's behavior, so a violation found with checkers
// attached replays identically without them.
//
// The properties covered are the paper's core safety claims:
//  * consensus agreement / prefix consistency (§2.3.2)  — ChainAgreement
//  * ledger integrity (hash linkage, Merkle roots)      — ChainLinkage
//  * consensus validity (only client txns commit)       — CommitValidity
//  * KV linearizability vs a sequential model           — KvModel
//  * workload balance conservation                      — BalanceConservation
//  * cross-shard atomicity (§2.3.4)                     — CrossShardAtomicity
#ifndef PBC_CHECK_INVARIANTS_H_
#define PBC_CHECK_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ledger/chain.h"
#include "obs/json.h"
#include "sim/simulator.h"
#include "store/kv_store.h"
#include "txn/transaction.h"

namespace pbc::check {

/// \brief One detected safety violation.
struct Violation {
  std::string invariant;  ///< checker name, e.g. "chain-agreement"
  std::string detail;     ///< human-readable description with specifics
  sim::Time at = 0;       ///< simulated time of detection

  obs::Json ToJson() const;
};

/// \brief Base class for invariant checkers.
class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;

  /// Stable name used in reports and coverage counts.
  virtual const char* name() const = 0;

  /// Appends the violations event hooks recorded since the last call,
  /// then what Poll finds. Called periodically during the run and once
  /// more at the end.
  void Check(sim::Time now, std::vector<Violation>* out) {
    out->insert(out->end(), std::make_move_iterator(recorded_.begin()),
                std::make_move_iterator(recorded_.end()));
    recorded_.clear();
    Poll(now, out);
  }

  /// Checkers that are too expensive to run periodically (full-chain
  /// audits) return false here and are only run at the end of a run.
  virtual bool periodic() const { return true; }

 protected:
  /// Records a violation an event hook found at `at`; the next Check
  /// reports it.
  void Record(std::string detail, sim::Time at) {
    recorded_.push_back({name(), std::move(detail), at});
  }

 private:
  /// Examines the system and appends violations. Checkers that only react
  /// to events (through Record) keep the default.
  virtual void Poll(sim::Time /*now*/, std::vector<Violation>* /*out*/) {}

  std::vector<Violation> recorded_;
};

/// \brief All pairwise chains are prefix-consistent (consensus agreement).
class ChainAgreementChecker : public InvariantChecker {
 public:
  using ChainsFn = std::function<std::vector<const ledger::Chain*>()>;
  explicit ChainAgreementChecker(ChainsFn chains)
      : chains_(std::move(chains)) {}

  const char* name() const override { return "chain-agreement"; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  ChainsFn chains_;
};

/// \brief Every chain passes a full integrity audit (hash linkage + txn
/// Merkle roots). Final-only: O(total blocks) hashing per invocation.
class ChainLinkageChecker : public InvariantChecker {
 public:
  using ChainsFn = ChainAgreementChecker::ChainsFn;
  explicit ChainLinkageChecker(ChainsFn chains) : chains_(std::move(chains)) {}

  const char* name() const override { return "chain-linkage"; }
  bool periodic() const override { return false; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  ChainsFn chains_;
};

/// \brief Only valid transactions commit, and each at most once per chain.
///
/// `is_valid_id` decides which transaction ids a chain may legitimately
/// contain (client-submitted ids; for sharded systems also the clusters'
/// marker-transaction id space). Catches fabricated transactions smuggled
/// in by an equivocating leader as well as duplicate delivery.
class CommitValidityChecker : public InvariantChecker {
 public:
  using ChainsFn = ChainAgreementChecker::ChainsFn;
  using IdPredicate = std::function<bool(txn::TxnId)>;
  CommitValidityChecker(ChainsFn chains, IdPredicate is_valid_id)
      : chains_(std::move(chains)), is_valid_id_(std::move(is_valid_id)) {}

  const char* name() const override { return "commit-validity"; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  ChainsFn chains_;
  IdPredicate is_valid_id_;
};

/// \brief KV linearizability against a sequential model.
///
/// The harness feeds every replica's committed transactions (in that
/// replica's delivery order) through `OnCommit`. The first replica to
/// reach a position defines the canonical sequential history; any replica
/// committing a different transaction at the same position violates
/// linearizability of the replicated KV store. The canonical history is
/// also executed against a model `KvStore`, whose final state other
/// checkers (balance conservation) can read.
class KvModelChecker : public InvariantChecker {
 public:
  KvModelChecker() = default;

  /// Called by the harness whenever replica `replica_index` commits `txn`.
  void OnCommit(size_t replica_index, const txn::Transaction& txn,
                sim::Time now);

  const char* name() const override { return "kv-linearizability"; }

  const store::KvStore& model() const { return model_; }
  size_t canonical_length() const { return canonical_.size(); }

 private:
  std::vector<txn::TxnId> canonical_;          // agreed total order
  std::map<size_t, size_t> cursor_;            // replica -> next position
  store::KvStore model_;                       // canonical history applied
  store::Version next_version_ = 1;
};

/// \brief Total balance equals the expected constant.
///
/// For sharded systems, totals are transiently off while a cross-shard
/// commit has been applied on one cluster but not yet ordered on another,
/// so the checker only fires when `settled` reports the system quiescent
/// (always true by default).
class BalanceConservationChecker : public InvariantChecker {
 public:
  /// `expected` is a function because the reference value can itself
  /// depend on the run (e.g. only deposits that committed count).
  BalanceConservationChecker(std::function<int64_t()> total,
                             std::function<int64_t()> expected,
                             std::function<bool()> settled = nullptr)
      : total_(std::move(total)),
        expected_(std::move(expected)),
        settled_(std::move(settled)) {}

  BalanceConservationChecker(std::function<int64_t()> total, int64_t expected,
                             std::function<bool()> settled = nullptr)
      : BalanceConservationChecker(
            std::move(total), [expected] { return expected; },
            std::move(settled)) {}

  const char* name() const override { return "balance-conservation"; }

 private:
  void Poll(sim::Time now, std::vector<Violation>* out) override;

  std::function<int64_t()> total_;
  std::function<int64_t()> expected_;
  std::function<bool()> settled_;
};

/// \brief Cross-shard atomicity: all clusters involved in a transaction
/// reach the same commit/abort outcome (wired to the shard systems'
/// `set_shard_outcome_listener` hook).
class CrossShardAtomicityChecker : public InvariantChecker {
 public:
  /// Registers how many clusters a transaction involves (used by
  /// `AllDecided`); harnesses call this at submission time.
  void ExpectOutcomes(txn::TxnId id, size_t involved_clusters);

  /// Reports cluster `shard`'s ordered local outcome for `id`.
  void OnShardOutcome(uint32_t shard, txn::TxnId id, bool commit,
                      sim::Time now);

  /// True when every registered transaction has an outcome from every
  /// involved cluster — the gate for end-state checks like balance
  /// conservation.
  bool AllDecided() const;

  const char* name() const override { return "cross-shard-atomicity"; }

 private:
  std::map<txn::TxnId, size_t> expected_;
  std::map<txn::TxnId, std::map<uint32_t, bool>> outcomes_;
};

/// \brief Owns a set of checkers, drives periodic checks off the
/// simulator, and accumulates violations + per-invariant coverage counts.
class CheckerSuite {
 public:
  explicit CheckerSuite(sim::Simulator* sim) : sim_(sim) {}

  /// Adds a checker; returns the raw pointer for harness wiring.
  template <typename T>
  T* Add(std::unique_ptr<T> checker) {
    T* raw = checker.get();
    checkers_.push_back(std::move(checker));
    return raw;
  }

  /// Adds the chain checkers for independent consensus clusters: chain
  /// agreement within each cluster's replica chains (one checker per
  /// cluster) and chain linkage over all of them. Returns the function
  /// that yields every chain, for checkers that audit them all.
  ChainAgreementChecker::ChainsFn AddChainCheckers(
      std::vector<ChainAgreementChecker::ChainsFn> clusters);

  /// Schedules `RunPeriodic` every `interval_us` until `until`.
  void StartPeriodic(sim::Time interval_us, sim::Time until);

  /// Runs every periodic checker once, now.
  void RunPeriodic();

  /// Runs every checker (periodic or not) once — the end-of-run sweep.
  void RunFinal();

  const std::vector<Violation>& violations() const { return violations_; }
  /// Checker name → number of times it ran.
  const std::map<std::string, uint64_t>& coverage() const { return coverage_; }

  /// At most this many violations are recorded per invariant (a broken
  /// invariant would otherwise flood the report every period).
  static constexpr size_t kMaxViolationsPerInvariant = 5;

 private:
  void RunOne(InvariantChecker* checker);

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<Violation> violations_;
  std::map<std::string, uint64_t> coverage_;
  std::map<std::string, size_t> recorded_;
};

}  // namespace pbc::check

#endif  // PBC_CHECK_INVARIANTS_H_
