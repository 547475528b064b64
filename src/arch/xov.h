// The XOV (execute-order-validate) family: Hyperledger Fabric and the
// optimizations built on it (§2.3.3).
//
//   XOV (Fabric)  — endorse against the pre-block snapshot, order, then
//                   MVCC-validate serially; stale reads abort.
//   FastFabric    — identical semantics, but the validation pipeline
//                   (signature + rwset checks) runs in parallel.
//   XOX Fabric    — adds a post-order execution step that deterministically
//                   re-executes invalidated transactions against fresh
//                   state instead of aborting them.
//   Fabric++ / FabricSharp — gate in a reordered order (fabricpp.h).
//
// Endorsement is simulated execution: it produces a read set (with observed
// versions) and a write set but does NOT mutate state — exactly Fabric's
// endorsement phase. All endorsements for a block run against the same
// snapshot (the state at block entry), which is what makes intra-block
// read-write conflicts possible and is the behaviour Fabric++/FabricSharp
// exist to fix (see reorder.h).
#ifndef PBC_ARCH_XOV_H_
#define PBC_ARCH_XOV_H_

#include "arch/architecture.h"
#include "block/validator.h"

namespace pbc::arch {

/// \brief One endorsed transaction: the proposal plus its rwset. Shared
/// with the block layer so reorder plans feed block::GateAndCommit
/// directly.
using Endorsed = block::Endorsed;

/// \brief The XOV pipeline, stated once; each variant overrides only
/// what makes it differ from plain Fabric.
///
/// The phase boundary is explicit: phase X is block::EndorseAll against
/// the pre-block state (it reads the store before any write); the only
/// writes happen inside the single serial block::GateAndCommit scan
/// (phase V). Serial and parallel variants therefore agree by
/// construction — they run the same gate over order-independent
/// endorsements.
class XovBase : public Architecture {
 public:
  /// `validation_cost_rounds`: hash rounds charged per transaction during
  /// validation (models signature/endorsement-policy checking — the cost
  /// FastFabric parallelizes).
  XovBase(ThreadPool* pool, int validation_cost_rounds = 0)
      : Architecture(pool), validation_cost_(validation_cost_rounds) {}

  /// Endorses the block, charges validation, gates in GateOrder(),
  /// re-executes what the gate invalidated if ReexecutesInvalid(), and
  /// appends the effective transactions to the ledger.
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;

 protected:
  /// The order the gate visits `endorsed` in; an index left out aborts
  /// without reaching the gate. Default: block order.
  virtual std::vector<size_t> GateOrder(const std::vector<Endorsed>& endorsed);

  /// Whether validation cost is charged inside EndorseAll's parallel loop
  /// rather than serially, in gate order, before the gate.
  virtual bool ValidatesInParallel() const { return false; }

  /// Whether transactions the gate invalidates re-execute against fresh
  /// state instead of aborting.
  virtual bool ReexecutesInvalid() const { return false; }

 private:
  int validation_cost_;
};

/// \brief Plain Fabric: serial validation, conflicting transactions abort.
class XovArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  const char* name() const override { return "XOV"; }
};

/// \brief FastFabric, the parallel block validator: the expensive
/// per-transaction validation checks run in the parallel endorse loop;
/// only the (cheap) MVCC gate is serial.
class FastFabricArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  const char* name() const override { return "FastFabric"; }

  /// Runs the XOV pipeline, then adds the block's conflict-graph shape to
  /// dag_edges/dag_levels. The graph schedules nothing: stage 1 is one
  /// flat loop, since endorsement only reads the pre-block state.
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;

 protected:
  bool ValidatesInParallel() const override { return true; }
};

/// \brief XOX Fabric: invalidated transactions are re-executed
/// deterministically after validation instead of aborting.
class XoxArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  const char* name() const override { return "XOX"; }

 protected:
  bool ReexecutesInvalid() const override { return true; }
};

}  // namespace pbc::arch

#endif  // PBC_ARCH_XOV_H_
