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

/// \brief Shared XOV machinery.
///
/// The phase boundary is explicit: phase X is block::EndorseAll against
/// the pre-block snapshot (it never reads the live store), called with
/// validation cost 0 so each variant charges validation its own way; the
/// only writes happen inside the single serial block::GateAndCommit scan
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

 protected:
  /// Burns the per-transaction validation cost (deterministic hashing).
  void ChargeValidation(const txn::Transaction& txn) const;

  /// Phase V: runs the serial MVCC gate over `endorsed` visiting indices
  /// in `order`, updates committed/aborted stats, and returns the
  /// effective transactions in commit order.
  std::vector<txn::Transaction> GateBlock(std::vector<Endorsed>* endorsed,
                                          const std::vector<size_t>& order);

  int validation_cost_;
};

/// \brief Plain Fabric: serial validation, conflicting transactions abort.
class XovArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  using Architecture::ProcessBlock;
  const char* name() const override { return "XOV"; }
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;
};

/// \brief FastFabric: the expensive per-transaction validation checks run
/// in parallel; only the (cheap) sequential commit step is serial. Driven
/// by block::ParallelValidator on the work-stealing pool.
class FastFabricArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  using Architecture::ProcessBlock;
  const char* name() const override { return "FastFabric"; }
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;
};

/// \brief XOX Fabric: invalidated transactions are re-executed
/// deterministically after validation instead of aborting.
class XoxArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  using Architecture::ProcessBlock;
  const char* name() const override { return "XOX"; }
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;
};

}  // namespace pbc::arch

#endif  // PBC_ARCH_XOV_H_
