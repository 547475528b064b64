// Block validation: the Fabric validation phase as two reusable stages.
//
//   1. *Endorse/execute* every txn against the pre-block state: stage 1
//      finishes before the block's first write applies, so the store does
//      not move under it and execution results are independent of
//      execution order — this is what makes parallel endorsement
//      trivially deterministic.
//   2. *MVCC gate* — a serial scan in a fixed validation order: a txn is
//      valid iff its read-set (key, version) pairs still match the live
//      store, i.e. no earlier *valid* txn in this block wrote one of its
//      read keys. Valid writes apply immediately at last_committed()+1,
//      so later txns in the scan see them — exactly Fabric's
//      validate-and-commit loop.
//
// The arch layer's XOV family composes the two (arch/xov.h); FastFabric
// is the parallel validator, running stage 1 as one flat EndorseAll over
// the thread pool. SerialValidator runs both stages in block order on the
// caller's thread and is the oracle FastFabric is pinned against
// (tests/arch_test.cpp) across seeds and job counts.
#ifndef PBC_BLOCK_VALIDATOR_H_
#define PBC_BLOCK_VALIDATOR_H_

#include <vector>

#include "common/thread_pool.h"
#include "store/kv_store.h"
#include "txn/transaction.h"

namespace pbc::block {

/// \brief One endorsed transaction awaiting the MVCC gate.
struct Endorsed {
  const txn::Transaction* txn = nullptr;
  txn::ExecResult result;
  bool valid = true;
};

/// \brief Burns `rounds` of hashing per txn — models signature +
/// endorsement-policy checking, the work FastFabric parallelizes.
void ChargeValidationCost(const txn::Transaction& txn, int rounds);

/// \brief Stage 1, the one parallel endorse loop: executes every txn of
/// `txns` on `pool` against `store`'s latest state (read only) and
/// charges `validation_cost_rounds` of ChargeValidationCost in the same
/// job. Each job writes only its own slot, so the result does not depend
/// on scheduling.
std::vector<Endorsed> EndorseAll(const std::vector<txn::Transaction>& txns,
                                 const store::KvStore& store,
                                 int validation_cost_rounds, ThreadPool* pool);

/// \brief The serial MVCC gate, shared by SerialValidator and the arch
/// layer's XOV family (Fabric++/FabricSharp feed a reordered `order`).
///
/// Visits `endorsed` in `order` (indices; any permutation). Each txn is
/// valid iff store->ValidateReadSet passes at its turn; valid writes apply
/// at last_committed()+1 before the next txn is considered. Returns the
/// number of valid txns. Must run on a single thread.
size_t GateAndCommit(std::vector<Endorsed>* endorsed,
                     const std::vector<size_t>& order,
                     store::KvStore* store);

/// \brief Reference serial validator (the correctness oracle).
class SerialValidator {
 public:
  explicit SerialValidator(store::KvStore* store) : store_(store) {}

  /// Endorses every txn against the pre-block state in block order,
  /// then gates in block order. Returns per-txn validity flags.
  std::vector<bool> ProcessBlock(const std::vector<txn::Transaction>& txns);

 private:
  store::KvStore* store_;
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_VALIDATOR_H_
