// Block validators: the Fabric validation phase, serial and parallel.
//
// Both validators implement the same two-stage pipeline:
//
//   1. *Endorse/execute* every txn against the immutable pre-block
//      snapshot (store version at block entry). The snapshot never moves
//      during the block, so execution results are independent of execution
//      order — this is what makes the parallel validator trivially
//      deterministic.
//   2. *MVCC gate* — a serial scan in a fixed validation order: a txn is
//      valid iff its read-set (key, version) pairs still match the live
//      store, i.e. no earlier *valid* txn in this block wrote one of its
//      read keys. Valid writes apply immediately at last_committed()+1,
//      so later txns in the scan see them — exactly Fabric's
//      validate-and-commit loop.
//
// ParallelValidator runs stage 1 as one flat EndorseAll over the thread
// pool — no conflict-level barriers, since stage 1 only reads the
// snapshot; SerialValidator runs it in block order on the caller's thread.
// Their outputs (validity flags + final store state) are byte-identical by
// construction, which tests/block_test.cpp pins across seeds and job
// counts.
#ifndef PBC_BLOCK_VALIDATOR_H_
#define PBC_BLOCK_VALIDATOR_H_

#include <cstdint>
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

/// \brief Per-validator counters, accumulated across blocks. The conflict
/// fields describe the shape of the parallel validator's blocks (how much
/// a level schedule could overlap); benches emit them next to the thread
/// pool's steal counts.
struct ValidatorStats {
  uint64_t blocks = 0;
  uint64_t txns = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t conflict_edges = 0;    ///< sum of per-block conflict edges
  uint64_t levels = 0;            ///< sum of per-block level counts
  uint64_t max_level_width = 0;   ///< widest level seen in any block
};

/// \brief Burns `rounds` of hashing per txn — models signature +
/// endorsement-policy checking, the work FastFabric parallelizes.
void ChargeValidationCost(const txn::Transaction& txn, int rounds);

/// \brief Stage 1, the one parallel endorse loop: executes every txn of
/// `txns` on `pool` against the snapshot at store.last_committed() and
/// charges `validation_cost_rounds` of ChargeValidationCost in the same
/// job. Each job writes only its own slot, so the result does not depend
/// on scheduling. Shared by ParallelValidator and the arch layer's XOV
/// family (which pass cost 0 and charge validation serially).
std::vector<Endorsed> EndorseAll(const std::vector<txn::Transaction>& txns,
                                 const store::KvStore& store,
                                 int validation_cost_rounds, ThreadPool* pool);

/// \brief The serial MVCC gate, shared by both validators and the arch
/// layer (xov / fabricpp — the latter feeds a reordered `order`).
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
  explicit SerialValidator(store::KvStore* store,
                           int validation_cost_rounds = 0)
      : store_(store), cost_(validation_cost_rounds) {}

  /// Endorses every txn against the pre-block snapshot in block order,
  /// then gates in block order. Returns per-txn validity flags.
  std::vector<bool> ProcessBlock(const std::vector<txn::Transaction>& txns);

  const ValidatorStats& stats() const { return stats_; }

 private:
  store::KvStore* store_;
  int cost_;
  ValidatorStats stats_;
};

/// \brief Parallel validator on the work-stealing pool.
class ParallelValidator {
 public:
  ParallelValidator(ThreadPool* pool, store::KvStore* store,
                    int validation_cost_rounds = 0)
      : pool_(pool), store_(store), cost_(validation_cost_rounds) {}

  /// Endorses the block with EndorseAll, then runs the serial gate in
  /// block order. Byte-identical to SerialValidator for any pool size.
  /// The block's conflict graph is built only for the shape counters in
  /// stats().
  std::vector<bool> ProcessBlock(const std::vector<txn::Transaction>& txns);

  const ValidatorStats& stats() const { return stats_; }

 private:
  ThreadPool* pool_;
  store::KvStore* store_;
  int cost_;
  ValidatorStats stats_;
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_VALIDATOR_H_
