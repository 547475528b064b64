// Block execution engines: the "execute" halves of OX and OXII.
#ifndef PBC_TXN_EXECUTOR_H_
#define PBC_TXN_EXECUTOR_H_

#include <vector>

#include "common/thread_pool.h"
#include "txn/transaction.h"

namespace pbc::txn {

/// \brief Per-block execution statistics.
struct BlockExecStats {
  size_t executed = 0;
  size_t levels = 0;  ///< DAG levels (1 for serial execution per txn)
};

/// \brief Executes every transaction sequentially in block order and applies
/// effects immediately (the OX architecture's execution phase).
///
/// `base_version` is the last committed version; transaction i commits at
/// base_version + i + 1.
BlockExecStats ExecuteSerial(const std::vector<Transaction>& txns,
                             store::KvStore* store);

/// \brief OXII execution: executes each level of the block's conflict
/// DAG in parallel on `pool`, applying each level's effects before the
/// next level starts. `levels` is the DAG's antichain decomposition
/// (block::ConflictGraph::Levels(): indices into `txns`, ascending within
/// a level). Conflicting transactions observe each other's writes exactly
/// as in serial order, so the final state equals ExecuteSerial's.
BlockExecStats ExecuteDag(const std::vector<Transaction>& txns,
                          const std::vector<std::vector<size_t>>& levels,
                          ThreadPool* pool, store::KvStore* store);

}  // namespace pbc::txn

#endif  // PBC_TXN_EXECUTOR_H_
