// Block execution engines: the "execute" halves of OX and OXII.
#ifndef PBC_TXN_EXECUTOR_H_
#define PBC_TXN_EXECUTOR_H_

#include <vector>

#include "common/thread_pool.h"
#include "txn/transaction.h"

namespace pbc::txn {

/// \brief Executes every transaction sequentially in the given order and
/// applies each one's effects at last_committed()+1 before the next runs
/// (the OX architecture's execution phase, and XOX's re-execution step).
void ExecuteSerial(const std::vector<Transaction>& txns,
                   store::KvStore* store);

/// \brief OXII execution: executes each level of the block's conflict
/// DAG in parallel on `pool`, applying each level's effects before the
/// next level starts. `levels` is the DAG's antichain decomposition
/// (block::ConflictGraph::Levels(): indices into `txns`, ascending within
/// a level). Conflicting transactions observe each other's writes exactly
/// as in serial order, so the final state equals ExecuteSerial's.
void ExecuteDag(const std::vector<Transaction>& txns,
                const std::vector<std::vector<size_t>>& levels,
                ThreadPool* pool, store::KvStore* store);

}  // namespace pbc::txn

#endif  // PBC_TXN_EXECUTOR_H_
