#include "txn/executor.h"

namespace pbc::txn {

void ExecuteSerial(const std::vector<Transaction>& txns,
                   store::KvStore* store) {
  for (const auto& t : txns) {
    ExecResult r = Execute(t, *store);
    if (!r.writes.empty()) {
      store->ApplyBatch(r.writes, store->last_committed() + 1);
    }
  }
}

void ExecuteDag(const std::vector<Transaction>& txns,
                const std::vector<std::vector<size_t>>& levels,
                ThreadPool* pool, store::KvStore* store) {
  for (const auto& level : levels) {
    // Execute the whole level in parallel against the current state.
    // Transactions within a level are conflict-free, so their reads cannot
    // observe each other's writes and their write sets are disjoint.
    // Workers only read the store, through Execute's const reference.
    std::vector<ExecResult> results(level.size());
    pool->ParallelFor(level.size(), [&](size_t i) {
      results[i] = Execute(txns[level[i]], *store);
    });
    // Apply effects in block order (the level is ascending) for
    // deterministic versions.
    for (const auto& r : results) {
      if (!r.writes.empty()) {
        store->ApplyBatch(r.writes, store->last_committed() + 1);
      }
    }
  }
}

}  // namespace pbc::txn
